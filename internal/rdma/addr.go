// Package rdma simulates the RDMA fabric of a disaggregated-memory cluster:
// memory servers exposing host memory and NIC on-chip device memory, compute
// servers with client threads, and the one-sided verbs (READ, WRITE, CAS,
// FAA, masked CAS) plus doorbell-batched posts and a two-sided RPC path for
// the wimpy memory thread.
//
// Every operation really executes against shared process memory — the
// internal/memstore store shermand embeds too, with 64-byte access atomicity
// matching cacheline-granular NIC DMA — so lock-free readers observe genuine
// torn data that the index's version/checksum machinery must catch.
// Performance is accounted in virtual time via internal/sim; see DESIGN.md
// §3 for the model.
//
// The verb surface and its value types are defined by internal/transport;
// *Client implements transport.Transport (and transport.VirtualTimer, the
// capability interface carrying the virtual-time hooks). The aliases below
// keep the historical rdma.Addr / rdma.WriteOp spellings working — the
// simulated backend was the only backend for most of this repo's life, and
// half the codebase names these types through it.
package rdma

import "sherman/internal/transport"

// Addr is a 64-bit global pointer into disaggregated memory; see
// transport.Addr.
type Addr = transport.Addr

// NilAddr is the null pointer.
const NilAddr = transport.NilAddr

// DefaultChunkSize is the fixed-length chunk granularity used by memory
// threads when handing memory to compute servers (§4.2.4).
const DefaultChunkSize = transport.DefaultChunkSize

// MakeAddr builds a host-memory address on memory server ms at offset off.
func MakeAddr(ms uint16, off uint64) Addr { return transport.MakeAddr(ms, off) }

// MakeOnChipAddr builds an address into the on-chip device memory of memory
// server ms's NIC.
func MakeOnChipAddr(ms uint16, off uint64) Addr { return transport.MakeOnChipAddr(ms, off) }

// ReadOp names one RDMA_READ target for ReadMulti.
type ReadOp = transport.ReadOp

// WriteOp names one RDMA_WRITE for a doorbell-batched post.
type WriteOp = transport.WriteOp

// Metrics counts verb activity on one client thread.
type Metrics = transport.Metrics
