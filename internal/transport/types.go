package transport

import "fmt"

// Addr is a 64-bit global pointer into disaggregated memory, matching the
// paper's pointer format (§4.2.1): a 16-bit memory-server identifier and a
// 48-bit offset within that server. The top bit of the MS field is borrowed
// to address NIC on-chip device memory (used only for lock tables, never for
// tree nodes, so it can never be confused with a tree pointer).
//
// The zero Addr is the nil pointer; offset 0 of MS 0 holds the cluster
// superblock and is never handed out by the allocator.
type Addr uint64

const (
	onChipBit  = uint64(1) << 63
	offsetMask = (uint64(1) << 48) - 1
)

// NilAddr is the null pointer.
const NilAddr Addr = 0

// DefaultChunkSize is the fixed-length chunk granularity used by memory
// threads when handing memory to compute servers (§4.2.4).
const DefaultChunkSize = 8 << 20

// MakeAddr builds a host-memory address on memory server ms at offset off.
func MakeAddr(ms uint16, off uint64) Addr {
	if off&^offsetMask != 0 {
		panic(fmt.Sprintf("transport: offset %#x exceeds 48 bits", off))
	}
	if ms&0x8000 != 0 {
		panic(fmt.Sprintf("transport: ms id %d exceeds 15 bits", ms))
	}
	return Addr(uint64(ms)<<48 | off)
}

// MakeOnChipAddr builds an address into the on-chip device memory of memory
// server ms's NIC.
func MakeOnChipAddr(ms uint16, off uint64) Addr {
	return Addr(uint64(MakeAddr(ms, off)) | onChipBit)
}

// MS returns the memory-server identifier.
func (a Addr) MS() uint16 { return uint16(uint64(a)>>48) &^ 0x8000 }

// Off returns the 48-bit offset within the server (or within the NIC's
// on-chip memory for on-chip addresses).
func (a Addr) Off() uint64 { return uint64(a) & offsetMask }

// OnChip reports whether the address targets NIC on-chip device memory.
func (a Addr) OnChip() bool { return uint64(a)&onChipBit != 0 }

// IsNil reports whether the address is the null pointer.
func (a Addr) IsNil() bool { return a == NilAddr }

// Add returns the address displaced by d bytes within the same server and
// memory space.
func (a Addr) Add(d uint64) Addr {
	if a.IsNil() {
		panic("transport: Add on nil address")
	}
	return Addr(uint64(a) + d)
}

// String formats the address for diagnostics.
func (a Addr) String() string {
	if a.IsNil() {
		return "nil"
	}
	space := "mem"
	if a.OnChip() {
		space = "chip"
	}
	return fmt.Sprintf("ms%d/%s+%#x", a.MS(), space, a.Off())
}

// ReadOp names one RDMA_READ target for ReadMulti.
type ReadOp struct {
	Addr Addr
	Buf  []byte
}

// WriteOp names one RDMA_WRITE for a doorbell-batched post.
type WriteOp struct {
	Addr Addr
	Data []byte
}

// Metrics counts verb activity on one client thread. All fields are owned by
// the client's goroutine; aggregate across threads only after they finish.
// Both fabrics count a verb alike, so one scenario reads the same counts on
// the simulator and over TCP. Session stats report RoundTrips, WriteBytes,
// CASFailures and the doorbell counters; the tree's per-operation
// round-trip histogram reads OpRoundTrips; tests check the verb mix
// (Reads, Writes, Atomics, RPCs) against what the servers served.
type Metrics struct {
	// RoundTrips counts network round trips; a doorbell-batched post of
	// several dependent WRITEs counts once (that is the point of command
	// combination, §4.5).
	RoundTrips int64
	// OpRoundTrips counts round trips since the last BeginOp.
	OpRoundTrips int64

	// WriteBytes totals payload bytes sent by WRITE verbs.
	WriteBytes int64

	Reads   int64
	Writes  int64
	Atomics int64
	RPCs    int64

	// DoorbellBatches counts multi-command doorbell posts (a PostWrites of
	// several WRITEs or a ReadMulti of several READs); DoorbellOps totals
	// the commands those posts carried. Their ratio is the doorbell
	// amortization the combination and batching layers achieve (§4.5).
	DoorbellBatches int64
	DoorbellOps     int64

	// CASFailures counts remote compare-and-swap attempts that did not
	// swap — the retry traffic that squanders NIC IOPS (§3.2.2).
	CASFailures int64
}

// BeginOp resets the per-operation counter.
func (m *Metrics) BeginOp() {
	m.OpRoundTrips = 0
}
