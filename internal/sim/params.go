// Package sim provides the virtual-time core of the disaggregated-memory
// simulator: calibrated timing parameters, contended hardware resources, and
// per-thread virtual clocks.
//
// Client threads are ordinary goroutines that really execute operations
// against shared simulated memory; sim only accounts for *when* those
// operations would complete on the paper's hardware (100 Gbps ConnectX-5
// RDMA NICs). Each contended hardware unit — a NIC's inbound processing
// pipeline, an in-NIC atomic bucket, a memory server's wimpy CPU — is a
// Resource whose logical clock advances as threads charge service time to
// it. Queueing delay under contention emerges from the max() in
// Resource.Acquire rather than from an event queue, which lets the simulator
// run at full native speed with real Go concurrency.
package sim

// Params holds the calibrated timing constants of the simulated fabric. The
// defaults model the paper's testbed: 100 Gbps Mellanox ConnectX-5 NICs with
// ~2 microsecond one-sided round trips (SIGMOD'22 §5.1.1, Figures 2 and 3).
type Params struct {
	// RTTNS is the base network round-trip time for a one-sided verb, in
	// virtual nanoseconds. The paper reports <= 2 us for commodity NICs.
	RTTNS int64

	// InboundMinNS is the per-command processing floor at the receiving
	// (memory-server) NIC. Together with NSPerByte it reproduces Figure 3:
	// RDMA_WRITE throughput is IOPS-bound (~100 Mops) below ~128 B and
	// bandwidth-bound above.
	InboundMinNS int64

	// OutboundMinNS is the per-command processing floor at the sending
	// (compute-server) NIC. Outbound IOPS is lower than inbound on
	// ConnectX-5 (~60 Mops), per Figure 3.
	OutboundMinNS int64

	// NSPerByte is the wire/DMA cost per payload byte. 100 Gbps = 12.5 GB/s
	// = 0.08 ns per byte.
	NSPerByte float64

	// HostAtomicNS is the conflict service time of one RDMA_ATOMIC command
	// whose target lives in host memory. Each such command performs two
	// PCIe transactions inside the NIC (§3.2.2), serialized per atomic
	// bucket, capping a hot bucket near 2 Mops.
	HostAtomicNS int64

	// OnChipAtomicNS is the per-bucket conflict service time of one
	// RDMA_ATOMIC command whose target lives in NIC on-chip device memory:
	// no PCIe transactions, so conflicting commands still serialize but
	// roughly 5x faster (§4.3).
	OnChipAtomicNS int64

	// HostAtomicUnitNS is the per-command occupancy of the NIC's shared
	// atomic processing pipeline for host-memory targets. Non-conflicting
	// host atomics pipeline their PCIe transactions, so a ConnectX-5
	// sustains tens of Mops in aggregate; the pipeline still bounds the
	// total, so a hot-lock retry storm steals capacity from unrelated
	// locks on the same memory server (§3.2.2).
	HostAtomicUnitNS int64

	// OnChipAtomicUnitNS is the pipeline occupancy for on-chip targets:
	// with no PCIe transactions the NIC sustains ~110 Mops in aggregate
	// (§4.3).
	OnChipAtomicUnitNS int64

	// AtomicBuckets is the number of internal NIC buckets used for atomic
	// concurrency control; commands whose destination addresses share the
	// bucket bits serialize (§3.2.2; the paper cites e.g. 4096 buckets keyed
	// by the 12 LSBs).
	AtomicBuckets int

	// OnChipMemBytes is the device-memory capacity exposed by each NIC
	// (256 KB on ConnectX-5, §4.3).
	OnChipMemBytes int

	// MemThreadRPCNS is the memory-server-side service time of one chunk
	// allocation RPC handled by the wimpy memory thread (§4.2.4).
	MemThreadRPCNS int64

	// LocalStepNS approximates one CS-local compute step (searching a cached
	// node, scanning a fetched node, etc.).
	LocalStepNS int64

	// LocalSpinNS is the virtual cost of one failed local-lock polling
	// iteration inside a compute server.
	LocalSpinNS int64

	// WraparoundGuardNS is the read-duration threshold above which a
	// lock-free read must be retried because 4-bit versions may have wrapped
	// (§4.4: 8 us = 2^4 x 0.5 us).
	WraparoundGuardNS int64

	// PipelineIssueNS is the client-side cost of issuing one pipelined
	// operation: posting its first work request and switching to the next
	// logical coroutine. It is what a pipelined client still pays per
	// operation after latency hiding removes the round trips, and it bounds
	// the throughput a single thread can reach at large pipeline depths.
	// Synchronous (depth-1) clients never pay it.
	PipelineIssueNS int64

	// LeaseNS is the liveness-lease duration of a compute server: a lock
	// whose holder has been dead for LeaseNS may be reclaimed by a survivor
	// (CAS from the dead holder's stamp). It must exceed the worker-clock
	// skew bound (the bench gate's slack x window) so a straggling thread of
	// a dying CS can never issue a verb after a survivor has reclaimed one
	// of its locks.
	LeaseNS int64
}

// DefaultParams returns the fabric parameters calibrated to the paper's
// testbed (§5.1.1 and the microbenchmarks in Figures 2 and 3).
func DefaultParams() Params {
	return Params{
		RTTNS:              2000,
		InboundMinNS:       10,
		OutboundMinNS:      16,
		NSPerByte:          0.08,
		HostAtomicNS:       500,
		OnChipAtomicNS:     100,
		HostAtomicUnitNS:   20, // ~50 Mops aggregate host atomics per NIC (ConnectX-5)
		OnChipAtomicUnitNS: 9,  // ~110 Mops aggregate on-chip atomics (§4.3)
		AtomicBuckets:      4096,
		OnChipMemBytes:     256 << 10,
		MemThreadRPCNS:     2000,
		LocalStepNS:        50,
		LocalSpinNS:        100,
		WraparoundGuardNS:  8000,
		PipelineIssueNS:    150,    // post WR + coroutine switch, well under one RTT
		LeaseNS:            50_000, // > bench gate skew (2 x 20 us), << measurement windows
	}
}

// PayloadNS returns the size-dependent service time of moving n payload
// bytes through a NIC with the given per-command floor.
func (p *Params) PayloadNS(n int, floor int64) int64 {
	t := int64(float64(n) * p.NSPerByte)
	if t < floor {
		return floor
	}
	return t
}

// Validate reports whether the parameters are internally consistent.
func (p Params) Validate() error {
	switch {
	case p.RTTNS <= 0:
		return errParam("RTTNS must be positive")
	case p.NSPerByte <= 0:
		return errParam("NSPerByte must be positive")
	case p.AtomicBuckets <= 0:
		return errParam("AtomicBuckets must be positive")
	case p.OnChipMemBytes <= 0:
		return errParam("OnChipMemBytes must be positive")
	case p.HostAtomicNS < p.OnChipAtomicNS:
		return errParam("HostAtomicNS must be >= OnChipAtomicNS (PCIe cost)")
	case p.HostAtomicUnitNS < p.OnChipAtomicUnitNS:
		return errParam("HostAtomicUnitNS must be >= OnChipAtomicUnitNS (PCIe cost)")
	case p.LeaseNS < 0:
		return errParam("LeaseNS must be non-negative")
	}
	return nil
}

type errParam string

func (e errParam) Error() string { return "sim: invalid params: " + string(e) }
