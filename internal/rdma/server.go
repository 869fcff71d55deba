package rdma

import (
	"fmt"
	"sync/atomic"

	"sherman/internal/memstore"
	"sherman/internal/sim"
)

// Server is one memory server: host DRAM and on-chip device memory (the
// store, which applies verbs per 64-byte line as a NIC does), the NIC's
// pipelines and internal atomic buckets, and a wimpy memory thread for
// allocation RPCs.
type Server struct {
	// st is reached only through the verbs below, which apply the dead
	// flag, and the forwarders for growth and op counts.
	st *memstore.Store

	// ID is the server's 15-bit identifier used in Addr values.
	ID uint16

	// Inbound models the NIC's inbound command-processing pipeline.
	Inbound sim.Resource

	// AtomicUnit models the NIC's single atomic processing pipeline: every
	// RDMA_ATOMIC handled by this NIC occupies it for the per-command unit
	// time (PCIe-bound for host targets, §3.2.2; fast for on-chip targets,
	// §4.3). Saturating it — as a hot-lock retry storm does — stalls
	// atomics for unrelated addresses too.
	AtomicUnit sim.Resource

	// CPU models the wimpy memory thread that serves allocation RPCs.
	CPU sim.Resource

	// dead marks a failed server. One-sided clients never learn of the
	// failure in-band — their verbs simply stop taking effect: reads
	// zero-fill (a zeroed buffer fails every consistency check, so readers
	// chase to a replica), writes and atomics are discarded (a CAS "returns"
	// 0, so lock paths proceed into a validating read that observes the
	// death). Addresses stay resolvable so in-flight verbs never fault.
	dead atomic.Bool

	buckets []sim.Resource
}

func newServer(id uint16, p sim.Params) *Server {
	return &Server{
		st:      memstore.New(p.OnChipMemBytes),
		ID:      id,
		buckets: make([]sim.Resource, p.AtomicBuckets),
	}
}

// Grow appends one chunk of host memory and returns its base offset.
func (s *Server) Grow() uint64 { return s.st.Grow() }

// Capacity returns the grown host-memory size in bytes.
func (s *Server) Capacity() uint64 { return s.st.Capacity() }

// OnChipSize returns the on-chip memory size in bytes.
func (s *Server) OnChipSize() int { return s.st.OnChipSize() }

// NoteInbound books n served verbs against the server and a's chunk.
func (s *Server) NoteInbound(a Addr, n int64) { s.st.NoteInbound(a, n) }

// NoteRPC books one memory-thread RPC against the server.
func (s *Server) NoteRPC() { s.st.NoteRPC() }

// InboundOps returns the served verbs and RPCs booked so far.
func (s *Server) InboundOps() int64 { return s.st.InboundOps() }

// ChunkOps returns a snapshot of the served verbs booked per host chunk.
func (s *Server) ChunkOps() []int64 { return s.st.ChunkOps() }

// SetDead fails (or revives, in tests) the server's memory: subsequent
// reads zero-fill and writes/atomics discard. The fault injector's MS-death
// listener chain calls this before replica promotion runs.
func (s *Server) SetDead(v bool) { s.dead.Store(v) }

// Dead reports whether the server has failed.
func (s *Server) Dead() bool { return s.dead.Load() }

// The verbs below apply the dead flag on top of the store. Dead memory
// reads as zero and absorbs nothing: an atomic's "previous value" is that
// zero (so a CAS expecting 0 appears to succeed) and its write is dropped —
// the acquiring client proceeds into a validating read that observes the
// death and chases to a replica. A bounds or alignment violation is a bug
// in the caller, not a fault the fabric models, so it panics.

func (s *Server) read(a Addr, buf []byte) {
	if s.dead.Load() {
		clear(buf)
		return
	}
	s.must(s.st.Read(a, buf))
}

func (s *Server) write(a Addr, data []byte) {
	if !s.dead.Load() {
		s.must(s.st.Write(a, data))
	}
}

func (s *Server) cas(a Addr, old, new uint64) uint64 {
	if s.dead.Load() {
		return 0
	}
	prev, err := s.st.CAS(a, old, new)
	s.must(err)
	return prev
}

func (s *Server) cas16(a Addr, old, new uint16) uint16 {
	if s.dead.Load() {
		return 0
	}
	prev, err := s.st.CAS16(a, old, new)
	s.must(err)
	return prev
}

func (s *Server) faa(a Addr, delta uint64) uint64 {
	if s.dead.Load() {
		return 0
	}
	prev, err := s.st.FAA(a, delta)
	s.must(err)
	return prev
}

func (s *Server) must(err error) {
	if err != nil {
		panic(fmt.Errorf("rdma: ms%d: %w", s.ID, err))
	}
}

// bucketFor returns the NIC-internal atomic bucket serializing commands that
// target a. Buckets are keyed by low destination-address bits (§3.2.2).
func (s *Server) bucketFor(a Addr) *sim.Resource {
	return &s.buckets[(a.Off()>>3)%uint64(len(s.buckets))]
}

// WriteAt stores data at host offset off without virtual-time accounting.
// It is intended for bulk loading before client threads start.
func (s *Server) WriteAt(off uint64, data []byte) {
	s.write(MakeAddr(s.ID, off), data)
}

// ReadAt loads len(buf) bytes from host offset off without virtual-time
// accounting. Intended for tests and debugging.
func (s *Server) ReadAt(off uint64, buf []byte) {
	s.read(MakeAddr(s.ID, off), buf)
}

// ResetTime rewinds all of the server's resource clocks to zero between
// experiments.
func (s *Server) ResetTime() {
	s.Inbound.Reset()
	s.AtomicUnit.Reset()
	s.CPU.Reset()
	for i := range s.buckets {
		s.buckets[i].Reset()
	}
}
