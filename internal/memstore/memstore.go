// Package memstore is one memory server's memory: host memory grown in
// fixed-length chunks, the NIC's on-chip region, and the verbs that touch
// them with a NIC's guarantees. A NIC moves host memory in 64-byte lines, in
// increasing address order (§3.2.3, footnote 5), so Read and Write are
// atomic per line and no more: a lock-free reader racing a writer can see a
// node torn at line boundaries, which is exactly what the index's
// consistency checks exist to catch. Atomics are aligned to their width, so
// each stays inside one line and runs under that line's lock.
//
// Both fabrics serve their memory from a Store: the simulator's rdma.Server
// and shermand's tcp.Server. A verb that breaks a bounds or alignment rule touches nothing
// and returns the rule's error; the simulator panics with it, shermand
// answers it on the wire.
//
// Host memory lives outside the Go heap, as a memory server's registered
// region lives outside any compute server's allocator: each chunk is an
// anonymous mapping, zero-filled by the kernel on first touch, so an
// untouched page costs no memory and a simulated server's bytes add nothing
// to the client's garbage-collection headroom. A store unmaps its chunks
// once it is unreachable.
package memstore

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"sherman/internal/transport"
)

// lineSize is the granularity at which a verb's memory access is atomic.
const lineSize = 64

const (
	chunkSize = transport.DefaultChunkSize

	// Stripe lock counts; a line's stripe is its line index modulo these.
	hostStripes = 1 << 11
	chipStripes = 1 << 6
)

// Store is one memory server's bytes plus its inbound-verb counters.
type Store struct {
	growMu sync.Mutex
	dir    atomic.Pointer[directory]
	onChip []byte

	// maps is every chunk mapped so far, appended under growMu. It is the
	// argument of the cleanup that unmaps them, so it must not reach s.
	maps *[][]byte

	hostLocks [hostStripes]sync.Mutex
	chipLocks [chipStripes]sync.Mutex

	// inbound counts served verbs and RPCs, and the directory breaks
	// host-memory verbs down by chunk: the load signal that migration picks
	// hot chunks by and that replica repair places by.
	inbound atomic.Int64

	// hold is HoldWrite's one-shot hook; nil unless a test armed it.
	hold atomic.Pointer[func()]
}

// directory is the immutable chunk directory: each chunk's memory and its
// inbound-verb counter, republished whole by Grow so verbs read it
// lock-free.
type directory struct {
	chunks [][]byte
	ops    []*atomic.Int64
}

// mapped counts the chunks mapped and not yet unmapped, process-wide.
var mapped atomic.Int64

// New returns an empty store with onChipBytes of on-chip memory.
func New(onChipBytes int) *Store {
	s := &Store{onChip: make([]byte, onChipBytes), maps: new([][]byte)}
	s.dir.Store(&directory{})
	runtime.AddCleanup(s, unmapAll, s.maps)
	return s
}

// unmapAll releases a collected store's chunks. No verb can be running on
// an unreachable store, so nothing can touch them any more.
func unmapAll(maps *[][]byte) {
	for _, c := range *maps {
		if err := syscall.Munmap(c); err != nil {
			panic(fmt.Sprintf("memstore: unmap chunk: %v", err))
		}
		mapped.Add(-1)
	}
}

// Grow appends one chunk of host memory and returns its base offset.
// In-flight verbs keep the old directory: none can target the new chunk
// before its base is returned.
func (s *Store) Grow() uint64 {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	c, err := syscall.Mmap(-1, 0, chunkSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("memstore: map %d-byte chunk: %v", chunkSize, err))
	}
	mapped.Add(1)
	*s.maps = append(*s.maps, c)
	old := s.dir.Load()
	s.dir.Store(&directory{
		chunks: append(append([][]byte(nil), old.chunks...), c),
		ops:    append(append([]*atomic.Int64(nil), old.ops...), new(atomic.Int64)),
	})
	return uint64(len(old.chunks)) * chunkSize
}

// Capacity returns the grown host-memory size in bytes.
func (s *Store) Capacity() uint64 { return uint64(len(s.dir.Load().chunks)) * chunkSize }

// OnChipSize returns the on-chip memory size in bytes.
func (s *Store) OnChipSize() int { return len(s.onChip) }

// NoteInbound books n served verbs against the server and, for a host
// address, against the chunk holding it.
func (s *Store) NoteInbound(a transport.Addr, n int64) {
	s.inbound.Add(n)
	if a.OnChip() {
		return
	}
	if ops := s.dir.Load().ops; a.Off()/chunkSize < uint64(len(ops)) {
		ops[a.Off()/chunkSize].Add(n)
	}
}

// NoteRPC books one memory-thread RPC against the server (no chunk: RPCs
// are control traffic, not data placement).
func (s *Store) NoteRPC() { s.inbound.Add(1) }

// InboundOps returns the served verbs and RPCs booked so far.
func (s *Store) InboundOps() int64 { return s.inbound.Load() }

// ChunkOps returns a snapshot of the served verbs booked per host chunk.
func (s *Store) ChunkOps() []int64 {
	ops := s.dir.Load().ops
	out := make([]int64, len(ops))
	for i, c := range ops {
		out[i] = c.Load()
	}
	return out
}

// kind is what a verb does to the bytes it names, as far as check cares.
type kind uint8

const (
	kindData   kind = iota // a read or write of any length
	kindAtomic             // an atomic, aligned to its width
)

// check is every bounds and alignment rule a verb obeys: an atomic is
// aligned to its width (so it never crosses a line), an on-chip access
// stays inside the region, and a host access stays inside one grown chunk
// (the allocator never places an object across two).
func (s *Store) check(a transport.Addr, n int, k kind) error {
	off := a.Off()
	if k == kindAtomic && off%uint64(n) != 0 {
		return fmt.Errorf("unaligned %d-byte atomic at %v", n, a)
	}
	if a.OnChip() {
		if off+uint64(n) > uint64(len(s.onChip)) {
			return fmt.Errorf("on-chip access [%#x,+%d) exceeds %d B", off, n, len(s.onChip))
		}
		return nil
	}
	if chunks := len(s.dir.Load().chunks); off/chunkSize >= uint64(chunks) {
		return fmt.Errorf("access [%#x,+%d) beyond grown memory (%d chunks)", off, n, chunks)
	}
	if off%chunkSize+uint64(n) > chunkSize {
		return fmt.Errorf("access [%#x,+%d) straddles a chunk boundary", off, n)
	}
	return nil
}

// mem returns the bytes of [a, a+n), which check has accepted. A host
// slice points into a mapped chunk, which the garbage collector does not
// see: it does not keep s alive, and the chunk is unmapped once s is
// collected. So no slice into chunk memory outlives the verb call that took
// it. Every verb keeps s alive until its copy is done by holding the line's
// stripe lock, an interior pointer into s, until then.
func (s *Store) mem(a transport.Addr, n int) []byte {
	off := a.Off()
	if a.OnChip() {
		return s.onChip[off : off+uint64(n)]
	}
	co := off % chunkSize
	return s.dir.Load().chunks[off/chunkSize][co : co+uint64(n)]
}

// LineLock returns the stripe lock guarding a's 64-byte line. Holding it
// stalls every verb that touches the line; tests use that to wedge one.
func (s *Store) LineLock(a transport.Addr) *sync.Mutex {
	line := a.Off() / lineSize
	if a.OnChip() {
		return &s.chipLocks[line%chipStripes]
	}
	return &s.hostLocks[line%hostStripes]
}

// Read copies len(buf) bytes at a into buf.
func (s *Store) Read(a transport.Addr, buf []byte) error { return s.copyLines(a, buf, false) }

// Write copies data to a.
func (s *Store) Write(a transport.Addr, data []byte) error { return s.copyLines(a, data, true) }

// HoldWrite is a hook for tests: the next Write that spans more than one
// line copies its first line, releases that line's lock and calls hold
// before it copies the rest, so any verb that runs until hold returns sees
// that write torn between its first two lines, as a NIC's write can be
// mid-transfer. It fires once.
func (s *Store) HoldWrite(hold func()) { s.hold.Store(&hold) }

// copyLines moves buf to (write) or from memory at a one line at a time, in
// increasing address order, each line under its stripe lock.
func (s *Store) copyLines(a transport.Addr, buf []byte, write bool) error {
	if err := s.check(a, len(buf), kindData); err != nil {
		return err
	}
	mem := s.mem(a, len(buf))
	var hold *func()
	if write && s.hold.Load() != nil && int(a.Off()%lineSize)+len(buf) > lineSize {
		hold = s.hold.Swap(nil)
	}
	for lo := 0; lo < len(buf); {
		at := a + transport.Addr(lo)
		hi := min(lo+lineSize-int(at.Off()%lineSize), len(buf))
		mu := s.LineLock(at)
		mu.Lock()
		if write {
			copy(mem[lo:hi], buf[lo:hi])
		} else {
			copy(buf[lo:hi], mem[lo:hi])
		}
		mu.Unlock()
		lo = hi
		if hold != nil {
			(*hold)()
			hold = nil
		}
	}
	return nil
}

// atomic runs op on the n-byte word at a under its line's lock.
func (s *Store) atomic(a transport.Addr, n int, op func(w []byte)) error {
	if err := s.check(a, n, kindAtomic); err != nil {
		return err
	}
	mu := s.LineLock(a)
	mu.Lock()
	op(s.mem(a, n))
	mu.Unlock()
	return nil
}

// CAS sets the little-endian 8-byte word at a to new if it holds old, and
// returns its previous value.
func (s *Store) CAS(a transport.Addr, old, new uint64) (prev uint64, err error) {
	err = s.atomic(a, 8, func(w []byte) {
		if prev = binary.LittleEndian.Uint64(w); prev == old {
			binary.LittleEndian.PutUint64(w, new)
		}
	})
	return prev, err
}

// CAS16 is CAS confined to the 2-byte field at a: the masked
// compare-and-swap Sherman packs its on-chip locks with (§4.3). The rest of
// the 8-byte word is untouched.
func (s *Store) CAS16(a transport.Addr, old, new uint16) (prev uint16, err error) {
	err = s.atomic(a, 2, func(w []byte) {
		if prev = binary.LittleEndian.Uint16(w); prev == old {
			binary.LittleEndian.PutUint16(w, new)
		}
	})
	return prev, err
}

// FAA adds delta to the little-endian 8-byte word at a and returns its
// previous value.
func (s *Store) FAA(a transport.Addr, delta uint64) (prev uint64, err error) {
	err = s.atomic(a, 8, func(w []byte) {
		prev = binary.LittleEndian.Uint64(w)
		binary.LittleEndian.PutUint64(w, prev+delta)
	})
	return prev, err
}
