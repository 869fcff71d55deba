package memstore

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sherman/internal/transport"
)

func grown(chunks int) *Store {
	s := New(256 << 10)
	for range chunks {
		s.Grow()
	}
	return s
}

// TestTornReadAt64ByteGranularity: a reader racing a writer that alternates
// two 128-byte patterns sees each 64-byte line whole, from either pattern:
// a read may mix the patterns across lines, never inside one.
func TestTornReadAt64ByteGranularity(t *testing.T) {
	s := grown(1)
	a := transport.MakeAddr(0, 64)
	pa, pb := bytes.Repeat([]byte{0xaa}, 128), bytes.Repeat([]byte{0xbb}, 128)
	s.Write(a, pa)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				s.Write(a, pb)
			} else {
				s.Write(a, pa)
			}
			runtime.Gosched()
		}
	}()
	buf := make([]byte, 128)
	for i := 0; i < 3000; i++ {
		s.Read(a, buf)
		for line := 0; line < 2; line++ {
			seg := buf[line*64 : line*64+64]
			if seg[0] != 0xaa && seg[0] != 0xbb {
				t.Fatalf("byte neither pattern: %#x", seg[0])
			}
			if !bytes.Equal(seg, bytes.Repeat(seg[:1], 64)) {
				t.Fatal("intra-line shear observed")
			}
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
}

// TestHoldWriteTearsOnce: an armed hold stops the next multi-line write
// after its first line, so a read from inside the hold sees the new first
// line and the old second one; the write then completes, and the hold does
// not fire again.
func TestHoldWriteTearsOnce(t *testing.T) {
	s := grown(1)
	a := transport.MakeAddr(0, 64)
	pa, pb := bytes.Repeat([]byte{0xaa}, 128), bytes.Repeat([]byte{0xbb}, 128)
	s.Write(a, pa)
	fired := 0
	s.HoldWrite(func() {
		fired++
		buf := make([]byte, 128)
		s.Read(a, buf)
		if !bytes.Equal(buf[:64], pb[:64]) || !bytes.Equal(buf[64:], pa[64:]) {
			t.Errorf("read inside the hold = %x, want the new first line and the old second", buf)
		}
	})
	s.Write(a, pa[:8]) // one line: the hold waits for a write it can tear
	s.Write(a, pb)
	s.Write(a, pa)
	buf := make([]byte, 128)
	s.Read(a, buf)
	if fired != 1 || !bytes.Equal(buf, pa) {
		t.Errorf("hold fired %d times, memory %x; want once, then the last write whole", fired, buf)
	}
}

// TestConcurrentAtomicsLinearize: FAAs from many goroutines lose no update,
// and CAS16s on the four 2-byte fields of one word never disturb each other.
func TestConcurrentAtomicsLinearize(t *testing.T) {
	s := grown(1)
	ctr, lanes := transport.MakeAddr(0, 0), transport.MakeOnChipAddr(0, 64)
	const threads, each = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(lane uint64) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				s.FAA(ctr, 1)
				if lane < 4 {
					a := lanes.Add(2 * lane)
					for {
						prev, _ := s.CAS16(a, 0, 0)
						if got, _ := s.CAS16(a, prev, prev+1); got == prev {
							break
						}
					}
				}
				runtime.Gosched()
			}
		}(uint64(i))
	}
	wg.Wait()
	buf := make([]byte, 8)
	s.Read(ctr, buf)
	if got := binary.LittleEndian.Uint64(buf); got != threads*each {
		t.Fatalf("FAA lost updates: %d, want %d", got, threads*each)
	}
	s.Read(lanes, buf)
	for lane := 0; lane < 4; lane++ {
		if got := binary.LittleEndian.Uint16(buf[2*lane:]); got != each {
			t.Fatalf("lane %d = %d, want %d: a CAS16 clobbered its neighbour", lane, got, each)
		}
	}
}

// TestGrowCounts: chunks grow at fixed bases with their own counters.
func TestGrowCounts(t *testing.T) {
	s := New(64)
	if b0, b1 := s.Grow(), s.Grow(); b0 != 0 || b1 != chunkSize || s.Capacity() != 2*chunkSize {
		t.Fatalf("bases %#x, %#x, capacity %#x", b0, b1, s.Capacity())
	}
	s.NoteInbound(transport.MakeAddr(0, chunkSize+8), 3)
	s.NoteInbound(transport.MakeOnChipAddr(0, 0), 1)
	s.NoteRPC()
	if ops := s.ChunkOps(); s.InboundOps() != 5 || len(ops) != 2 || ops[0] != 0 || ops[1] != 3 {
		t.Fatalf("inbound %d, chunks %v; want 5 and [0 3]", s.InboundOps(), ops)
	}
}

// dropStores grows n stores of chunks chunks each, writes fill over every
// chunk's first page and last line, checks that all of them are mapped at
// once, and drops the stores.
func dropStores(t *testing.T, n, chunks int, fill byte) {
	t.Helper()
	page := bytes.Repeat([]byte{fill}, 4096)
	stores := make([]*Store, n)
	for i := range stores {
		stores[i] = New(64)
		for range chunks {
			at := stores[i].Grow()
			stores[i].Write(transport.MakeAddr(0, at), page)
			stores[i].Write(transport.MakeAddr(0, at+chunkSize-lineSize), page[:lineSize])
		}
	}
	if got := MappedChunks(); got < int64(n*chunks) {
		t.Fatalf("%d chunks mapped while %d live stores hold %d", got, n, n*chunks)
	}
	runtime.KeepAlive(stores)
}

// awaitMapped collects garbage until at most want chunks are mapped, or
// fails after a bounded wait: cleanups run on their own goroutine after
// the cycle that finds their store unreachable.
func awaitMapped(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for MappedChunks() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d chunks still mapped, want at most %d: dropped stores were not unmapped", MappedChunks(), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestDroppedStoresUnmapChunks: a store's chunks are unmapped once the
// store is unreachable, so dropping stores returns the mapped-chunk count
// to where it was.
func TestDroppedStoresUnmapChunks(t *testing.T) {
	base := MappedChunks()
	dropStores(t, 200, 2, 0xee)
	awaitMapped(t, base)
}

// TestChunkGrownAfterCollectionIsZero: a chunk grown after other stores'
// written chunks were unmapped reads all-zero, over its whole length.
func TestChunkGrownAfterCollectionIsZero(t *testing.T) {
	base := MappedChunks()
	dropStores(t, 8, 1, 0xff)
	awaitMapped(t, base)
	s := grown(1)
	buf := make([]byte, 1<<20)
	for off := uint64(0); off < chunkSize; off += uint64(len(buf)) {
		s.Read(transport.MakeAddr(0, off), buf)
		if i := slices.IndexFunc(buf, func(b byte) bool { return b != 0 }); i >= 0 {
			t.Fatalf("fresh chunk holds %#x at %#x", buf[i], off+uint64(i))
		}
	}
}
