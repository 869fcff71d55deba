package cache

import (
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"

	"sherman/internal/layout"
	"sherman/internal/transport"
)

func slEntry(key uint64) *Entry {
	n := layout.NewInternal(testFormat, 1, key, key+100)
	return &Entry{Addr: transport.MakeAddr(0, 0x1000+key), N: n.Compact(nil), key: key}
}

// TestSkiplistFloorAgainstReference compares floor queries against a sorted
// reference across random insert/remove sequences.
func TestSkiplistFloorAgainstReference(t *testing.T) {
	s := newSkiplist()
	ref := map[uint64]*Entry{}
	rng := rand.New(rand.NewPCG(7, 8))

	refFloor := func(target uint64) *Entry {
		var best *Entry
		for k, e := range ref {
			if k <= target && (best == nil || k > best.key) {
				best = e
			}
		}
		return best
	}

	for i := 0; i < 5000; i++ {
		k := rng.Uint64N(500) * 10
		switch rng.Uint64N(4) {
		case 0:
			if e, exists := ref[k]; exists {
				s.remove(e)
				delete(ref, k)
			}
		default:
			e := slEntry(k)
			s.insert(e)
			ref[k] = e
		}
		probe := rng.Uint64N(5200)
		got := s.floor(probe)
		want := refFloor(probe)
		switch {
		case got == nil && want == nil:
		case got == nil || want == nil:
			t.Fatalf("step %d: floor(%d) = %v, want %v", i, probe, got, want)
		case got.key != want.key:
			t.Fatalf("step %d: floor(%d) = key %d, want %d", i, probe, got.key, want.key)
		}
	}
	if int(s.size.Load()) != len(ref) {
		t.Errorf("size %d, reference %d", s.size.Load(), len(ref))
	}
}

// TestSkiplistInsertReplace: inserting at an existing key returns the
// displaced entry exactly once.
func TestSkiplistInsertReplace(t *testing.T) {
	s := newSkiplist()
	a := slEntry(100)
	if old := s.insert(a); old != nil {
		t.Fatalf("first insert displaced %v", old)
	}
	b := slEntry(100)
	if old := s.insert(b); old != a {
		t.Fatalf("replacement displaced %v, want the original", old)
	}
	if got := s.floor(150); got != b {
		t.Fatalf("floor returns %v, want the replacement", got)
	}
	if s.size.Load() != 1 {
		t.Fatalf("size = %d, want 1", s.size.Load())
	}
	// Removing the displaced (stale) entry must not unlink the replacement.
	s.remove(a)
	if got := s.floor(150); got != b {
		t.Fatal("removing a stale entry unlinked its replacement")
	}
}

// TestSkiplistRemoveIdempotent: double-removal is harmless.
func TestSkiplistRemoveIdempotent(t *testing.T) {
	s := newSkiplist()
	e := slEntry(5)
	s.insert(e)
	s.remove(e)
	s.remove(e)
	if got := s.floor(10); got != nil {
		t.Fatalf("floor after removal = %v", got)
	}
	if s.size.Load() != 0 {
		t.Fatalf("size = %d, want 0", s.size.Load())
	}
}

// TestSkiplistConcurrentReadersWriters: lock-free readers must always see a
// consistent structure while writers insert and remove.
func TestSkiplistConcurrentReadersWriters(t *testing.T) {
	s := newSkiplist()
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup

	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 3))
			entries := map[uint64]*Entry{}
			for i := 0; i < 4000; i++ {
				k := (rng.Uint64N(200)*2 + uint64(w)) * 10
				if e, ok := entries[k]; ok && rng.Uint64N(3) == 0 {
					s.remove(e)
					delete(entries, k)
				} else {
					e := slEntry(k)
					s.insert(e)
					entries[k] = e
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewPCG(uint64(r)+100, 4))
			for {
				select {
				case <-stop:
					return
				default:
				}
				probe := rng.Uint64N(4200)
				if e := s.floor(probe); e != nil && e.key > probe {
					t.Errorf("floor(%d) returned larger key %d", probe, e.key)
					return
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestSkiplistHeightDistribution sanity-checks that tower heights are
// geometric-ish (no degenerate all-height-1 lists, which would make seeks
// linear).
func TestSkiplistHeightDistribution(t *testing.T) {
	s := newSkiplist()
	for i := uint64(0); i < 4096; i++ {
		s.insert(slEntry(i * 10))
	}
	tall := 0
	x := s.head.next[3].Load() // nodes with height >= 4
	for x != nil {
		tall++
		x = x.next[3].Load()
	}
	// Expected ~4096/8 = 512; accept a broad band.
	if tall < 128 || tall > 1500 {
		t.Errorf("height>=4 nodes = %d, want roughly 512", tall)
	}
}

// Property: after any insert sequence, floor(k) for every inserted k
// returns an entry with that exact key.
func TestSkiplistFloorExactProperty(t *testing.T) {
	fn := func(keysRaw []uint16) bool {
		s := newSkiplist()
		seen := map[uint64]bool{}
		for _, kr := range keysRaw {
			k := uint64(kr)
			s.insert(slEntry(k))
			seen[k] = true
		}
		for k := range seen {
			e := s.floor(k)
			if e == nil || e.key != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
