package cluster

import (
	"sync"
	"testing"

	"sherman/internal/deploy"
	"sherman/internal/transport"
)

func TestNewClusterReservesSuperblock(t *testing.T) {
	c := New(Config{NumMS: 2, NumCS: 2})
	if c.NumMS() != 2 || c.NumCS() != 2 {
		t.Fatalf("sizes = %d MS / %d CS, want 2/2", c.NumMS(), c.NumCS())
	}
	// MS 0 must already own the superblock chunk, so the first allocator
	// chunk cannot be offset 0 (Addr 0 is the nil pointer).
	if got := c.F.Servers()[0].Capacity(); got != transport.DefaultChunkSize {
		t.Fatalf("MS0 capacity = %d, want one chunk", got)
	}
	base := c.F.Servers()[0].Grow()
	if base == 0 {
		t.Fatal("allocator chunk landed on the superblock")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{{NumMS: 0, NumCS: 1}, {NumMS: 1, NumCS: 0}, {NumMS: -1, NumCS: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestCASRootRace: of N concurrent root swaps from the same old value,
// exactly one wins.
func TestCASRootRace(t *testing.T) {
	c := New(Config{NumMS: 1, NumCS: 4})
	oldRoot := transport.MakeAddr(0, 0x1000)
	c.SetRoot(oldRoot, 0)

	const racers = 16
	wins := make([]bool, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := c.NewClient(i % 4)
			wins[i] = deploy.CASRoot(cl, oldRoot, transport.MakeAddr(0, uint64(0x2000+i*64)), 1)
		}(i)
	}
	wg.Wait()

	winners := 0
	winner := -1
	for i, w := range wins {
		if w {
			winners++
			winner = i
		}
	}
	if winners != 1 {
		t.Fatalf("%d CAS winners, want exactly 1", winners)
	}
	cl := c.NewClient(0)
	r, _ := ReadRoot(cl)
	if r != transport.MakeAddr(0, uint64(0x2000+winner*64)) {
		t.Fatalf("root %v does not match winner %d", r, winner)
	}
}

func TestThreadAllocatorIntegration(t *testing.T) {
	c := New(Config{NumMS: 2, NumCS: 1})
	cl := c.NewClient(0)
	a := c.NewThreadAllocator(cl, 0)
	addr := a.Alloc(1024)
	if addr.IsNil() {
		t.Fatal("nil allocation")
	}
	if c.AllocStats.Chunks.Load() != 1 || c.AllocStats.Nodes.Load() != 1 {
		t.Errorf("alloc stats = %d chunks / %d nodes, want 1/1",
			c.AllocStats.Chunks.Load(), c.AllocStats.Nodes.Load())
	}
}

func TestDefaultParamsApplied(t *testing.T) {
	c := New(Config{NumMS: 1, NumCS: 1})
	if c.P.RTTNS == 0 {
		t.Fatal("zero params were not replaced with defaults")
	}
}
