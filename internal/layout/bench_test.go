package layout

import (
	"testing"

	"sherman/internal/rdma"
)

// The view benchmarks time the accessors the index calls once or more per
// operation, on the paper's default geometry.

func benchLeaf() (Leaf, int) {
	f := DefaultFormat(TwoLevel)
	l := NewLeaf(f, 0, NoUpperBound)
	fill := f.LeafCap * 8 / 10
	kvs := make([]KV, fill)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i + 1), Value: 1}
	}
	l.SetEntries(kvs)
	return l, fill
}

func BenchmarkLeafFind(b *testing.B) {
	l, fill := benchLeaf()
	for i := 0; b.Loop(); i++ {
		if _, ok := l.Find(uint64(i%fill) + 1); !ok {
			b.Fatal("key not found")
		}
	}
}

func BenchmarkLeafSetEntry(b *testing.B) {
	l, _ := benchLeaf()
	n := l.Cap()
	for i := 0; b.Loop(); i++ {
		l.SetEntry(i%n, uint64(i)+1, uint64(i))
	}
}

func BenchmarkInternalChildFor(b *testing.B) {
	f := DefaultFormat(TwoLevel)
	n := NewInternal(f, 1, 0, NoUpperBound)
	n.SetLeftmost(rdma.Addr(1))
	seps := make([]Sep, f.IntCap*8/10)
	for i := range seps {
		seps[i] = Sep{Key: uint64(i+1) * 100, Child: rdma.Addr(i + 2)}
	}
	n.SetSeparators(seps)
	span := uint64(len(seps)+1) * 100
	for i := 0; b.Loop(); i++ {
		if c, _ := n.ChildFor(uint64(i) * 37 % span); c == 0 {
			b.Fatal("no child")
		}
	}
}
