package layout

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"sherman/internal/transport"
)

// TestLeafModelProperty drives a random op sequence against a leaf and a
// map model in both modes; contents must agree after every step.
func TestLeafModelProperty(t *testing.T) {
	for _, mode := range []Mode{TwoLevel, Checksum} {
		mode := mode
		fn := func(seed uint64, opsRaw uint8) bool {
			f := NewFormat(mode, 8, 512)
			l := NewLeaf(f, 0, NoUpperBound)
			model := map[uint64]uint64{}
			rng := rand.New(rand.NewPCG(seed, 77))
			ops := int(opsRaw)%200 + 20
			for i := 0; i < ops; i++ {
				k := rng.Uint64N(30) + 1
				switch rng.Uint64N(3) {
				case 0: // delete
					if mode == TwoLevel {
						if idx, ok := l.Find(k); ok {
							l.ClearEntry(idx)
						}
					} else {
						l.DeleteSorted(k)
					}
					delete(model, k)
				default: // upsert, skipped when full and absent
					v := rng.Uint64() | 1
					if mode == TwoLevel {
						idx, ok := l.Find(k)
						if !ok {
							idx = l.FindFree()
						}
						if idx < 0 {
							continue
						}
						l.SetEntry(idx, k, v)
					} else if !l.InsertSorted(k, v) {
						continue
					}
					model[k] = v
				}
				// Compare contents.
				if l.Count() != len(model) {
					return false
				}
				for k, v := range model {
					idx, ok := l.Find(k)
					if !ok || l.Value(idx) != v {
						return false
					}
				}
			}
			// Entries() must be the sorted model.
			got := l.Entries()
			want := make([]KV, 0, len(model))
			for k, v := range model {
				want = append(want, KV{k, v})
			}
			sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

// TestInternalModelProperty checks ChildFor against a reference routing
// table after random separator inserts.
func TestInternalModelProperty(t *testing.T) {
	fn := func(seed uint64) bool {
		f := DefaultFormat(TwoLevel)
		n := NewInternal(f, 1, 0, NoUpperBound)
		leftmost := transport.MakeAddr(0, 64)
		n.SetLeftmost(leftmost)
		rng := rand.New(rand.NewPCG(seed, 13))

		seps := map[uint64]transport.Addr{}
		for i := 0; i < 40; i++ {
			k := rng.Uint64N(10_000) + 1
			child := transport.MakeAddr(0, uint64(0x1000+i*64))
			if !n.Insert(k, child) {
				break
			}
			seps[k] = child
		}
		keys := make([]uint64, 0, len(seps))
		for k := range seps {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

		for probe := 0; probe < 100; probe++ {
			k := rng.Uint64N(11_000)
			want := leftmost
			for _, sk := range keys {
				if sk <= k {
					want = seps[sk]
				} else {
					break
				}
			}
			if got, _ := n.ChildFor(k); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInternalSplitProperty: after SplitInto, routing across both halves
// must equal routing in the original node.
func TestInternalSplitProperty(t *testing.T) {
	fn := func(seed uint64) bool {
		f := NewFormat(TwoLevel, 8, 512)
		n := NewInternal(f, 2, 100, 90_000)
		n.SetLeftmost(transport.MakeAddr(0, 64))
		rng := rand.New(rand.NewPCG(seed, 99))
		for i := 0; ; i++ {
			k := rng.Uint64N(80_000) + 101
			if !n.Insert(k, transport.MakeAddr(0, uint64(0x1000+i*64))) {
				break
			}
		}
		// Reference routing before the split.
		type route struct {
			key   uint64
			child transport.Addr
		}
		var ref []route
		for p := 0; p < 200; p++ {
			k := rng.Uint64N(89_900) + 100
			c, _ := n.ChildFor(k)
			ref = append(ref, route{k, c})
		}

		rightAddr := transport.MakeAddr(1, 0x8000)
		right := NewInternal(f, 2, 0, NoUpperBound)
		sep := n.SplitInto(right, rightAddr)

		if n.UpperFence() != sep || right.LowerFence() != sep {
			return false
		}
		if n.Sibling() != rightAddr {
			return false
		}
		for _, r := range ref {
			var got transport.Addr
			if r.key < sep {
				got, _ = n.ChildFor(r.key)
			} else {
				got, _ = right.ChildFor(r.key)
			}
			if got != r.child {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestConsistencyCatchesAnySingleFlip: in checksum mode, flipping any one
// byte of a node (except inside the checksum's own field, which corrupts
// the stored sum instead) must fail verification.
func TestConsistencyCatchesAnySingleFlip(t *testing.T) {
	f := NewFormat(Checksum, 8, 256)
	l := NewLeaf(f, 0, NoUpperBound)
	for i := 0; i < 5; i++ {
		l.InsertSorted(uint64(i+1)*7, uint64(i))
	}
	l.UpdateChecksum()
	for off := 0; off < f.NodeSize; off++ {
		l.B[off] ^= 0x5a
		if l.Consistent() {
			t.Fatalf("byte flip at %d undetected", off)
		}
		l.B[off] ^= 0x5a
	}
	if !l.Consistent() {
		t.Fatal("restored node fails verification")
	}
}

// TestTwoLevelEntryFlipDetection: flipping bytes inside one entry is caught
// by that entry's version pair whenever the flip does not touch both
// versions identically — the fine-grained check of §4.4.
func TestTwoLevelEntryFlipDetection(t *testing.T) {
	f := NewFormat(TwoLevel, 8, 256)
	l := NewLeaf(f, 0, NoUpperBound)
	l.SetEntry(0, 42, 99)
	off, size := l.EntrySpan(0)
	// Tear the entry: bump FEV only (a half-applied write).
	l.B[off] = (l.B[off] + 1) & 0xF
	if l.EntryConsistent(0) {
		t.Fatal("front-version tear undetected")
	}
	// Repair and tear the rear instead.
	l.B[off] = l.B[off+size-1]
	if !l.EntryConsistent(0) {
		t.Fatal("repair failed")
	}
	l.B[off+size-1] = (l.B[off+size-1] + 3) & 0xF
	if l.EntryConsistent(0) {
		t.Fatal("rear-version tear undetected")
	}
}

// TestFixedCapFormats: the fixed-capacity constructor yields exactly the
// requested entries for every key size and stays line-aligned.
func TestFixedCapFormats(t *testing.T) {
	for _, mode := range []Mode{TwoLevel, Checksum} {
		for _, ks := range []int{8, 16, 64, 256, 1024} {
			f := NewFormatFixedCap(mode, ks, 32)
			if f.LeafCap != 32 {
				t.Errorf("mode %v key %d: leaf cap %d", mode, ks, f.LeafCap)
			}
			if f.NodeSize%64 != 0 {
				t.Errorf("mode %v key %d: node size %d not line-aligned", mode, ks, f.NodeSize)
			}
			// All 32 slots must be writable without overlapping the trailer.
			l := NewLeaf(f, 0, NoUpperBound)
			for i := 0; i < 32; i++ {
				if mode == TwoLevel {
					l.SetEntry(i, uint64(i+1), 1)
				} else {
					l.InsertSorted(uint64(i+1), 1)
				}
			}
			if l.Count() != 32 {
				t.Errorf("mode %v key %d: stored %d entries", mode, ks, l.Count())
			}
			if mode == TwoLevel {
				l.BumpNodeVersions()
				if !l.Consistent() {
					t.Errorf("mode %v key %d: node versions landed inside an entry", mode, ks)
				}
			}
		}
	}
}
