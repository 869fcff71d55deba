package layout

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"unsafe"

	"sherman/internal/rdma"
)

func formats() []Format {
	return []Format{
		DefaultFormat(TwoLevel),
		DefaultFormat(Checksum),
		NewFormat(TwoLevel, 8, 256),
		NewFormat(Checksum, 8, 256),
		NewFormat(TwoLevel, 32, 1024),
		NewFormat(Checksum, 64, 2048),
	}
}

func TestFormatGeometry(t *testing.T) {
	for _, f := range formats() {
		if f.LeafCap < 2 || f.IntCap < 2 {
			t.Fatalf("%+v: capacities too small", f)
		}
		// Last leaf entry must fit before the trailing RNV byte (TwoLevel)
		// or the node end (Checksum).
		end := f.leafEntryOff(f.LeafCap-1) + f.LeafEntSize
		limit := f.NodeSize
		if f.Mode == TwoLevel {
			limit-- // trailing RNV
		}
		if end > limit {
			t.Fatalf("%v keySize=%d: leaf entry %d overruns node (end %d > %d)",
				f.Mode, f.KeySize, f.LeafCap-1, end, limit)
		}
		endI := f.intEntryOff(f.IntCap-1) + f.IntEntSize
		if endI > limit {
			t.Fatalf("%v keySize=%d: internal entry overruns node", f.Mode, f.KeySize)
		}
	}
}

// TestViewSize pins a view at its buffer plus one geometry pointer: views
// are passed by value on every accessor call, so a field that grows them
// brings the per-call copies back.
func TestViewSize(t *testing.T) {
	for name, size := range map[string]uintptr{
		"Node":     unsafe.Sizeof(Node{}),
		"Leaf":     unsafe.Sizeof(Leaf{}),
		"Internal": unsafe.Sizeof(Internal{}),
	} {
		if size > 32 {
			t.Errorf("%s is %d bytes, want at most 32", name, size)
		}
	}
}

// TestFormatShared checks that equal geometries share one interned copy,
// whichever constructor built them, and that views point at it.
func TestFormatShared(t *testing.T) {
	a, b := DefaultFormat(TwoLevel), NewFormat(TwoLevel, 8, 1024)
	if a != b || a.shared == nil || a.shared != b.shared {
		t.Fatalf("equal formats do not share one geometry: %p vs %p", a.shared, b.shared)
	}
	if c := DefaultFormat(Checksum); c.shared == a.shared {
		t.Fatal("distinct geometries share a copy")
	}
	fixed := NewFormatFixedCap(TwoLevel, 8, 32)
	if fixed.shared.LeafCap != 32 || fixed.shared.shared != fixed.shared {
		t.Fatalf("fixed-cap format interned as %+v", *fixed.shared)
	}
	l := NewLeaf(a, 0, NoUpperBound)
	if l.f != a.shared || a.View(l.B).f != a.shared || NewInternal(a, 1, 0, NoUpperBound).Routing().f != a.shared {
		t.Fatal("views do not point at the shared geometry")
	}
}

func TestFormatFixedCap(t *testing.T) {
	for _, mode := range []Mode{TwoLevel, Checksum} {
		for _, ks := range []int{16, 64, 256, 1024} {
			f := NewFormatFixedCap(mode, ks, 32)
			if f.LeafCap != 32 {
				t.Fatalf("%v ks=%d: leaf cap %d, want 32", mode, ks, f.LeafCap)
			}
			if f.NodeSize%64 != 0 {
				t.Fatalf("node size %d not line aligned", f.NodeSize)
			}
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	for _, f := range formats() {
		n := NewNodeBuf(f)
		n.Init(3, 100, 5000)
		n.SetSibling(0x1234)
		if n.Level() != 3 || !n.Alive() {
			t.Fatal("level/alive mismatch")
		}
		if n.LowerFence() != 100 || n.UpperFence() != 5000 {
			t.Fatal("fence mismatch")
		}
		if n.Sibling() != 0x1234 {
			t.Fatal("sibling mismatch")
		}
		if !n.Covers(100) || !n.Covers(4999) || n.Covers(99) || n.Covers(5000) {
			t.Fatal("Covers wrong")
		}
		n.SetUpperFence(NoUpperBound)
		if !n.Covers(^uint64(0) - 1) {
			t.Fatal("unbounded Covers wrong")
		}
	}
}

func TestNodeVersionConsistency(t *testing.T) {
	f := DefaultFormat(TwoLevel)
	n := NewNodeBuf(f)
	n.Init(0, 0, NoUpperBound)
	if !n.Consistent() {
		t.Fatal("fresh node inconsistent")
	}
	n.BumpNodeVersions()
	if !n.Consistent() {
		t.Fatal("bumped node inconsistent")
	}
	if n.FNV() != 1 {
		t.Fatalf("FNV = %d, want 1", n.FNV())
	}
	// A torn write: front version updated, rear not.
	n.B[0] = (n.B[0] + 1) & 0xF
	if n.Consistent() {
		t.Fatal("torn node passed the version check")
	}
	// Wraparound: 16 bumps return to the same version value.
	n.B[0] = n.B[f.NodeSize-1]
	v := n.FNV()
	for i := 0; i < 16; i++ {
		n.BumpNodeVersions()
	}
	if n.FNV() != v {
		t.Fatalf("versions should wrap modulo 16")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	f := DefaultFormat(Checksum)
	l := NewLeaf(f, 0, NoUpperBound)
	l.InsertSorted(10, 100)
	l.InsertSorted(20, 200)
	l.UpdateChecksum()
	if !l.Consistent() {
		t.Fatal("fresh checksum inconsistent")
	}
	// Flip one byte anywhere in the entry area.
	off, _ := l.EntrySpan(0)
	l.B[off] ^= 0xFF
	if l.Consistent() {
		t.Fatal("corruption not detected")
	}
}

func TestLeafUnsortedInsertFind(t *testing.T) {
	f := NewFormat(TwoLevel, 8, 512)
	l := NewLeaf(f, 0, NoUpperBound)
	if l.Count() != 0 {
		t.Fatal("fresh leaf not empty")
	}
	keys := []uint64{42, 7, 99, 1, 63}
	for _, k := range keys {
		i := l.FindFree()
		if i < 0 {
			t.Fatal("no free slot")
		}
		l.SetEntry(i, k, k*2)
	}
	for _, k := range keys {
		i, ok := l.Find(k)
		if !ok || l.Value(i) != k*2 {
			t.Fatalf("Find(%d) failed", k)
		}
		if !l.EntryConsistent(i) {
			t.Fatalf("entry %d inconsistent", i)
		}
	}
	if _, ok := l.Find(1000); ok {
		t.Fatal("found absent key")
	}
	kvs := l.Entries()
	if len(kvs) != len(keys) {
		t.Fatalf("Entries: %d, want %d", len(kvs), len(keys))
	}
	for i := 1; i < len(kvs); i++ {
		if kvs[i].Key <= kvs[i-1].Key {
			t.Fatal("Entries not sorted")
		}
	}
}

func TestLeafEntryVersionsDetectTorn(t *testing.T) {
	f := DefaultFormat(TwoLevel)
	l := NewLeaf(f, 0, NoUpperBound)
	l.SetEntry(0, 5, 50)
	off, size := l.EntrySpan(0)
	// Simulate a torn entry write: FEV updated, REV stale.
	l.B[off] = (l.B[off] + 1) & 0xF
	if l.EntryConsistent(0) {
		t.Fatal("torn entry passed version check")
	}
	_ = size
}

func TestLeafEntrySpanWidth(t *testing.T) {
	// The non-split write-back granule: FEV + key + value + REV.
	f := DefaultFormat(TwoLevel)
	l := NewLeaf(f, 0, NoUpperBound)
	_, size := l.EntrySpan(0)
	if size != 1+8+8+1 {
		t.Fatalf("entry span = %d, want 18", size)
	}
}

func TestLeafClearEntry(t *testing.T) {
	f := DefaultFormat(TwoLevel)
	l := NewLeaf(f, 0, NoUpperBound)
	l.SetEntry(0, 5, 50)
	l.ClearEntry(0)
	if _, ok := l.Find(5); ok {
		t.Fatal("cleared key still found")
	}
	if !l.EntryConsistent(0) {
		t.Fatal("cleared entry inconsistent")
	}
	if l.FindFree() != 0 {
		t.Fatal("cleared slot not reusable")
	}
}

func TestLeafSortedInsertDelete(t *testing.T) {
	f := NewFormat(Checksum, 8, 512)
	l := NewLeaf(f, 0, NoUpperBound)
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		if !l.InsertSorted(k, k+100) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if l.Count() != 5 {
		t.Fatalf("count %d", l.Count())
	}
	for i := 1; i < l.Count(); i++ {
		if l.Key(i) <= l.Key(i-1) {
			t.Fatal("not sorted")
		}
	}
	// Update in place.
	l.InsertSorted(3, 999)
	if i, ok := l.Find(3); !ok || l.Value(i) != 999 {
		t.Fatal("update failed")
	}
	if l.Count() != 5 {
		t.Fatal("update changed count")
	}
	if !l.DeleteSorted(5) {
		t.Fatal("delete failed")
	}
	if _, ok := l.Find(5); ok {
		t.Fatal("deleted key present")
	}
	if l.DeleteSorted(5) {
		t.Fatal("double delete reported success")
	}
	if l.Count() != 4 {
		t.Fatalf("count after delete %d", l.Count())
	}
}

func TestLeafSortedFull(t *testing.T) {
	f := NewFormat(Checksum, 8, 256)
	l := NewLeaf(f, 0, NoUpperBound)
	for i := 0; i < f.LeafCap; i++ {
		if !l.InsertSorted(uint64(i+1), 1) {
			t.Fatalf("insert %d failed below cap", i)
		}
	}
	if l.InsertSorted(uint64(f.LeafCap+1), 1) {
		t.Fatal("insert beyond cap succeeded")
	}
	// Updating an existing key must still work when full.
	if !l.InsertSorted(1, 42) {
		t.Fatal("in-place update failed on full leaf")
	}
}

func TestSetEntriesRoundTrip(t *testing.T) {
	for _, f := range formats() {
		l := NewLeaf(f, 0, NoUpperBound)
		kvs := []KV{{1, 10}, {5, 50}, {9, 90}}
		l.SetEntries(kvs)
		got := l.Entries()
		if len(got) != len(kvs) {
			t.Fatalf("%v: got %d entries", f.Mode, len(got))
		}
		for i := range kvs {
			if got[i] != kvs[i] {
				t.Fatalf("%v: entry %d = %+v, want %+v", f.Mode, i, got[i], kvs[i])
			}
		}
	}
}

// TestLeafPropertyRoundTrip is a property test: any set of distinct nonzero
// keys inserted into a leaf is fully recoverable and sorted by Entries.
func TestLeafPropertyRoundTrip(t *testing.T) {
	for _, f := range []Format{DefaultFormat(TwoLevel), DefaultFormat(Checksum)} {
		fn := func(seed uint64) bool {
			rng := rand.New(rand.NewPCG(seed, 1))
			n := int(rng.Uint64N(uint64(f.LeafCap))) + 1
			l := NewLeaf(f, 0, NoUpperBound)
			want := map[uint64]uint64{}
			for len(want) < n {
				k := rng.Uint64()%1_000_000 + 1
				v := rng.Uint64() | 1
				want[k] = v
				if f.Mode == Checksum {
					l.InsertSorted(k, v)
				} else if i, ok := l.Find(k); ok {
					l.SetEntry(i, k, v)
				} else {
					l.SetEntry(l.FindFree(), k, v)
				}
			}
			got := l.Entries()
			if len(got) != len(want) {
				return false
			}
			prev := uint64(0)
			for _, kv := range got {
				if kv.Key <= prev || want[kv.Key] != kv.Value {
					return false
				}
				prev = kv.Key
			}
			return true
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%v: %v", f.Mode, err)
		}
	}
}

func TestInternalInsertSearch(t *testing.T) {
	for _, f := range formats() {
		in := NewInternal(f, 1, 0, NoUpperBound)
		in.SetLeftmost(0x10)
		for _, k := range []uint64{100, 50, 150} {
			if !in.Insert(k, rdma.Addr(k)) {
				t.Fatalf("insert %d failed", k)
			}
		}
		cases := []struct {
			key  uint64
			want uint64
		}{
			{10, 0x10}, {49, 0x10}, {50, 50}, {99, 50},
			{100, 100}, {149, 100}, {150, 150}, {1 << 40, 150},
		}
		for _, c := range cases {
			got, _ := in.ChildFor(c.key)
			if uint64(got) != c.want {
				t.Fatalf("%v: ChildFor(%d) = %#x, want %#x", f.Mode, c.key, got, c.want)
			}
		}
	}
}

func TestInternalDuplicateInsert(t *testing.T) {
	f := DefaultFormat(TwoLevel)
	in := NewInternal(f, 1, 0, NoUpperBound)
	in.Insert(10, 1)
	if !in.Insert(10, 2) {
		t.Fatal("duplicate insert failed")
	}
	if in.Count() != 1 {
		t.Fatal("duplicate insert grew count")
	}
	got, _ := in.ChildFor(10)
	if got != 2 {
		t.Fatal("duplicate insert did not overwrite")
	}
}

func TestInternalSplit(t *testing.T) {
	for _, f := range formats() {
		in := NewInternal(f, 2, 0, NoUpperBound)
		in.SetLeftmost(1)
		n := f.IntCap
		for i := 0; i < n; i++ {
			in.Insert(uint64(i+1)*10, rdma.Addr(i+2))
		}
		right := NewInternal(f, 2, 0, 0)
		sep := in.SplitInto(right, rdma.Addr(0xbeef))
		if in.UpperFence() != sep || right.LowerFence() != sep {
			t.Fatalf("%v: fences not stitched at separator", f.Mode)
		}
		if in.Sibling() != rdma.Addr(0xbeef) {
			t.Fatal("left sibling not set")
		}
		if right.Level() != 2 {
			t.Fatal("right level wrong")
		}
		// The median's child becomes right's leftmost; key counts add up to
		// cap-1 (one key moves up).
		if in.Count()+right.Count() != n-1 {
			t.Fatalf("%v: counts %d+%d != %d", f.Mode, in.Count(), right.Count(), n-1)
		}
		// Every key routes to the same child as before the split.
		for i := 0; i < n; i++ {
			k := uint64(i+1) * 10
			var got rdma.Addr
			if k < sep {
				got, _ = in.ChildFor(k)
			} else {
				got, _ = right.ChildFor(k)
			}
			if got != rdma.Addr(i+2) {
				t.Fatalf("%v: key %d routes to %v, want %v", f.Mode, k, got, rdma.Addr(i+2))
			}
		}
	}
}

func TestChildrenFrom(t *testing.T) {
	f := DefaultFormat(TwoLevel)
	in := NewInternal(f, 1, 0, NoUpperBound)
	in.SetLeftmost(1)
	in.Insert(10, 2)
	in.Insert(20, 3)
	in.Insert(30, 4)
	if got := in.ChildrenFrom(0); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("ChildrenFrom(0) = %v", got)
	}
	if got := in.ChildrenFrom(15); len(got) != 3 || got[0] != 2 {
		t.Fatalf("ChildrenFrom(15) = %v", got)
	}
	if got := in.ChildrenFrom(30); len(got) != 1 || got[0] != 4 {
		t.Fatalf("ChildrenFrom(30) = %v", got)
	}
}

func TestKeyPadding(t *testing.T) {
	// Larger wire keys must not corrupt neighbors and must round-trip.
	f := NewFormat(TwoLevel, 128, 8192)
	l := NewLeaf(f, 0, NoUpperBound)
	l.SetEntry(0, 7, 70)
	l.SetEntry(1, 9, 90)
	if k := l.Key(0); k != 7 {
		t.Fatalf("padded key = %d", k)
	}
	if v := l.Value(1); v != 90 {
		t.Fatalf("neighbor value = %d", v)
	}
}
