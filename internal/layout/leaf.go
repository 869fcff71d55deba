package layout

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
)

// Leaf views a node buffer as a leaf.
//
// TwoLevel mode: the entry array is unsorted; empty slots have key 0 (key 0
// is reserved, §4.4 "set key to null" on delete); every entry is wrapped in
// a pair of 4-bit versions (FEV/REV) so a single-entry write-back is
// self-verifying.
//
// Checksum mode: the entry array is sorted with an explicit count, and the
// node CRC covers everything; insertions shift entries, which is part of the
// write amplification Sherman removes (§3.2.3).
type Leaf struct{ Node }

// AsLeaf views the node as a leaf.
func AsLeaf(n Node) Leaf { return Leaf{n} }

// NewLeaf allocates and initializes a fresh leaf.
func NewLeaf(f Format, lower, upper uint64) Leaf {
	l := Leaf{NewNodeBuf(f)}
	l.Init(0, lower, upper)
	return l
}

// NewLeafIn initializes a fresh leaf in the caller's buffer (len must equal
// f.NodeSize) — the allocation-free variant for arena-backed callers.
func NewLeafIn(f Format, buf []byte, lower, upper uint64) Leaf {
	l := Leaf{ViewNode(f, buf)}
	l.Init(0, lower, upper)
	return l
}

// KV is one key-value pair.
type KV struct {
	Key   uint64
	Value uint64
}

// Cap returns the entry capacity.
func (l Leaf) Cap() int { return l.f.LeafCap }

// keyOff/valOff locate the fields of slot i.
func (l Leaf) keyOff(i int) int {
	off := l.f.leafEntryOff(i)
	if l.f.Mode == TwoLevel {
		return off + 1 // skip FEV
	}
	return off
}

func (l Leaf) valOff(i int) int { return l.keyOff(i) + l.f.KeySize }

// Key returns the key in slot i (0 = empty in TwoLevel mode).
func (l Leaf) Key(i int) uint64 { return l.getKey(l.keyOff(i)) }

// Value returns the value in slot i.
func (l Leaf) Value(i int) uint64 { return l.getU64(l.valOff(i)) }

// FEV and REV return the entry versions of slot i (TwoLevel mode).
func (l Leaf) FEV(i int) uint8 { return l.B[l.f.leafEntryOff(i)] & 0xF }

// REV returns the rear entry version of slot i.
func (l Leaf) REV(i int) uint8 {
	return l.B[l.f.leafEntryOff(i)+l.f.LeafEntSize-1] & 0xF
}

// EntryConsistent reports whether slot i's two versions match (§4.4 lookup,
// entry-level check).
func (l Leaf) EntryConsistent(i int) bool { return l.FEV(i) == l.REV(i) }

// SetEntry stores (key, value) into slot i; in TwoLevel mode it also bumps
// both entry versions, making the slot's write-back self-describing.
func (l Leaf) SetEntry(i int, key, value uint64) {
	l.putKey(l.keyOff(i), key)
	l.putU64(l.valOff(i), value)
	if l.f.Mode == TwoLevel {
		off := l.f.leafEntryOff(i)
		v := (l.B[off] + 1) & 0xF
		l.B[off] = v
		l.B[off+l.f.LeafEntSize-1] = v
	}
}

// ClearEntry marks slot i deleted (key 0) and bumps its versions.
func (l Leaf) ClearEntry(i int) { l.SetEntry(i, 0, 0) }

// EntrySpan returns the buffer offset and length of slot i's write-back
// region (the 17-byte granule of Figure 14(c), including FEV and REV).
func (l Leaf) EntrySpan(i int) (off, size int) {
	return l.f.leafEntryOff(i), l.f.LeafEntSize
}

// Count returns the number of live entries.
func (l Leaf) Count() int {
	if l.f.Mode == Checksum {
		return l.getU16(offCountCksum)
	}
	n := 0
	for i := 0; i < l.Cap(); i++ {
		if l.Key(i) != 0 {
			n++
		}
	}
	return n
}

// Find locates key. TwoLevel mode scans the whole (unsorted) node — the
// added CPU cost the paper accepts for microsecond-scale networks (§4.4);
// Checksum mode binary-searches the sorted array.
func (l Leaf) Find(key uint64) (int, bool) {
	if l.f.Mode == Checksum {
		cnt := l.Count()
		i := sort.Search(cnt, func(i int) bool { return l.Key(i) >= key })
		if i < cnt && l.Key(i) == key {
			return i, true
		}
		return -1, false
	}
	// Stride the buffer directly: the per-slot accessors recompute the
	// slot's offset on every call, which dominates the scan on warm reads.
	ent := l.f.LeafEntSize
	off := headerEnd + 1 // first slot's key (skip FEV)
	b := l.B
	for i, n := 0, l.f.LeafCap; i < n; i++ {
		if binary.LittleEndian.Uint64(b[off:]) == key {
			return i, true
		}
		off += ent
	}
	return -1, false
}

// FindFree returns an empty slot, or -1 when the leaf is full. Only
// meaningful in TwoLevel mode.
func (l Leaf) FindFree() int {
	ent := l.f.LeafEntSize
	off := headerEnd + 1
	b := l.B
	for i, n := 0, l.f.LeafCap; i < n; i++ {
		if binary.LittleEndian.Uint64(b[off:]) == 0 {
			return i
		}
		off += ent
	}
	return -1
}

// InsertSorted inserts (key, value) preserving sort order (Checksum mode),
// shifting the tail. Returns false when full. An existing key is updated in
// place.
func (l Leaf) InsertSorted(key, value uint64) bool {
	cnt := l.Count()
	i := sort.Search(cnt, func(i int) bool { return l.Key(i) >= key })
	if i < cnt && l.Key(i) == key {
		l.putU64(l.valOff(i), value)
		return true
	}
	if cnt == l.Cap() {
		return false
	}
	start := l.f.leafEntryOff(i)
	end := l.f.leafEntryOff(cnt)
	copy(l.B[start+l.f.LeafEntSize:end+l.f.LeafEntSize], l.B[start:end])
	l.putKey(l.keyOff(i), key)
	l.putU64(l.valOff(i), value)
	l.putU16(offCountCksum, cnt+1)
	return true
}

// DeleteSorted removes key from a sorted leaf, shifting the tail left.
func (l Leaf) DeleteSorted(key uint64) bool {
	cnt := l.Count()
	i := sort.Search(cnt, func(i int) bool { return l.Key(i) >= key })
	if i >= cnt || l.Key(i) != key {
		return false
	}
	start := l.f.leafEntryOff(i)
	end := l.f.leafEntryOff(cnt)
	copy(l.B[start:], l.B[start+l.f.LeafEntSize:end])
	l.putU16(offCountCksum, cnt-1)
	return true
}

// Entries returns the live entries sorted by key (used before splitting an
// unsorted leaf: Figure 7 line 21 sorts then moves).
func (l Leaf) Entries() []KV { return l.AppendEntries(nil) }

// AppendEntries appends the live entries, sorted by key, onto dst and returns
// the extended slice — the allocation-free variant for callers that recycle a
// scratch buffer. Only the appended region is sorted; dst's prefix is
// untouched.
func (l Leaf) AppendEntries(dst []KV) []KV {
	start := len(dst)
	if l.f.Mode == Checksum {
		cnt := l.Count()
		for i := 0; i < cnt; i++ {
			dst = append(dst, KV{l.Key(i), l.Value(i)})
		}
		return dst
	}
	for i := 0; i < l.Cap(); i++ {
		if k := l.Key(i); k != 0 {
			dst = append(dst, KV{k, l.Value(i)})
		}
	}
	// Keys within a leaf are distinct, so an unstable in-place sort suffices
	// (and, unlike sort.Slice, allocates nothing).
	slices.SortFunc(dst[start:], func(a, b KV) int { return cmp.Compare(a.Key, b.Key) })
	return dst
}

// SetEntries rewrites the leaf's entry area from sorted kvs (post-split
// write-back). The caller bumps node versions / checksum as appropriate.
func (l Leaf) SetEntries(kvs []KV) {
	if len(kvs) > l.Cap() {
		panic("layout: too many entries for leaf")
	}
	// Clear the whole entry area first so stale slots cannot resurface.
	clear(l.B[l.f.leafEntryOff(0):l.f.leafEntryOff(l.Cap())])
	for i, kv := range kvs {
		if l.f.Mode == Checksum {
			l.putKey(l.keyOff(i), kv.Key)
			l.putU64(l.valOff(i), kv.Value)
		} else {
			l.SetEntry(i, kv.Key, kv.Value)
		}
	}
	if l.f.Mode == Checksum {
		l.putU16(offCountCksum, len(kvs))
	}
}
