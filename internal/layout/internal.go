package layout

import (
	"sort"

	"sherman/internal/transport"
)

// Internal views a node buffer as an internal (index) node: a sorted array
// of separator keys and child pointers plus a leftmost child. Internal nodes
// keep the standard sorted layout in both modes — they are modified far less
// often than leaves (§4.4), so Sherman leaves their format conventional and
// protects them with node-level versions (or the CRC in Checksum mode).
//
// Semantics: child[leftmost] covers [lowerFence, key0); child[i] covers
// [key_i, key_{i+1}); the last child covers [key_last, upperFence).
type Internal struct{ Node }

// AsInternal views the node as an internal node.
func AsInternal(n Node) Internal { return Internal{n} }

// NewInternal allocates and initializes a fresh internal node.
func NewInternal(f Format, level uint8, lower, upper uint64) Internal {
	if level == 0 {
		panic("layout: internal node cannot be level 0")
	}
	n := Internal{NewNodeBuf(f)}
	n.Init(level, lower, upper)
	return n
}

// NewInternalIn initializes a fresh internal node in the caller's buffer
// (len must equal f.NodeSize) — the allocation-free variant for arena-backed
// callers.
func NewInternalIn(f Format, buf []byte, level uint8, lower, upper uint64) Internal {
	if level == 0 {
		panic("layout: internal node cannot be level 0")
	}
	n := Internal{ViewNode(f, buf)}
	n.Init(level, lower, upper)
	return n
}

func (n Internal) countOff() int {
	if n.f.Mode == Checksum {
		return offCountCksum
	}
	return offCountTL
}

// Count returns the number of separator keys.
func (n Internal) Count() int { return n.getU16(n.countOff()) }

func (n Internal) setCount(c int) { n.putU16(n.countOff(), c) }

// Leftmost returns the child covering keys below the first separator.
func (n Internal) Leftmost() transport.Addr { return transport.Addr(n.getU64(n.countOff() + 2)) }

// SetLeftmost stores the leftmost child pointer.
func (n Internal) SetLeftmost(a transport.Addr) { n.putU64(n.countOff()+2, uint64(a)) }

// KeyAt returns separator key i.
func (n Internal) KeyAt(i int) uint64 { return n.getKey(n.f.intEntryOff(i)) }

// ChildAt returns the child pointer paired with separator key i.
func (n Internal) ChildAt(i int) transport.Addr {
	return transport.Addr(n.getU64(n.f.intEntryOff(i) + n.f.KeySize))
}

// setAt stores separator i.
func (n Internal) setAt(i int, key uint64, child transport.Addr) {
	off := n.f.intEntryOff(i)
	n.putKey(off, key)
	n.putU64(off+n.f.KeySize, uint64(child))
}

// SetChild rewrites the child pointer at the index ChildFor returned: -1 is
// the leftmost child, i >= 0 the i-th separator's child. The migration
// engine uses it to repoint a parent at a relocated node.
func (n Internal) SetChild(i int, a transport.Addr) {
	if i < 0 {
		n.SetLeftmost(a)
		return
	}
	n.putU64(n.f.intEntryOff(i)+n.f.KeySize, uint64(a))
}

// ChildFor returns the child to descend into for key, plus the index of the
// separator chosen (-1 for leftmost).
func (n Internal) ChildFor(key uint64) (transport.Addr, int) {
	cnt := n.Count()
	// First separator strictly greater than key; descend left of it.
	i := sort.Search(cnt, func(i int) bool { return n.KeyAt(i) > key })
	if i == 0 {
		return n.Leftmost(), -1
	}
	return n.ChildAt(i - 1), i - 1
}

// ChildrenFrom returns the children covering keys >= key within this node's
// range, in key order. Range queries use it to fetch several target leaves
// with parallel RDMA_READs (§4.4).
func (n Internal) ChildrenFrom(key uint64) []transport.Addr {
	return n.AppendChildrenFrom(nil, key)
}

// AppendChildrenFrom appends the children covering keys >= key onto dst and
// returns the extended slice — the allocation-free variant for callers that
// recycle a scratch buffer.
func (n Internal) AppendChildrenFrom(dst []transport.Addr, key uint64) []transport.Addr {
	cnt := n.Count()
	_, i := n.ChildFor(key)
	if i < 0 {
		dst = append(dst, n.Leftmost())
		i = 0
	} else {
		dst = append(dst, n.ChildAt(i))
		i++
	}
	for ; i < cnt; i++ {
		dst = append(dst, n.ChildAt(i))
	}
	return dst
}

// Insert adds (key, child) keeping separators sorted. Returns false when the
// node is full; duplicate keys overwrite the child pointer (idempotent
// retry of a parent update).
func (n Internal) Insert(key uint64, child transport.Addr) bool {
	cnt := n.Count()
	i := sort.Search(cnt, func(i int) bool { return n.KeyAt(i) >= key })
	if i < cnt && n.KeyAt(i) == key {
		n.setAt(i, key, child)
		return true
	}
	if cnt >= n.f.IntCap {
		return false
	}
	start := n.f.intEntryOff(i)
	end := n.f.intEntryOff(cnt)
	copy(n.B[start+n.f.IntEntSize:end+n.f.IntEntSize], n.B[start:end])
	n.setAt(i, key, child)
	n.setCount(cnt + 1)
	return true
}

// Separators returns all (key, child) pairs in order.
func (n Internal) Separators() []Sep {
	cnt := n.Count()
	out := make([]Sep, cnt)
	for i := 0; i < cnt; i++ {
		out[i] = Sep{Key: n.KeyAt(i), Child: n.ChildAt(i)}
	}
	return out
}

// Sep is one separator of an internal node.
type Sep struct {
	Key   uint64
	Child transport.Addr
}

// SetSeparators rewrites the node's separator array.
func (n Internal) SetSeparators(seps []Sep) {
	if len(seps) > n.f.IntCap {
		panic("layout: too many separators")
	}
	clear(n.B[n.f.intEntryOff(0):n.f.intEntryOff(n.f.IntCap)])
	for i, s := range seps {
		n.setAt(i, s.Key, s.Child)
	}
	n.setCount(len(seps))
}

// SplitInto moves the upper half of n's separators into right and returns
// the separator key to push up. right must be freshly initialized with n's
// level. Fences and sibling pointers are fixed up here; the caller persists
// both nodes and the parent update.
func (n Internal) SplitInto(right Internal, rightAddr transport.Addr) (sepKey uint64) {
	seps := n.Separators()
	mid := len(seps) / 2
	sepKey = seps[mid].Key
	// Right node: covers [sepKey, n.upper); its leftmost child is the child
	// of the median separator.
	right.SetLevel(n.Level())
	right.SetLowerFence(sepKey)
	right.SetUpperFence(n.UpperFence())
	right.SetSibling(n.Sibling())
	right.SetLeftmost(seps[mid].Child)
	right.SetSeparators(seps[mid+1:])
	// Left keeps [lower, sepKey).
	n.SetSeparators(seps[:mid])
	n.SetUpperFence(sepKey)
	n.SetSibling(rightAddr)
	return sepKey
}
