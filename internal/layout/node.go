package layout

import (
	"encoding/binary"
	"hash/crc64"

	"sherman/internal/rdma"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Node is an in-place view over one node buffer (a client-local copy of
// NodeSize bytes). Leaf and Internal embed it.
//
// A view is the buffer plus one pointer to its Format's shared, immutable
// geometry, 32 bytes: views are passed and returned by value on every
// accessor call, so they must stay small enough to travel in registers
// (TestViewSize). A copy of the 64-byte Format would be copied with them.
type Node struct {
	B []byte
	f *Format
}

// NewNodeBuf allocates a zeroed node buffer viewed as a Node.
func NewNodeBuf(f Format) Node { return Node{B: make([]byte, f.NodeSize), f: f.shared} }

// ViewNode wraps an existing buffer (len must equal f.NodeSize).
func ViewNode(f Format, b []byte) Node { return f.View(b) }

// View wraps an existing buffer (len must equal f.NodeSize). It is ViewNode
// for callers that hold the Format in place, and copies nothing.
func (f *Format) View(b []byte) Node {
	if len(b) != f.NodeSize {
		panic("layout: buffer size does not match format")
	}
	return Node{B: b, f: f.shared}
}

// Init stamps a fresh node: alive, given level and fences, nil sibling.
func (n Node) Init(level uint8, lower, upper uint64) {
	clear(n.B)
	n.SetAlive(true)
	n.SetLevel(level)
	n.SetLowerFence(lower)
	n.SetUpperFence(upper)
}

// Alive reports the allocation bit (§4.2.4: deallocation clears it; readers
// that fetch a freed node notice and retraverse).
func (n Node) Alive() bool { return n.B[offAlive] == 1 }

// SetAlive sets or clears the allocation bit.
func (n Node) SetAlive(v bool) {
	if v {
		n.B[offAlive] = 1
	} else {
		n.B[offAlive] = 0
	}
}

// Level returns the node's level; leaves are 0.
func (n Node) Level() uint8 { return n.B[offLevel] }

// SetLevel stores the node level.
func (n Node) SetLevel(l uint8) { n.B[offLevel] = l }

// IsLeaf reports whether the node is a leaf.
func (n Node) IsLeaf() bool { return n.Level() == 0 }

// LowerFence returns the inclusive lower bound of keys in this node.
func (n Node) LowerFence() uint64 { return binary.LittleEndian.Uint64(n.B[offLower:]) }

// SetLowerFence stores the lower fence.
func (n Node) SetLowerFence(k uint64) { binary.LittleEndian.PutUint64(n.B[offLower:], k) }

// UpperFence returns the exclusive upper bound (NoUpperBound = +inf).
func (n Node) UpperFence() uint64 { return binary.LittleEndian.Uint64(n.B[offUpper:]) }

// SetUpperFence stores the upper fence.
func (n Node) SetUpperFence(k uint64) { binary.LittleEndian.PutUint64(n.B[offUpper:], k) }

// Sibling returns the right-sibling pointer (B-link).
func (n Node) Sibling() rdma.Addr { return rdma.Addr(binary.LittleEndian.Uint64(n.B[offSib:])) }

// SetSibling stores the right-sibling pointer.
func (n Node) SetSibling(a rdma.Addr) { binary.LittleEndian.PutUint64(n.B[offSib:], uint64(a)) }

// Covers reports whether key falls inside the node's fence interval — the
// cache-validation check of §4.2.3.
func (n Node) Covers(key uint64) bool {
	return key >= n.LowerFence() && (n.UpperFence() == NoUpperBound || key < n.UpperFence())
}

// FNV returns the 4-bit front node version.
func (n Node) FNV() uint8 { return n.B[offFNV] & 0xF }

// RNV returns the 4-bit rear node version (last byte of the node).
func (n Node) RNV() uint8 { return n.B[n.f.NodeSize-1] & 0xF }

// BumpNodeVersions increments FNV and RNV together (called under the node's
// exclusive lock before a whole-node write-back, §4.4).
func (n Node) BumpNodeVersions() {
	v := (n.FNV() + 1) & 0xF
	n.B[offFNV] = v
	n.B[n.f.NodeSize-1] = v
}

// UpdateChecksum recomputes the whole-node CRC64 (Checksum mode). The CRC
// field itself is excluded from coverage.
func (n Node) UpdateChecksum() {
	binary.LittleEndian.PutUint64(n.B[offChecksum:], n.computeChecksum())
}

func (n Node) computeChecksum() uint64 {
	c := crc64.Checksum(n.B[:offChecksum], crcTable)
	return crc64.Update(c, crcTable, n.B[checksumBody:n.f.NodeSize])
}

// Consistent reports whether a lock-free read of this node observed a
// quiescent state: matching node versions in TwoLevel mode, a valid CRC in
// Checksum mode.
func (n Node) Consistent() bool {
	if n.f.Mode == Checksum {
		return binary.LittleEndian.Uint64(n.B[offChecksum:]) == n.computeChecksum()
	}
	return n.FNV() == n.RNV()
}

// key/value primitive codecs ------------------------------------------------

// putKey writes the logical key into a KeySize field (8 LE bytes + zero
// padding — larger key sizes only model wire volume).
func (n Node) putKey(off int, k uint64) {
	binary.LittleEndian.PutUint64(n.B[off:], k)
	if n.f.KeySize > 8 { // the default 8-byte key has no padding to clear
		clear(n.B[off+8 : off+n.f.KeySize])
	}
}

func (n Node) getKey(off int) uint64 { return binary.LittleEndian.Uint64(n.B[off:]) }

func (n Node) putU64(off int, v uint64) { binary.LittleEndian.PutUint64(n.B[off:], v) }
func (n Node) getU64(off int) uint64    { return binary.LittleEndian.Uint64(n.B[off:]) }

func (n Node) getU16(off int) int    { return int(binary.LittleEndian.Uint16(n.B[off:])) }
func (n Node) putU16(off int, v int) { binary.LittleEndian.PutUint16(n.B[off:], uint16(v)) }
