// Package layout defines the on-wire binary formats of tree nodes (Figures
// 4 and 8 of the paper) and in-place views over node buffers.
//
// Two consistency modes are implemented:
//
//   - TwoLevel (Sherman, §4.4): unsorted leaves whose entries each carry a
//     pair of 4-bit entry versions (FEV/REV), plus a pair of 4-bit node
//     versions (FNV/RNV) at the node's first and last byte. Insertions and
//     deletions without structural changes write back only the touched
//     entry; splits/merges bump node versions and write the whole node.
//   - Checksum (FG/FG+, §3.2.3): sorted nodes protected by a CRC64 covering
//     the whole node, recomputed on every modification and verified on every
//     lock-free read — the coarse-grained scheme whose write amplification
//     Sherman eliminates.
//
// All views operate on client-local copies of node buffers; RDMA verbs move
// the raw bytes.
package layout

import (
	"fmt"
	"sync"
)

// Mode selects the consistency-check mechanism and node layout.
type Mode int

// Layout modes.
const (
	// TwoLevel is Sherman's unsorted-leaf, entry+node version layout.
	TwoLevel Mode = iota
	// Checksum is the FG-style sorted layout with a whole-node CRC64.
	Checksum
)

// String names the mode.
func (m Mode) String() string {
	if m == Checksum {
		return "checksum"
	}
	return "two-level"
}

// Header layout shared by all nodes. The first byte is FNV so that the
// front node version is in the first DMA line and the rear version (last
// byte) in the last line, giving the torn-write detection window of §4.4.
const (
	offFNV    = 0  // 1 B: front node version (TwoLevel) / unused (Checksum)
	offAlive  = 1  // 1 B: 1 = allocated, 0 = freed (§4.2.4 free bit)
	offLevel  = 2  // 1 B: node level; leaves are level 0
	offLower  = 4  // 8 B: inclusive lower fence key
	offUpper  = 12 // 8 B: exclusive upper fence key (MaxUint64 = +inf)
	offSib    = 20 // 8 B: right-sibling pointer (B-link, §4.2.1)
	headerEnd = 28
)

// checksum-mode extras: the CRC sits right after the shared header and is
// excluded from its own coverage.
const (
	offChecksum   = headerEnd // 8 B (Checksum mode only)
	checksumBody  = offChecksum + 8
	offCountCksum = checksumBody // 2 B entry count (Checksum mode)
)

// two-level-mode extras for internal nodes (leaves have no count field —
// they are unsorted and scanned).
const offCountTL = headerEnd // 2 B entry count (TwoLevel internal)

// NoUpperBound is the exclusive upper fence of the right-most node at each
// level.
const NoUpperBound = ^uint64(0)

// AliveOffset is the byte offset of the allocation ("free") bit within a
// node, exported so deallocation can clear it with a 1-byte RDMA_WRITE
// (§4.2.4).
const AliveOffset = offAlive

// Format captures the node geometry of one tree. Build it with NewFormat,
// NewFormatFixedCap or DefaultFormat and do not change its fields after:
// views read the geometry interned when it was built.
type Format struct {
	Mode Mode
	// KeySize is the wire size of a key in bytes (>= 8; the logical key is
	// always a uint64, larger sizes are padding — see DESIGN.md §5). The
	// paper's default is 8.
	KeySize int
	// ValueSize is the wire size of a value (8 in the paper).
	ValueSize int
	// NodeSize is the full node size in bytes (1 KB in the paper, §5.1.3).
	NodeSize int

	// Derived geometry.
	LeafCap     int // max entries per leaf
	IntCap      int // max separator keys per internal node
	LeafEntSize int // bytes per leaf entry (incl. FEV/REV in TwoLevel mode)
	IntEntSize  int // bytes per internal entry (key + child pointer)

	// shared is the interned copy of this geometry that views point at:
	// NewFormat sets it, so every copy of a Format carries it and building
	// a view costs neither a lookup nor an allocation.
	shared *Format
}

// interned holds one immutable Format per distinct geometry.
var interned struct {
	sync.Mutex
	m map[Format]*Format
}

// intern returns the shared copy of f's geometry, creating it on first use.
// The shared copy points at itself and is never written after.
func intern(f Format) *Format {
	f.shared = nil
	interned.Lock()
	defer interned.Unlock()
	if p, ok := interned.m[f]; ok {
		return p
	}
	if interned.m == nil {
		interned.m = make(map[Format]*Format)
	}
	p := new(Format)
	*p = f
	p.shared = p
	interned.m[f] = p
	return p
}

// NewFormat derives a format from mode, key size and node size.
func NewFormat(mode Mode, keySize, nodeSize int) Format {
	f := Format{Mode: mode, KeySize: keySize, ValueSize: 8, NodeSize: nodeSize}
	if keySize < 8 {
		panic(fmt.Sprintf("layout: key size %d below 8", keySize))
	}
	f.IntEntSize = keySize + 8
	switch mode {
	case TwoLevel:
		// Leaf: header | entries | RNV. Entry: FEV | key | value | REV.
		f.LeafEntSize = 1 + keySize + f.ValueSize + 1
		f.LeafCap = (nodeSize - headerEnd - 1) / f.LeafEntSize
		// Internal: header | count(2) | leftmost(8) | entries | RNV.
		f.IntCap = (nodeSize - headerEnd - 2 - 8 - 1) / f.IntEntSize
	case Checksum:
		// Leaf: header | crc(8) | count(2) | entries.
		f.LeafEntSize = keySize + f.ValueSize
		f.LeafCap = (nodeSize - offCountCksum - 2) / f.LeafEntSize
		// Internal: header | crc(8) | count(2) | leftmost(8) | entries.
		f.IntCap = (nodeSize - offCountCksum - 2 - 8) / f.IntEntSize
	default:
		panic(fmt.Sprintf("layout: unknown mode %d", mode))
	}
	if f.LeafCap < 2 || f.IntCap < 2 {
		panic(fmt.Sprintf("layout: node size %d too small for key size %d", nodeSize, keySize))
	}
	f.shared = intern(f)
	return f
}

// NewFormatFixedCap derives a format with exactly `entries` slots per leaf by
// growing the node size, as the key-size sensitivity experiment does
// (§5.6.1 fixes 32 entries per node while varying key size).
func NewFormatFixedCap(mode Mode, keySize, entries int) Format {
	var need int
	switch mode {
	case TwoLevel:
		need = headerEnd + 1 + entries*(1+keySize+8+1)
	case Checksum:
		need = offCountCksum + 2 + entries*(keySize+8)
	}
	// Round up to 64 B so nodes stay line-aligned.
	need = (need + 63) &^ 63
	f := NewFormat(mode, keySize, need)
	// Clamp caps to exactly the requested entry count for apples-to-apples
	// comparisons across modes.
	if f.LeafCap > entries {
		f.LeafCap = entries
		f.shared = intern(f)
	}
	return f
}

// DefaultFormat is the paper's default geometry: 8-byte keys and values,
// 1 KB nodes.
func DefaultFormat(mode Mode) Format { return NewFormat(mode, 8, 1024) }

// leafEntryOff returns the buffer offset of leaf entry slot i.
func (f *Format) leafEntryOff(i int) int {
	switch f.Mode {
	case TwoLevel:
		return headerEnd + i*f.LeafEntSize
	default:
		return offCountCksum + 2 + i*f.LeafEntSize
	}
}

// intEntryOff returns the buffer offset of internal entry slot i.
func (f *Format) intEntryOff(i int) int {
	switch f.Mode {
	case TwoLevel:
		return offCountTL + 2 + 8 + i*f.IntEntSize
	default:
		return offCountCksum + 2 + 8 + i*f.IntEntSize
	}
}
