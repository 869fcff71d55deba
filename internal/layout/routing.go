package layout

import (
	"encoding/binary"
	"math/bits"

	"sherman/internal/transport"
)

// Routing is the compact, read-only copy of an internal node that the index
// cache keeps: only what routes a key — level, fences, separators, children —
// with the separators and children prefix-truncated in the manner of Bayer &
// Unterauer's prefix B-trees. Each separator is stored as key − lowerFence;
// each child as its index in the copy's chunk table (the distinct 8 MB chunks
// its children live in) and its offset within that chunk, in the coarsest
// unit all the node's children share. Both fields are fixed-width per copy —
// the fewest whole bytes that hold the largest value — so lookups stay
// binary searches over fixed-stride fields and decode exactly.
//
// Layout:
//
//	0  level      1 B
//	1  sepW       1 B  bytes per separator
//	2  childW     1 B  bytes per child
//	3  shift      1 B  log2 of the offset unit (<= chunkShift)
//	4  count      2 B  separators
//	6  chunks     2 B  chunk-table entries
//	8  lower      8 B  lower fence
//	16 upper      8 B  upper fence
//	24 table      chunks × 8 B, each a chunk's base address
//	   children   (count+1) × childW, the leftmost first
//	   separators count × sepW
type Routing struct{ B []byte }

const (
	rtSepW, rtChildW, rtShift = 1, 2, 3
	rtCount, rtChunks         = 4, 6
	rtLower, rtUpper          = 8, 16
	rtTable                   = 24

	// chunkShift is log2(transport.DefaultChunkSize): a child's chunk is its
	// address with the low chunkShift bits cleared.
	chunkShift = 23
	chunkMask  = 1<<chunkShift - 1
)

// Level returns the node's level.
func (r Routing) Level() uint8 { return r.B[0] }

// Count returns the number of separator keys.
func (r Routing) Count() int { return int(binary.LittleEndian.Uint16(r.B[rtCount:])) }

// LowerFence returns the node's inclusive lower fence.
func (r Routing) LowerFence() uint64 { return binary.LittleEndian.Uint64(r.B[rtLower:]) }

// UpperFence returns the node's exclusive upper fence.
func (r Routing) UpperFence() uint64 { return binary.LittleEndian.Uint64(r.B[rtUpper:]) }

// Covers reports whether key falls inside the node's fence interval.
func (r Routing) Covers(key uint64) bool {
	upper := r.UpperFence()
	return key >= r.LowerFence() && (upper == NoUpperBound || key < upper)
}

// Chunks returns the number of distinct chunks the node's children live in.
func (r Routing) Chunks() int { return int(binary.LittleEndian.Uint16(r.B[rtChunks:])) }

// ChunkAt returns the base address of chunk-table entry i.
func (r Routing) ChunkAt(i int) transport.Addr {
	return transport.Addr(binary.LittleEndian.Uint64(r.B[rtTable+8*i:]))
}

func (r Routing) childOff() int { return rtTable + 8*r.Chunks() }

func (r Routing) sepOff() int { return r.childOff() + (r.Count()+1)*int(r.B[rtChildW]) }

// KeyAt returns separator key i.
func (r Routing) KeyAt(i int) uint64 {
	w := int(r.B[rtSepW])
	return r.LowerFence() + getUint(r.B, r.sepOff()+i*w, w)
}

// ChildAt returns the child pointer paired with separator key i.
func (r Routing) ChildAt(i int) transport.Addr { return r.child(i + 1) }

// child decodes entry j of the child list (0 is the leftmost).
func (r Routing) child(j int) transport.Addr {
	w, shift := int(r.B[rtChildW]), uint(r.B[rtShift])
	v := getUint(r.B, r.childOff()+j*w, w)
	offBits := chunkShift - shift
	off := (v & (1<<offBits - 1)) << shift
	return r.ChunkAt(int(v>>offBits)) | transport.Addr(off)
}

// ChildFor returns the child to descend into for key, plus the index of the
// separator chosen (-1 for leftmost) — exactly Internal.ChildFor's answer.
func (r Routing) ChildFor(key uint64) (transport.Addr, int) {
	i := r.search(key)
	return r.child(i), i - 1
}

// search returns the first separator strictly greater than key, probing
// in sort.Search's order so that it agrees with Internal.ChildFor on any
// separator array.
func (r Routing) search(key uint64) int {
	lower, w, off := r.LowerFence(), int(r.B[rtSepW]), r.sepOff()
	i, j := 0, r.Count()
	for i < j {
		h := int(uint(i+j) >> 1)
		if lower+getUint(r.B, off+h*w, w) <= key {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// AppendChildrenFrom appends the children covering keys >= key onto dst, in
// key order, and returns the extended slice.
func (r Routing) AppendChildrenFrom(dst []transport.Addr, key uint64) []transport.Addr {
	for j, n := r.search(key), r.Count(); j <= n; j++ {
		dst = append(dst, r.child(j))
	}
	return dst
}

// routingGeom is the per-node shape of a compact copy.
type routingGeom struct{ chunks, shift, sepW, childW int }

func (g routingGeom) size(cnt int) int {
	return rtTable + 8*g.chunks + (cnt+1)*g.childW + cnt*g.sepW
}

// child returns entry j of the node's child list (0 is the leftmost).
func (n Internal) child(j int) transport.Addr {
	if j == 0 {
		return n.Leftmost()
	}
	return n.ChildAt(j - 1)
}

// routingGeom measures the compact copy of n without building it. A child
// opens a new chunk-table entry unless an earlier child shares its chunk;
// the backward scan stops early on the common layouts, where siblings come
// from a few chunks.
func (n Internal) routingGeom() routingGeom {
	cnt, lower := n.Count(), n.LowerFence()
	var g routingGeom
	var maxSep, offs uint64
	for j := 0; j <= cnt; j++ {
		a := uint64(n.child(j))
		offs |= a & chunkMask
		seen := false
		for k := j - 1; k >= 0 && !seen; k-- {
			seen = (uint64(n.child(k))^a)&^chunkMask == 0
		}
		if !seen {
			g.chunks++
		}
		if j > 0 {
			maxSep = max(maxSep, n.KeyAt(j-1)-lower)
		}
	}
	g.shift = min(bits.TrailingZeros64(offs), chunkShift)
	g.sepW = byteWidth(maxSep)
	// A bound on the largest child value with the same width: the last
	// chunk index above the OR of all offsets (whose top bit is the largest
	// offset's). With two or more chunks the index holds the top bit, and
	// some child carries that index.
	g.childW = byteWidth(uint64(g.chunks-1)<<(chunkShift-g.shift) | offs>>g.shift)
	return g
}

// CompactLen returns the length of n's compact routing copy. It allocates
// nothing, so a cache can charge a copy before deciding to make it.
func (n Internal) CompactLen() int { return n.routingGeom().size(n.Count()) }

// Compact encodes n's compact routing copy into buf, which it allocates when
// buf's capacity is short of CompactLen, and returns it.
func (n Internal) Compact(buf []byte) Routing {
	g := n.routingGeom()
	cnt, lower := n.Count(), n.LowerFence()
	size := g.size(cnt)
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	b := buf[:size]
	b[0], b[rtSepW], b[rtChildW], b[rtShift] = n.Level(), byte(g.sepW), byte(g.childW), byte(g.shift)
	binary.LittleEndian.PutUint16(b[rtCount:], uint16(cnt))
	binary.LittleEndian.PutUint16(b[rtChunks:], uint16(g.chunks))
	binary.LittleEndian.PutUint64(b[rtLower:], lower)
	binary.LittleEndian.PutUint64(b[rtUpper:], n.UpperFence())
	r := Routing{B: b}
	childOff := rtTable + 8*g.chunks
	offBits := uint(chunkShift - g.shift)
	chunks := 0
	for j := 0; j <= cnt; j++ {
		a := uint64(n.child(j))
		base := a &^ chunkMask
		idx := 0
		for idx < chunks && uint64(r.ChunkAt(idx)) != base {
			idx++
		}
		if idx == chunks {
			binary.LittleEndian.PutUint64(b[rtTable+8*idx:], base)
			chunks++
		}
		putUint(b, childOff+j*g.childW, g.childW, uint64(idx)<<offBits|(a&chunkMask)>>g.shift)
	}
	sepOff := childOff + (cnt+1)*g.childW
	for i := 0; i < cnt; i++ {
		putUint(b, sepOff+i*g.sepW, g.sepW, n.KeyAt(i)-lower)
	}
	return r
}

// byteWidth returns the fewest whole bytes that hold v (0 for v == 0).
func byteWidth(v uint64) int { return (bits.Len64(v) + 7) / 8 }

// getUint reads a w-byte little-endian field at off: one 8-byte load when
// the buffer extends that far, byte by byte at its tail.
func getUint(b []byte, off, w int) uint64 {
	if off+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[off:]) & (^uint64(0) >> (64 - 8*w))
	}
	var v uint64
	for i := w - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[off+i])
	}
	return v
}

// putUint writes v's low w bytes little-endian at off.
func putUint(b []byte, off, w int, v uint64) {
	for i := 0; i < w; i++ {
		b[off+i] = byte(v >> (8 * i))
	}
}
