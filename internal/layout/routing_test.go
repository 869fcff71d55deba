package layout

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"

	"sherman/internal/transport"
)

// checkRouting compares every accessor of n's compact copy against n itself,
// on both fences and their neighbours, every separator and its neighbours,
// the key-space ends and a few random keys.
func checkRouting(t testing.TB, n Internal, rng *rand.Rand) {
	t.Helper()
	r := n.Compact(nil)
	if len(r.B) != n.CompactLen() {
		t.Fatalf("copy is %d bytes, CompactLen says %d", len(r.B), n.CompactLen())
	}
	if reused := n.Compact(make([]byte, 3, len(r.B)+5)); !slices.Equal(reused.B, r.B) {
		t.Fatal("encoding into a caller's buffer differs from a fresh one")
	}
	cnt := n.Count()
	if r.Level() != n.Level() || r.Count() != cnt || r.LowerFence() != n.LowerFence() ||
		r.UpperFence() != n.UpperFence() || r.child(0) != n.Leftmost() {
		t.Fatalf("header differs: level %d/%d count %d/%d fences [%d,%d)/[%d,%d) leftmost %v/%v",
			r.Level(), n.Level(), r.Count(), cnt, r.LowerFence(), r.UpperFence(),
			n.LowerFence(), n.UpperFence(), r.child(0), n.Leftmost())
	}
	for i := 0; i < cnt; i++ {
		if r.KeyAt(i) != n.KeyAt(i) || r.ChildAt(i) != n.ChildAt(i) {
			t.Fatalf("separator %d: copy has (%d, %v), node (%d, %v)", i, r.KeyAt(i), r.ChildAt(i), n.KeyAt(i), n.ChildAt(i))
		}
	}
	lo, hi := n.LowerFence(), n.UpperFence()
	probes := []uint64{0, 1, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, NoUpperBound}
	for i := 0; i < cnt; i++ {
		k := n.KeyAt(i)
		probes = append(probes, k-1, k, k+1)
	}
	for range 8 {
		probes = append(probes, rng.Uint64(), lo+rng.Uint64N(1<<16))
	}
	for _, k := range probes {
		if r.Covers(k) != n.Covers(k) {
			t.Fatalf("Covers(%d) = %v, node says %v", k, r.Covers(k), n.Covers(k))
		}
		gc, gi := r.ChildFor(k)
		wc, wi := n.ChildFor(k)
		if gc != wc || gi != wi {
			t.Fatalf("ChildFor(%d) = %v,%d, node says %v,%d", k, gc, gi, wc, wi)
		}
		if got, want := r.AppendChildrenFrom(nil, k), n.AppendChildrenFrom(nil, k); !slices.Equal(got, want) {
			t.Fatalf("AppendChildrenFrom(%d) = %v, node says %v", k, got, want)
		}
	}
}

// randInternal builds an internal node with cnt separators drawn from
// [lower, lower+span) — dense at small spans, scattered over the key space
// at large ones — and children spread over nchunks chunks, on memory servers
// up to the 15-bit maximum, at offsets aligned to 2^align bytes.
func randInternal(rng *rand.Rand, f Format, cnt int, span uint64, nchunks int, align uint) Internal {
	lower := rng.Uint64N(^uint64(0) - span)
	upper := lower + span
	if rng.IntN(3) == 0 {
		upper = NoUpperBound
	}
	n := NewInternal(f, uint8(1+rng.IntN(4)), lower, upper)
	chunks := make([]transport.Addr, nchunks)
	for i := range chunks {
		ms := uint16(rng.IntN(0x8000))
		if i == 0 {
			ms = 0x7fff
		}
		chunks[i] = transport.MakeAddr(ms, rng.Uint64N(1<<(48-chunkShift))<<chunkShift)
	}
	addr := func() transport.Addr {
		off := rng.Uint64N(transport.DefaultChunkSize) >> align << align
		return chunks[rng.IntN(nchunks)] | transport.Addr(off)
	}
	n.SetLeftmost(addr())
	keys := make([]uint64, 0, cnt)
	for range cnt {
		keys = append(keys, lower+1+rng.Uint64N(span-1))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	seps := make([]Sep, len(keys))
	for i, k := range keys {
		seps[i] = Sep{Key: k, Child: addr()}
	}
	n.SetSeparators(seps)
	return n
}

// TestRoutingCopyProperty: over random internal nodes of both formats at
// 256 B and 1 KiB, key spans from dense to the full 64 bits, and children
// in 1…N chunks, the compact copy answers every routing question exactly as
// the node does.
func TestRoutingCopyProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 1))
	for _, f := range []Format{
		NewFormat(TwoLevel, 8, 256), NewFormat(Checksum, 8, 256),
		DefaultFormat(TwoLevel), DefaultFormat(Checksum),
	} {
		for _, span := range []uint64{uint64(f.IntCap) + 2, 1 << 12, 1 << 24, 1 << 40, ^uint64(0) - 1} {
			for nchunks := 1; nchunks <= f.IntCap+1; nchunks += 1 + nchunks/2 {
				for _, align := range []uint{0, 6, 10, chunkShift} {
					cnt := rng.IntN(f.IntCap + 1)
					checkRouting(t, randInternal(rng, f, cnt, span, nchunks, align), rng)
				}
			}
		}
		// The empty node and the full one.
		checkRouting(t, randInternal(rng, f, 0, 2, 1, 10), rng)
		checkRouting(t, randInternal(rng, f, f.IntCap, 1<<20, 3, 10), rng)
	}
}

// TestRoutingCopySize pins the compact copy of a bulkloaded 1 KiB level-1
// node — 48 children 44 keys apart, striped over 2 servers in 4 chunks — at
// no more than 280 B, against the 790 B its full-width separator array
// takes.
func TestRoutingCopySize(t *testing.T) {
	if 1<<chunkShift != transport.DefaultChunkSize {
		t.Fatalf("chunkShift %d does not match the %d-byte chunk", chunkShift, transport.DefaultChunkSize)
	}
	f := DefaultFormat(TwoLevel)
	const children, gap = 48, 44
	lower := uint64(5_000_000)
	n := NewInternal(f, 1, lower, lower+children*gap)
	// Each server's run of leaves starts 10 nodes before a chunk boundary.
	leaf := func(j int) transport.Addr {
		return transport.MakeAddr(uint16(j%2), 3*transport.DefaultChunkSize-10*1024+uint64(j/2)*1024)
	}
	n.SetLeftmost(leaf(0))
	seps := make([]Sep, children-1)
	for i := range seps {
		seps[i] = Sep{Key: lower + uint64(i+1)*gap, Child: leaf(i + 1)}
	}
	n.SetSeparators(seps)
	r := n.Compact(nil)
	if r.Chunks() != 4 {
		t.Fatalf("children span %d chunks, want 4", r.Chunks())
	}
	if full := f.intEntryOff(n.Count()); full != 790 || len(r.B) > 280 {
		t.Fatalf("compact copy is %d B (full-width %d B), want <= 280", len(r.B), full)
	}
	checkRouting(t, n, rand.New(rand.NewPCG(1, 2)))
}

// FuzzRoutingCopy decodes the fuzz input into a valid internal node — sorted
// separators inside its fences, children over a small palette of chunks —
// and checks that its compact copy answers every accessor as the node does.
func FuzzRoutingCopy(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 5, 12})
	f.Add([]byte{3, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 40, 1, 60, 7, 9, 200, 3, 3, 3, 3})
	f.Add([]byte{1, 0x82, 1, 2, 3, 4, 5, 6, 7, 8, 61, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		mode := Mode(in.byte() & 1)
		fm := NewFormat(mode, 8, 256<<(2*(in.byte()&1)))
		hdr := in.byte()
		lower := in.u64()
		// Separator gaps are 1 + a draw scaled by up to 2^63: dense keys at
		// small scales, the whole key space at large ones.
		scale := uint(in.byte() % 64)
		cnt := int(in.byte()) % (fm.IntCap + 1)
		palette := make([]transport.Addr, 1+in.byte()%4)
		for i := range palette {
			ms := uint16(in.byte())<<7 | uint16(in.byte()&0x7f)
			palette[i] = transport.MakeAddr(ms, uint64(in.byte())<<chunkShift)
		}
		align := uint(in.byte() % (chunkShift + 1))
		child := func() transport.Addr {
			b := in.byte()
			off := uint64(in.byte())<<16 | uint64(in.byte())<<8 | uint64(in.byte())
			return palette[int(b)%len(palette)] | transport.Addr(off&chunkMask>>align<<align)
		}
		leftmost := child()
		seps := make([]Sep, 0, cnt)
		k := lower
		for range cnt {
			gap := 1 + uint64(in.byte())<<scale
			if k+gap <= k || k+gap == NoUpperBound {
				break
			}
			k += gap
			seps = append(seps, Sep{Key: k, Child: child()})
		}
		upper := NoUpperBound
		if extra := 1 + uint64(in.byte()); hdr&0x80 == 0 && k+extra > k {
			upper = k + extra
		}
		n := NewInternal(fm, 1+hdr%15, lower, upper)
		n.SetLeftmost(leftmost)
		n.SetSeparators(seps)
		checkRouting(t, n, rand.New(rand.NewPCG(lower, uint64(len(data)))))
	})
}

// fuzzInput hands out the fuzz bytes in order, zeros past the end.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = in.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}
