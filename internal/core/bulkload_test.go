package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"sherman/internal/alloc"
	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/testutil"
	"sherman/internal/transport"
	"sherman/internal/transport/tcp"
)

// bulkGolden pins the raw image Bulkload leaves in memory: a SHA-256 over a
// depth-first walk of every reachable node's address and bytes, on two
// memory servers, for keys 1..keys with testutil.BulkValue values. The
// hashes were recorded with each level-1 node's leaves placed as one run on
// one server, so any change to placement, layout or what a slab slot holds
// when it is shipped shows here. Per configuration the rows are: empty, one key, the
// most keys one leaf takes, core.BulkSlab-1 / BulkSlab / BulkSlab+1 nodes,
// and a 200k-key tree.
var bulkGolden = []struct {
	cfg   string
	keys  int
	nodes int
	hash  string
}{
	{"Sherman", 0, 1, "0d14a207a3df7c4210a5d4956ab92f3959c2ceb104e10454af6101b9378ba2a0"},
	{"Sherman", 1, 1, "82ac795c124f887dc7f9e8bdd0c57462ab12c6126d31521ee0c2c34a7898f176"},
	{"Sherman", 9, 1, "e6fedd63683719d839344d26d971a161668fc02d3442601e4c7654a8fd009951"},
	{"Sherman", 2044, 255, "c9a06060c708703ac004dfb52ad5f4071f7bce2af9f36b5acaab1bdbd43edbbf"},
	{"Sherman", 2053, 256, "5eef20df8545332fcbbcf5713ad8e363ef7a567999824687d631193b36acd34b"},
	{"Sherman", 2062, 257, "2f20ecc95748bb03b690030764facc67f4898de655a473d67d7dc126f5750c81"},
	{"Sherman", 200000, 24696, "a972738988c392b3f261128d1655cd1c3b0335e5132fefa6f94e516164587573"},
	{"FG+", 0, 1, "b93d73006ff314eb050c094580f823bbabd8f4663525eab24ba984029e18b78f"},
	{"FG+", 1, 1, "9883a1386913e26c926c8de23c675de7804d0b97e931cd8b681972e4d8a5097c"},
	{"FG+", 10, 1, "6390eb37df0294a504636065c7679c78e23b0ee5708c93ddbaff460eee956e51"},
	{"FG+", 2271, 255, "1e82c37181fd3499890a3697a593caa092ff0f532940a9b1a1a75e1ccdc88e9d"},
	{"FG+", 2281, 256, "3dce6b86fed82eac4104db43f7e8d6fc0dd0e92ea2295843d3bd898419e63a7b"},
	{"FG+", 2291, 257, "8b9c8b0d852e6ce450e40f8065cc09133e7a1f33b4e9a0e958c04581317cc086"},
	{"FG+", 200000, 22223, "11314020f3a20e77b5ef0c3de4332d9ad2f8fd281772b349f6276d4b33a0e449"},
}

// walkImage visits every node reachable from the superblock root
// depth-first, parents before children, with its address and raw bytes.
func walkImage(be core.Backend, f layout.Format, fn func(a transport.Addr, b []byte)) {
	var visit func(a transport.Addr, b []byte)
	visit = func(a transport.Addr, b []byte) {
		fn(a, b)
		n := layout.ViewNode(f, b)
		if n.IsLeaf() {
			return
		}
		kids := children(layout.AsInternal(n))
		ops := make([]transport.ReadOp, len(kids))
		for i := range ops {
			ops[i] = transport.ReadOp{Addr: kids[i], Buf: make([]byte, f.NodeSize)}
		}
		be.RawRead(ops...)
		for _, op := range ops {
			visit(op.Addr, op.Buf)
		}
	}
	root, _ := be.RawRoot()
	rb := make([]byte, f.NodeSize)
	be.RawRead(transport.ReadOp{Addr: root, Buf: rb})
	visit(root, rb)
}

// children lists an internal node's children, leftmost first.
func children(in layout.Internal) []transport.Addr {
	kids := []transport.Addr{in.Leftmost()}
	for _, s := range in.Separators() {
		kids = append(kids, s.Child)
	}
	return kids
}

// imageHash hashes each reachable node's address and raw bytes in
// walkImage's order, returning the digest and node count.
func imageHash(be core.Backend, f layout.Format) (string, int) {
	h := sha256.New()
	nodes := 0
	walkImage(be, f, func(a transport.Addr, b []byte) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(a)))
		h.Write(b)
		nodes++
	})
	return fmt.Sprintf("%x", h.Sum(nil)), nodes
}

func bulkKVs(n int) []layout.KV {
	kvs := make([]layout.KV, n)
	for i := range kvs {
		k := uint64(i + 1)
		kvs[i] = layout.KV{Key: k, Value: testutil.BulkValue(k)}
	}
	return kvs
}

// TestBulkloadImageGolden: both fabrics reproduce every recorded image hash,
// and the slab-boundary rows really sit at the slab boundary.
func TestBulkloadImageGolden(t *testing.T) {
	cfgs := map[string]core.Config{}
	for _, cfg := range testutil.Configs() {
		cfgs[cfg.Name()] = cfg
	}
	atSlab := map[string]int{}
	for _, g := range bulkGolden {
		if d := g.nodes - core.BulkSlab; d >= -1 && d <= 1 {
			atSlab[g.cfg]++
		}
		cfg := cfgs[g.cfg]
		for _, fab := range testutil.Fabrics() {
			if fab.Name == "tcp" && testing.Short() && g.keys > 10000 {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s/%d", g.cfg, fab.Name, g.keys), func(t *testing.T) {
				be, _ := fab.New(t, 2, 1, 0)
				tr := core.New(be, cfg)
				tr.Bulkload(bulkKVs(g.keys))
				if h, n := imageHash(be, cfg.Format); h != g.hash || n != g.nodes {
					t.Fatalf("image = %s over %d nodes, want %s over %d", h, n, g.hash, g.nodes)
				}
			})
		}
	}
	for name := range cfgs {
		if atSlab[name] != 3 {
			t.Errorf("%s: %d golden rows at BulkSlab±1 nodes, want 3", name, atSlab[name])
		}
	}
}

// TestBulkloadPlacement: on both fabrics, over 2 and 3 memory servers, a
// tree of ten level-1 nodes keeps each level-1 node's leaves on one server,
// and the servers' leaf counts differ by at most one run of a level-1 node's
// leaves.
func TestBulkloadPlacement(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		f := cfg.Format
		perInt := int(float64(f.IntCap) * 0.8)
		keys := 10 * perInt * int(float64(f.LeafCap)*0.8)
		for _, numMS := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/ms=%d", cfg.Name(), numMS), func(t *testing.T) {
				testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
					be, _ := fab.New(t, numMS, 1, 0)
					if err := core.New(be, cfg).Bulkload(bulkKVs(keys)); err != nil {
						t.Fatal(err)
					}
					parents, leaves := 0, make([]int, numMS)
					walkImage(be, f, func(a transport.Addr, b []byte) {
						n := layout.ViewNode(f, b)
						if n.Level() != 1 {
							return
						}
						parents++
						kids := children(layout.AsInternal(n))
						for _, c := range kids {
							if c.MS() != kids[0].MS() {
								t.Fatalf("level-1 node %v has children on ms%d and ms%d", a, kids[0].MS(), c.MS())
							}
						}
						leaves[kids[0].MS()] += len(kids)
					})
					if parents < 4 {
						t.Fatalf("%d level-1 nodes, want at least 4", parents)
					}
					if lo, hi := slices.Min(leaves), slices.Max(leaves); hi-lo > perInt {
						t.Fatalf("leaves per server %v differ by more than one run of %d", leaves, perInt)
					}
				})
			})
		}
	}
}

// TestLevel1Bytes: Stats' Level1Bytes is the sum of every level-1 node's
// compact routing copy, below the same nodes at full size, and smaller than
// it would be were each node's children striped across the servers at the
// same offsets.
func TestLevel1Bytes(t *testing.T) {
	cfg := core.ShermanConfig()
	f := cfg.Format
	testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
		const numMS = 3
		be, _ := fab.New(t, numMS, 1, 0)
		tr := core.New(be, cfg)
		if err := tr.Bulkload(bulkKVs(100000)); err != nil {
			t.Fatal(err)
		}
		var sum, full, striped int64
		walkImage(be, f, func(_ transport.Addr, b []byte) {
			in := layout.AsInternal(layout.ViewNode(f, b))
			if in.Level() != 1 {
				return
			}
			sum += int64(in.CompactLen())
			full += int64(f.NodeSize)
			in = layout.AsInternal(layout.ViewNode(f, slices.Clone(b))) // the walk reads b's children next
			seps := in.Separators()
			for j := range seps {
				seps[j].Child = transport.MakeAddr(uint16((j+1)%numMS), seps[j].Child.Off())
			}
			in.SetSeparators(seps)
			striped += int64(in.CompactLen())
		})
		got := tr.Stats().Level1Bytes
		if got != sum || got <= 0 || got >= full || got >= striped {
			t.Fatalf("Level1Bytes = %d; want the walk's sum %d, positive, below %d at full size and below %d striped",
				got, sum, full, striped)
		}
		t.Logf("level 1: %d B compact, %d B striped, %d B at full size", got, striped, full)
	})
}

// TestBulkloadReplicasMatchPrimary: under replication every registered
// chunk's replica is byte-equal to its primary once Bulkload returns, on
// both fabrics — a slab slot reused before its flush, or a mirror copy that
// missed a batch, shows as a differing byte.
func TestBulkloadReplicasMatchPrimary(t *testing.T) {
	cfg := testutil.Configs()[0]
	testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
		be, _ := fab.New(t, 3, 1, 2)
		tr := core.New(be, cfg)
		tr.Bulkload(bulkKVs(20000))
		// Every replicated chunk carries fewer than MaxReplicationFactor
		// complete copies, so this lists all of them.
		chunks := be.Replicas().UnderReplicated(alloc.MaxReplicationFactor + 1)
		if len(chunks) < 3 {
			t.Fatalf("%d replicated chunks, want one per server at least", len(chunks))
		}
		const piece = 64 << 10
		primary, replica := make([]byte, piece), make([]byte, piece)
		for _, ck := range chunks {
			var ts alloc.TargetSet
			if !be.Replicas().Targets(ck, &ts) || ts.N != 1 {
				t.Fatalf("chunk %v has %d replicas, want 1", ck, ts.N)
			}
			for off := uint64(0); off < transport.DefaultChunkSize; off += piece {
				be.RawRead(transport.ReadOp{Addr: ck.ChunkBase().Add(off), Buf: primary},
					transport.ReadOp{Addr: ts.Bases[0].Add(off), Buf: replica})
				if !bytes.Equal(primary, replica) {
					t.Fatalf("chunk %v differs from its replica %v in [%#x, +%d)", ck, ts.Bases[0], off, piece)
				}
			}
		}
	})
}

// TestBulkloadFramesTCP pins the bulk path's wire cost: a tree of K nodes
// leaves in at most K/8 request frames (slab-sized WriteBatch waves, plus
// chunk growth and the root pointer) where one frame per node was paid
// before.
func TestBulkloadFramesTCP(t *testing.T) {
	be, _ := testutil.TCP.New(t, 2, 1, 0)
	c := be.(*tcp.Cluster)
	cfg := core.ShermanConfig()
	tr := core.New(c, cfg)
	frames := func() (n int64) {
		for _, w := range c.WireStats() {
			n += w.Frames
		}
		return n
	}
	before := frames()
	tr.Bulkload(bulkKVs(200000))
	sent := frames() - before
	k := int64(nodeCount(tr))
	if sent > k/8 {
		t.Fatalf("Bulkload of %d nodes sent %d request frames, want at most %d", k, sent, k/8)
	}
	t.Logf("Bulkload of %d nodes: %d request frames", k, sent)
}

// bulkSetup builds a two-server deployment on fab holding an empty tree of
// the default configuration (1 KiB nodes) and keys 1..n to load into it.
func bulkSetup(tb testing.TB, fab testutil.Fabric, n int) (*core.Tree, []layout.KV) {
	be, _ := fab.New(tb, 2, 1, 0)
	return core.New(be, core.ShermanConfig()), bulkKVs(n)
}

// bulkHeap runs load and returns the heap bytes it allocated. The memory
// servers' chunks are mapped outside the heap, so their growth is not in it.
func bulkHeap(load func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	load()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

func nodeCount(tr *core.Tree) int {
	st := tr.Stats()
	return st.LeafNodes + st.InternalNodes
}

// rawWindow is the most raw-write data a TCP cluster keeps posted and
// unacknowledged: its raw window of 32 frames of at most 64 KiB each.
const rawWindow = 32 << 16

// TestBulkloadAllocs pins the slab and, over TCP, the raw window: building
// a 200k-key tree allocates one slab plus a few words per node (address and
// fence lists), not a node buffer per node, and over TCP, with the servers
// in this process, at most one raw window's worth of frame buffers on top,
// not a buffer for every wave posted.
func TestBulkloadAllocs(t *testing.T) {
	testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
		tr, kvs := bulkSetup(t, fab, 200000)
		got := bulkHeap(func() { tr.Bulkload(kvs) })
		nodes := nodeCount(tr)
		slab := uint64(core.BulkSlab * core.ShermanConfig().Format.NodeSize)
		limit := slab + 64*uint64(nodes)
		if fab.Name == "tcp" {
			limit += rawWindow
		}
		if got > limit {
			t.Fatalf("Bulkload of %d nodes allocated %d B, want at most %d (slab %d + 64 B/node, plus a raw window over TCP)", nodes, got, limit, slab)
		}
		t.Logf("Bulkload of %d nodes: %d B allocated", nodes, got)
	})
}

// bulkMidShare adds a 1000-leaf tree per configuration to bulkGolden, the
// last leaf partial: at 2, 4 and 8 workers the first worker's run ends in
// the middle of its slab share, so its last wave is partial and the next
// worker's first leaf is built in another share at the same moment. The
// hashes were recorded with the one-goroutine build and parent-grouped
// leaf placement.
var bulkMidShare = []struct {
	cfg   string
	keys  int
	nodes int
	hash  string
}{
	{"Sherman", 8995, 1111, "e18d09ef036e3ba0ddef79c71b621eff176756801b3f5ed6404f09495820ac13"},
	{"FG+", 9994, 1111, "5eed0fd828fb329d12d854b6abd06b6e4498290778a53731bb9ac0b1f25a1fc1"},
}

// TestBulkloadImageAnyWorkers: the image is the same at every worker count.
// At GOMAXPROCS 1, 2, 4 and 8 both fabrics reproduce bulkGolden's hashes and
// bulkMidShare's, whose worker splits are checked to fall mid-share.
func TestBulkloadImageAnyWorkers(t *testing.T) {
	cfgs := map[string]core.Config{}
	for _, cfg := range testutil.Configs() {
		cfgs[cfg.Name()] = cfg
	}
	rows := append(bulkGolden[:len(bulkGolden):len(bulkGolden)], bulkMidShare...)
	for _, procs := range []int{1, 2, 4, 8} {
		for _, g := range rows {
			cfg := cfgs[g.cfg]
			for _, fab := range testutil.Fabrics() {
				if fab.Name == "tcp" && testing.Short() && g.keys > 10000 {
					continue
				}
				t.Run(fmt.Sprintf("procs=%d/%s/%s/%d", procs, g.cfg, fab.Name, g.keys), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					be, _ := fab.New(t, 2, 1, 0)
					tr := core.New(be, cfg)
					if err := tr.Bulkload(bulkKVs(g.keys)); err != nil {
						t.Fatal(err)
					}
					if h, n := imageHash(be, cfg.Format); h != g.hash || n != g.nodes {
						t.Fatalf("image = %s over %d nodes, want %s over %d", h, n, g.hash, g.nodes)
					}
				})
			}
		}
	}
	// The mid-share rows: worker 0 of nw builds nLeaves/nw leaves in
	// slots/nw slots, which must not divide evenly.
	for _, g := range bulkMidShare {
		perLeaf := int(float64(cfgs[g.cfg].Format.LeafCap) * 0.8)
		nLeaves := (g.keys + perLeaf - 1) / perLeaf
		slots := min(core.BulkSlab, 2*nLeaves)
		for _, procs := range []int{2, 4, 8} {
			prev := runtime.GOMAXPROCS(procs)
			nw := core.BulkWorkers(nLeaves)
			runtime.GOMAXPROCS(prev)
			if nw != procs || (nLeaves/nw)%(slots/nw) == 0 {
				t.Errorf("%s/%d at GOMAXPROCS %d: %d workers, %d leaves each in %d slots; want %d workers and a partial last wave",
					g.cfg, g.keys, procs, nw, nLeaves/nw, slots/nw, procs)
			}
		}
	}
}
