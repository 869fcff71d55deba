package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"sherman/internal/alloc"
	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/rdma"
	"sherman/internal/testutil"
	"sherman/internal/transport/tcp"
)

// bulkGolden pins the raw image Bulkload leaves in memory: a SHA-256 over a
// depth-first walk of every reachable node's address and bytes, on two
// memory servers, for keys 1..keys with testutil.BulkValue values. The
// hashes were recorded while Bulkload still wrote one node per round trip,
// so any change to placement, layout or what a slab slot holds when it is
// shipped shows here. Per configuration the rows are: empty, one key, the
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
	{"Sherman", 2044, 255, "0087cbfe069f15dac874c55bbc1fd387b138faefc7d901e641579d3ec8c13acd"},
	{"Sherman", 2053, 256, "ddcff44719be807a461491da7187d43d0cb3e939f5e815eb55f0561731043a8f"},
	{"Sherman", 2062, 257, "ce1f87284564b8e777719aab60bb66507127a9bfb30ee23a8384f3e5f8647f05"},
	{"Sherman", 200000, 24696, "ab989d4f76c31b807990db815bc808fdf95f65d946668e22d35ded05af742571"},
	{"FG+", 0, 1, "b93d73006ff314eb050c094580f823bbabd8f4663525eab24ba984029e18b78f"},
	{"FG+", 1, 1, "9883a1386913e26c926c8de23c675de7804d0b97e931cd8b681972e4d8a5097c"},
	{"FG+", 10, 1, "6390eb37df0294a504636065c7679c78e23b0ee5708c93ddbaff460eee956e51"},
	{"FG+", 2271, 255, "bbd41ee9f19609b2079fe78a7417c80338089b14c2ce5c9469e4c0de0dbaf290"},
	{"FG+", 2281, 256, "4fa79b04b0f7061c138663a1b90481c9c049799f38e409e069539b016a12f0fb"},
	{"FG+", 2291, 257, "126ffb6982abc8fc515195542bb387ece7f377e3a0e4b4872942f1e64e324167"},
	{"FG+", 200000, 22223, "2cd48637abe46cfbb798a99df7dc8d88b98d4c085f210445f507d35026e4504c"},
}

// imageHash walks the tree depth-first from the superblock root and hashes
// each node's address and raw bytes, returning the digest and node count.
func imageHash(be core.Backend, f layout.Format) (string, int) {
	h := sha256.New()
	nodes := 0
	var visit func(a rdma.Addr, b []byte)
	visit = func(a rdma.Addr, b []byte) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(a)))
		h.Write(b)
		nodes++
		n := layout.ViewNode(f, b)
		if n.IsLeaf() {
			return
		}
		in := layout.AsInternal(n)
		kids := []rdma.ReadOp{{Addr: in.Leftmost()}}
		for _, s := range in.Separators() {
			kids = append(kids, rdma.ReadOp{Addr: s.Child})
		}
		for i := range kids {
			kids[i].Buf = make([]byte, f.NodeSize)
		}
		be.RawRead(kids...)
		for _, k := range kids {
			visit(k.Addr, k.Buf)
		}
	}
	root, _ := be.RawRoot()
	rb := make([]byte, f.NodeSize)
	be.RawRead(rdma.ReadOp{Addr: root, Buf: rb})
	visit(root, rb)
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
			for off := uint64(0); off < rdma.DefaultChunkSize; off += piece {
				be.RawRead(rdma.ReadOp{Addr: ck.ChunkBase().Add(off), Buf: primary},
					rdma.ReadOp{Addr: ts.Bases[0].Add(off), Buf: replica})
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

// bulkSetup builds a two-server simulated cluster holding an empty tree of
// the default configuration (1 KiB nodes) and keys 1..n to load into it.
func bulkSetup(n int) (*cluster.Cluster, *core.Tree, []layout.KV) {
	cl := cluster.New(cluster.Config{NumMS: 2, NumCS: 1})
	return cl, core.New(cl, core.ShermanConfig()), bulkKVs(n)
}

// bulkHeap runs load and returns the heap bytes it allocated beyond the
// memory servers' own chunk growth.
func bulkHeap(cl *cluster.Cluster, load func()) uint64 {
	chunks := cl.AllocStats.Chunks.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	load()
	runtime.ReadMemStats(&m1)
	grown := uint64(cl.AllocStats.Chunks.Load()-chunks) * rdma.DefaultChunkSize
	return m1.TotalAlloc - m0.TotalAlloc - grown
}

func nodeCount(tr *core.Tree) int {
	st := tr.Stats()
	return st.LeafNodes + st.InternalNodes
}

// TestBulkloadAllocs pins the slab: building a 200k-key tree allocates one
// slab plus a few words per node (address and fence lists), not a node
// buffer per node.
func TestBulkloadAllocs(t *testing.T) {
	cl, tr, kvs := bulkSetup(200000)
	got := bulkHeap(cl, func() { tr.Bulkload(kvs) })
	nodes := nodeCount(tr)
	slab := uint64(core.BulkSlab * core.ShermanConfig().Format.NodeSize)
	if limit := slab + 64*uint64(nodes); got > limit {
		t.Fatalf("Bulkload of %d nodes allocated %d B, want at most %d (slab %d + 64 B/node)", nodes, got, limit, slab)
	}
	t.Logf("Bulkload of %d nodes: %d B allocated beyond chunk growth", nodes, got)
}

// bulkMidShare adds a 1000-leaf tree per configuration to bulkGolden, the
// last leaf partial: at 2, 4 and 8 workers the first worker's run ends in
// the middle of its slab share, so its last wave is partial and the next
// worker's first leaf is built in another share at the same moment. The
// hashes were recorded with the one-goroutine build.
var bulkMidShare = []struct {
	cfg   string
	keys  int
	nodes int
	hash  string
}{
	{"Sherman", 8995, 1111, "12ac8415779e85e3b33a7262a8a9bd27b1db12a80d40951ad7ad09f41575557f"},
	{"FG+", 9994, 1111, "29457f7a254461e61630553a21c876f74a4d6fcf78fd82095de0393eac6e9137"},
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
