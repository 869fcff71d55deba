package main

import (
	"math/rand/v2"
	"time"

	"sherman"
	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/hocl"
	"sherman/internal/layout"
	"sherman/internal/transport"
)

// Probes measure one layer on its own, after the trace, on the deployment
// the trace ran on: the TCP and hocl probes after tcp-get-d1 (on its
// servers), the layout/cache/session/sim probes after sim-mixed-d8. Each is
// capped at probeCap and reports the median of the batches it managed.

const (
	probeCap   = time.Second
	probeBatch = 200
)

// probe runs fn in batches of probeBatch calls until probeCap/2 has passed
// (at least three batches) and returns the median ns per call.
func probe(fn func()) float64 {
	var per []float64
	start := nanotime()
	for len(per) < 3 || nanotime()-start < int64(probeCap/2) {
		t0 := nanotime()
		for i := 0; i < probeBatch; i++ {
			fn()
		}
		per = append(per, float64(nanotime()-t0)/probeBatch)
		if nanotime()-start > int64(probeCap) {
			break
		}
	}
	_, med, _ := quartiles(per)
	return med
}

// genProbe measures the generator's own cost per operation, to subtract.
func genProbe(sp spec, seed uint64, r *report) {
	g := newGenerators(sp, seed)[0]
	r.set("host.gen_ns_per_op", probe(func() { g.next() }))
}

// tcpProbes time raw verbs over the launched servers, outside the tree: the
// round trip a verb costs with nothing of core, cache or hocl around it.
func tcpProbes(sys *system, r *report) {
	c := sys.be.NewTransport(0)
	node := make([]byte, layout.DefaultFormat(layout.TwoLevel).NodeSize)
	root, _ := cluster.ReadRoot(c)
	scratch := sys.be.NewBulk().Alloc(len(node)) // a fresh chunk nothing else addresses

	r.set("tcp.probe_read_rtt_us_d1", probe(func() { c.Read(root, node) })/1e3)

	av := c.(transport.AsyncVerbs)
	const depth = 8
	bufs := make([][]byte, depth)
	for i := range bufs {
		bufs[i] = make([]byte, len(node))
	}
	var pend [depth]transport.Pending
	r.set("tcp.probe_read_us_d8", probe(func() {
		for i := range pend {
			pend[i] = av.ReadAsync(root, bufs[i])
		}
		for _, p := range pend {
			av.Await(p)
		}
	})/depth/1e3)

	r.set("tcp.probe_cas_rtt_us", probe(func() { c.CAS(scratch, 0, 0) })/1e3)

	// The shape of a put's commit doorbell: one leaf entry, then the lock
	// release.
	entry, release := make([]byte, 18), make([]byte, 2)
	r.set("tcp.probe_postwrites_rtt_us", probe(func() {
		c.PostWrites(transport.WriteOp{Addr: scratch, Data: entry}, transport.WriteOp{Addr: scratch.Add(64), Data: release})
	})/1e3)

	// A second manager over the same lock words is safe: the tree is idle.
	m := sys.be.NewLockManager(hocl.Config{Mode: hocl.Sherman()})
	r.set("hocl.uncontended_lock_us", probe(func() {
		g := m.Lock(c, scratch)
		m.Unlock(c, g, nil, true)
	})/1e3)
}

// simProbes time the pure-CPU layers and the simulator's own verb cost.
func simProbes(sys *system, seed uint64, r *report) {
	rng := rand.New(rand.NewPCG(seed, 0x51))
	f := layout.DefaultFormat(layout.TwoLevel)

	// layout: Leaf.Find hitting a key of a default-format leaf at 0.8 fill.
	leaf := layout.NewLeaf(f, 0, layout.NoUpperBound)
	fill := f.LeafCap * 8 / 10
	kvs := make([]layout.KV, fill)
	for i := range kvs {
		kvs[i] = layout.KV{Key: uint64(i + 1), Value: 1}
	}
	leaf.SetEntries(kvs)
	r.set("layout.leaf_find_ns", probe(func() { leaf.Find(rng.Uint64N(uint64(fill)) + 1) }))

	// cache: Deepest over the level-1 entries the trace left in CS 0's cache.
	ic := sys.ctree.Cache(0)
	r.set("cache.deepest_ns", probe(func() { ic.Deepest(rng.Uint64N(loadedKeys())+1, 1, 2) }))

	// sim: the host cost of one simulated 1 KB read.
	c := sys.be.NewTransport(0)
	root, _ := cluster.ReadRoot(c)
	node := make([]byte, f.NodeSize)
	r.set("sim.probe_read_host_ns", probe(func() { c.Read(root, node) }))

	r.set("session.overhead_ns", sessionOverhead(rng))
}

// sessionOverhead is what sherman.Session adds over the core.Async it
// wraps: Submit+Wait against SubmitOp+Wait on two identical small cached
// simulator trees, in interleaved batches so drift hits both alike.
func sessionOverhead(rng *rand.Rand) float64 {
	const keys = 100_000
	kvs := make([]layout.KV, keys)
	for i := range kvs {
		kvs[i] = layout.KV{Key: uint64(i + 1), Value: uint64(i + 1)}
	}
	cl, err := sherman.NewCluster(sherman.ClusterConfig{MemoryServers: memoryServers, ComputeServers: 1})
	if err != nil {
		fatalf("session probe: %v", err)
	}
	tree, err := cl.CreateTree(sherman.DefaultTreeOptions())
	if err == nil {
		err = tree.Bulkload(kvs)
	}
	if err != nil {
		fatalf("session probe: %v", err)
	}
	sess, err := tree.SessionAt(0)
	if err != nil {
		fatalf("session probe: %v", err)
	}
	ct := core.New(cluster.New(cluster.Config{NumMS: memoryServers, NumCS: 1}), core.ShermanConfig())
	ct.Bulkload(kvs)
	a := ct.NewHandle(0, 1).NewAsync(1)

	var viaSession, viaCore []float64
	const batch = 10_000
	for round := 0; round < 8; round++ {
		t0 := nanotime()
		for i := 0; i < batch; i++ {
			sess.Submit(sherman.GetOp(rng.Uint64N(keys) + 1)).Wait()
		}
		t1 := nanotime()
		for i := 0; i < batch; i++ {
			a.SubmitOp(coreOp(op{kind: kGet, key: rng.Uint64N(keys) + 1})).Wait()
		}
		t2 := nanotime()
		if round > 0 { // the first round fills both caches
			viaSession = append(viaSession, float64(t1-t0)/batch)
			viaCore = append(viaCore, float64(t2-t1)/batch)
		}
	}
	_, session, _ := quartiles(viaSession)
	_, bare, _ := quartiles(viaCore)
	return session - bare
}
