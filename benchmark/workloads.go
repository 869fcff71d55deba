package main

import (
	"time"

	"sherman/internal/layout"
	"sherman/internal/workload"
)

// Sizes shared by every workload. The key space and the bulkloaded share
// are the paper's (§5.1.3: trees loaded 80 % full); values carry their key
// in the high bits so any value read back names the key it belongs to.
const (
	keySpace  = 2_000_000
	scanSpan  = 100
	valueBits = 20 // value = key<<valueBits | put sequence

	// fifoLen is the number of open futures a depth>1 session keeps before
	// it harvests the oldest (ISSUE: "a FIFO of 32 open futures").
	fifoLen = 32

	// A TCP window is cut into tcpSlices equal time slices after tcpWarm of
	// untimed load; the simulator runs simWarmOps untimed operations and is
	// then cut every simSliceOps operations until the window has elapsed.
	// Its count metrics (and virtual-time metrics) cover exactly the first
	// simCountSlices slices, so they repeat for a given seed however fast
	// the host is.
	tcpSlices      = 20
	tcpWarm        = 2 * time.Second
	simWarmOps     = 200_000
	simSliceOps    = 100_000
	simCountSlices = 20

	fabricTCP = "tcp"
	fabricSim = "sim"
)

// spec is one workload: names are fixed, later issues cite them.
type spec struct {
	name       string
	fabric     string
	sessions   int // one per compute server, never more than nproc
	depth      int
	mix        workload.Mix
	dist       workload.Dist
	cacheBytes int64 // 0 = the tree's default (fits level 1)
}

var specs = []spec{
	{name: "tcp-get-d1", fabric: fabricTCP, sessions: 1, depth: 1,
		mix: workload.ReadOnly, dist: workload.Uniform},
	{name: "tcp-put-zipf-d8", fabric: fabricTCP, sessions: 2, depth: 8,
		mix: workload.WriteOnly, dist: workload.Zipfian},
	{name: "tcp-mixed-cold-d1", fabric: fabricTCP, sessions: 2, depth: 1,
		mix: workload.Mix{LookupPct: 45, InsertPct: 45, RangePct: 10}, dist: workload.Uniform,
		cacheBytes: 256 << 10},
	{name: "sim-mixed-d8", fabric: fabricSim, sessions: 1, depth: 8,
		mix: workload.WriteIntensive, dist: workload.Zipfian},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) config() workload.Config {
	return workload.DefaultConfig(s.mix, s.dist, keySpace)
}

// loadedKeys is the number of bulkloaded keys: keys 1..loadedKeys.
func loadedKeys() uint64 {
	return workload.DefaultConfig(workload.ReadOnly, workload.Uniform, keySpace).LoadedKeys()
}

func encodeValue(key, seq uint64) uint64 { return key<<valueBits | seq&(1<<valueBits-1) }
func valueKey(v uint64) uint64           { return v >> valueBits }

// bulkKVs builds the bulkload input: every loaded key with sequence 0.
func bulkKVs() []layout.KV {
	kvs := make([]layout.KV, loadedKeys())
	for i := range kvs {
		k := uint64(i + 1)
		kvs[i] = layout.KV{Key: k, Value: encodeValue(k, 0)}
	}
	return kvs
}

type opKind uint8

const (
	kGet opKind = iota
	kPut
	kScan
	nKinds
)

var kindNames = [nKinds]string{"get", "put", "scan"}

// op is one generated operation; scans always ask for scanSpan pairs.
type op struct {
	kind  opKind
	key   uint64
	value uint64
}

// generator turns internal/workload's stream into this benchmark's ops. The
// program sees only the generated inputs; the seed stays here.
type generator struct {
	g   *workload.Generator
	seq uint64
}

// newGenerators builds one generator per session from the run seed; they
// share the Zipf tables.
func newGenerators(s spec, seed uint64) []*generator {
	base := workload.NewGenerator(s.config(), seed<<8)
	gens := []*generator{{g: base}}
	for i := 1; i < s.sessions; i++ {
		gens = append(gens, &generator{g: workload.NewGeneratorFrom(base, seed<<8+uint64(i))})
	}
	return gens
}

func (g *generator) next() op {
	w := g.g.Next()
	switch w.Kind {
	case workload.Insert:
		g.seq++
		return op{kind: kPut, key: w.Key, value: encodeValue(w.Key, g.seq)}
	case workload.Range:
		return op{kind: kScan, key: w.Key}
	default:
		return op{kind: kGet, key: w.Key}
	}
}
