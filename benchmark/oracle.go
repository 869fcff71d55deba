package main

import (
	"fmt"
	"math/bits"

	"sherman/internal/layout"
)

// result is what one operation returned, on either client.
type result struct {
	value uint64
	found bool
	kvs   []layout.KV
	err   error
}

// oracle holds the store's invariants as code and checks every result
// against them. No workload deletes, keys 1..loaded are bulkloaded, and
// every value carries its key, so each reply can be judged on its own — no
// model of the other session's writes is needed.
type oracle struct {
	loaded uint64
	// fresh is a bitmap over the key space of the never-loaded keys this
	// session has put; the union over sessions gives the entry count the
	// tree must report after the window.
	fresh  []uint64
	failed int64
	first  string // the first violation, for the report
}

func newOracle() *oracle {
	return &oracle{loaded: loadedKeys(), fresh: make([]uint64, keySpace/64+1)}
}

func (o *oracle) fail(format string, args ...any) bool {
	o.failed++
	if o.first == "" {
		o.first = fmt.Sprintf(format, args...)
	}
	return false
}

// check judges one completed operation and reports whether it was correct.
func (o *oracle) check(p op, r result) bool {
	if r.err != nil {
		return o.fail("%s %d: %v", kindNames[p.kind], p.key, r.err)
	}
	switch p.kind {
	case kPut:
		if p.key > o.loaded {
			o.fresh[p.key/64] |= 1 << (p.key % 64)
		}
	case kGet:
		if !r.found {
			if p.key <= o.loaded {
				return o.fail("get %d: bulkloaded key not found", p.key)
			}
		} else if valueKey(r.value) != p.key {
			return o.fail("get %d: value %#x belongs to key %d", p.key, r.value, valueKey(r.value))
		}
	case kScan:
		return o.checkScan(p.key, r.kvs)
	}
	return true
}

// checkScan: results strictly ascending from `from`, every value naming its
// key, no bulkloaded key skipped (loaded keys are dense and never deleted),
// and scanSpan long unless the loaded keys ran out first.
func (o *oracle) checkScan(from uint64, kvs []layout.KV) bool {
	if len(kvs) > scanSpan {
		return o.fail("scan %d: %d results for span %d", from, len(kvs), scanSpan)
	}
	next := from // the smallest key the next result may have
	for i, kv := range kvs {
		if kv.Key < next {
			return o.fail("scan %d: result %d has key %d, want >= %d", from, i, kv.Key, next)
		}
		if next <= o.loaded && kv.Key != next {
			return o.fail("scan %d: bulkloaded key %d skipped (got %d)", from, next, kv.Key)
		}
		if valueKey(kv.Value) != kv.Key {
			return o.fail("scan %d: key %d carries value %#x of key %d", from, kv.Key, kv.Value, valueKey(kv.Value))
		}
		next = kv.Key + 1
	}
	if len(kvs) < scanSpan && next <= o.loaded {
		return o.fail("scan %d: %d results but bulkloaded key %d remains", from, len(kvs), next)
	}
	return true
}

// freshKeys counts the distinct never-loaded keys put by any of the
// sessions.
func freshKeys(os []*oracle) int {
	n := 0
	for w := range os[0].fresh {
		var u uint64
		for _, o := range os {
			u |= o.fresh[w]
		}
		n += bits.OnesCount64(u)
	}
	return n
}
