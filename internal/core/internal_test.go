package core

// White-box tests that need raw access to node memory (rawRoot, readRaw).
// Everything that drives the tree through its exported surface lives in the
// core_test package on the shared internal/testutil harness.

import (
	"testing"

	"sherman/internal/cluster"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

func internalConfigs() []Config {
	sherman := ShermanConfig()
	sherman.Format = layout.NewFormat(layout.TwoLevel, 8, 256)
	fg := FGPlusConfig()
	fg.Format = layout.NewFormat(layout.Checksum, 8, 256)
	return []Config{sherman, fg}
}

// TestTornNodeDetected injects a physically torn node image and checks the
// read path retries rather than returning garbage: we corrupt, verify the
// consistency check fails, then repair.
func TestTornNodeDetected(t *testing.T) {
	for _, cfg := range internalConfigs() {
		cl := cluster.New(cluster.Config{NumMS: 1, NumCS: 1})
		tr := New(cl, cfg)
		h := tr.NewHandle(0, 0)
		for k := uint64(1); k <= 50; k++ {
			h.Insert(k, k)
		}
		root, _ := tr.rawRoot()

		// Snapshot the node, then simulate a half-applied write: bump the
		// front version / flip a byte without updating the tail.
		buf := make([]byte, cfg.Format.NodeSize)
		cl.RawRead(transport.ReadOp{Addr: root, Buf: buf})
		n := layout.ViewNode(cfg.Format, buf)
		if !n.Consistent() {
			t.Fatalf("%s: clean node reports inconsistent", cfg.Name())
		}
		if cfg.Format.Mode == layout.TwoLevel {
			buf[0]++ // front node version without rear
		} else {
			buf[40] ^= 0xff // payload byte without checksum update
		}
		if n.Consistent() {
			t.Fatalf("%s: torn node passed the consistency check", cfg.Name())
		}
	}
}

// TestCompactFreesOldNodes checks the old root carries a cleared alive bit
// after Compact, so stale steering fails validation and retraverses
// (§4.2.4).
func TestCompactFreesOldNodes(t *testing.T) {
	cfg := internalConfigs()[0]
	cl := cluster.New(cluster.Config{NumMS: 1, NumCS: 1})
	tr := New(cl, cfg)
	h := tr.NewHandle(0, 0)
	for k := uint64(1); k <= 3000; k++ {
		h.Insert(k, k)
	}
	oldRoot, _ := tr.rawRoot()
	tr.Compact()

	buf := make([]byte, cfg.Format.NodeSize)
	cl.RawRead(transport.ReadOp{Addr: oldRoot, Buf: buf})
	if layout.ViewNode(cfg.Format, buf).Alive() {
		t.Error("old root still marked alive after compact")
	}
}

// TestConflicts tabulates the pipeline's ordering contract: which later
// operation must order after which outstanding earlier one.
func TestConflicts(t *testing.T) {
	get := func(k uint64) Op { return Op{Kind: stats.OpLookup, Key: k} }
	put := func(k uint64) Op { return Op{Kind: stats.OpInsert, Key: k, Value: 1} }
	del := func(k uint64) Op { return Op{Kind: stats.OpDelete, Key: k} }
	scan := func(k uint64) Op { return Op{Kind: stats.OpRange, Key: k, Span: 10} }
	for _, c := range []struct {
		name           string
		earlier, later Op
		want           bool
	}{
		{"read/read same key", get(5), get(5), false},
		{"read after write, same key", put(5), get(5), true},
		{"read after delete, same key", del(5), get(5), true},
		{"read after write, other key", put(5), get(6), false},
		{"write after read, same key", get(5), put(5), true},
		{"write after read, other key", get(5), put(6), false},
		{"write/write same key", put(5), del(5), true},
		{"write/write other key", put(5), put(6), false},
		{"scan after write", put(5), scan(900), true},
		{"write after scan", scan(900), del(5), true},
		{"scan after read", get(5), scan(1), false},
		{"read after scan", scan(1), get(5), false},
		{"scan/scan", scan(1), scan(700), true},
	} {
		if got := conflicts(c.earlier, c.later); got != c.want {
			t.Errorf("%s: conflicts(%+v, %+v) = %v, want %v", c.name, c.earlier, c.later, got, c.want)
		}
	}
}
