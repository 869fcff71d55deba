package sherman

import (
	"reflect"
	"strings"
	"testing"

	"sherman/internal/testutil"
)

// The Future contract: after its first Wait a future repeats its answers
// until the session's next Submit, which may reuse it. A future that was
// never waited is never reused, and poison mode turns a read past the
// lifetime into a panic.

// futureTree opens a small tree on c holding keys 1..16, each with value
// 10×key.
func futureTree(t *testing.T, c *Cluster, poison bool) *Tree {
	t.Helper()
	tree := testTree(t, c, TreeOptions{NodeSize: testutil.SmallNodeSize, LocksPerMS: 64, Poison: poison})
	kvs := make([]KV, 16)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i + 1), Value: uint64(10 * (i + 1))}
	}
	if err := tree.Bulkload(kvs); err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestFutureRepeatsUntilNextSubmit: futures waited out of submission order
// return the same Result and completion time on every Wait until the next
// Submit, and that Submit reuses a spent one.
func TestFutureRepeatsUntilNextSubmit(t *testing.T) {
	testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
		c, _ := fabricCluster(t, fab, 2, 1, 0)
		tree := futureTree(t, c, false)
		for _, depth := range []int{1, 8} {
			s := openSession(t, tree, 0, PipelineDepth(depth))
			put := s.Submit(PutOp(20, 200))
			get := s.Submit(GetOp(3))
			scan := s.Submit(ScanOp(15, 10))
			futures := []*Future{scan, get, put}
			results := make([]Result, len(futures))
			dones := make([]int64, len(futures))
			for i, f := range futures {
				results[i], dones[i] = f.Wait(), f.CompleteAtV()
			}
			for i, f := range futures {
				if got := f.Wait(); !reflect.DeepEqual(got, results[i]) {
					t.Errorf("depth %d: future %d's second Wait = %+v, first %+v", depth, i, got, results[i])
				}
				if got := f.CompleteAtV(); got != dones[i] {
					t.Errorf("depth %d: future %d's CompleteAtV %d after a repeated Wait, %d before", depth, i, got, dones[i])
				}
			}
			if r := results[1]; r.Err != nil || !r.Found || r.Value != 30 {
				t.Errorf("depth %d: Get(3) = %+v, want 30", depth, r)
			}
			if r := results[0]; r.Err != nil || !reflect.DeepEqual(r.KVs, []KV{{Key: 15, Value: 150}, {Key: 16, Value: 160}, {Key: 20, Value: 200}}) {
				t.Errorf("depth %d: Scan(15) = %+v, want 15, 16 and the pipelined put of 20", depth, r)
			}
			next := s.Submit(GetOp(1))
			if next != scan && next != get && next != put {
				t.Errorf("depth %d: the Submit after three Waits allocated a new future", depth)
			}
			if r := next.Wait(); r.Err != nil || r.Value != 10 {
				t.Errorf("depth %d: Get(1) through a reused future = %+v, want 10", depth, r)
			}
			s.Delete(20)
		}
	})
}

// TestUnwaitedFutureSurvives: a future that was never waited keeps its
// operation across later Submits, a Flush and an Exec, none of which may
// hand it out again.
func TestUnwaitedFutureSurvives(t *testing.T) {
	testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
		c, _ := fabricCluster(t, fab, 2, 1, 0)
		tree := futureTree(t, c, false)
		for _, depth := range []int{1, 8} {
			s := openSession(t, tree, 0, PipelineDepth(depth))
			kept := s.Submit(GetOp(5))
			for i := range 3 * depth {
				f := s.Submit(PutOp(uint64(100+i), 1))
				if f == kept {
					t.Fatalf("depth %d: Submit %d reused a future that was never waited", depth, i)
				}
				f.Wait()
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			s.Exec([]Op{GetOp(1), PutOp(6, 66)})
			if f := s.Submit(GetOp(2)); f == kept {
				t.Fatalf("depth %d: the Submit after Flush and Exec reused a never-waited future", depth)
			}
			if r := kept.Wait(); r.Err != nil || !r.Found || r.Value != 50 {
				t.Errorf("depth %d: the kept Get(5) = %+v, want 50", depth, r)
			}
			s.Put(6, 60)
		}
	})
}

// TestPoisonStaleFuturePanics: under poison mode a spent future is dropped
// instead of reused, and reading it after the next Submit panics with a
// message that names the contract.
func TestPoisonStaleFuturePanics(t *testing.T) {
	tree := futureTree(t, testCluster(t), true)
	s := openSession(t, tree, 0, PipelineDepth(4))
	f := s.Submit(GetOp(7))
	kept := s.Submit(GetOp(8))
	if r := f.Wait(); r.Value != 70 || f.Wait().Value != 70 {
		t.Fatalf("Get(7) = %+v, then %+v", r, f.Wait())
	}
	f.CompleteAtV()
	g := s.Submit(GetOp(9))
	if g == f {
		t.Fatal("poison mode reused a spent future")
	}
	for name, read := range map[string]func(){
		"Wait":        func() { f.Wait() },
		"CompleteAtV": func() { f.CompleteAtV() },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "next Submit") {
					t.Errorf("%s on a stale future: recovered %q, want a panic naming the contract", name, msg)
				}
			}()
			read()
		}()
	}
	if r := kept.Wait(); r.Value != 80 {
		t.Errorf("never-waited Get(8) under poison = %+v, want 80", r)
	}
	if r := g.Wait(); r.Value != 90 {
		t.Errorf("Get(9) under poison = %+v, want 90", r)
	}
}
