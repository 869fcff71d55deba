package core_test

import (
	"testing"

	core "sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/testutil"
)

// This file is the pooled-lifecycle property suite of the zero-allocation
// hot path: mixed Submit/ExecInto streams at every pipeline depth 1-8, per
// matrix cell, driven through deliberately recycled op and result buffers —
// the exact reuse pattern the arena/pool conversion enables — checked
// operation-by-operation against the model map. Even depths run with
// Config.Poison, so a result that aliases recycled scratch is clobbered to
// 0xDB garbage and fails the comparison deterministically instead of
// passing by luck; the suite runs under -race in CI.

// TestPooledStreamsMatchModel drives one mixed stream per (cell, depth)
// through a recycled batch scratch: the same ops slice and results slice
// back every ExecInto call, interleaved with pipelined SubmitOps, and every
// result — including scan rows retained across later batches — must match
// the model.
func TestPooledStreamsMatchModel(t *testing.T) {
	testutil.RunMatrix(t, func(t *testing.T, ax testutil.Axes) {
		for depth := 1; depth <= 8; depth++ {
			cfg := ax.Config(0)
			// Alternate poison across depths so both modes run in every
			// cell: odd depths exercise plain recycling, even depths make
			// any reuse-after-release read 0xDB garbage.
			cfg.Poison = depth%2 == 0
			tr := testutil.NewTree(t, testutil.NewCluster(t, 2, 1), cfg)
			h := tr.NewHandle(0, 0)
			as := h.NewAsync(depth)
			defer as.Close()
			model := testutil.NewModel()
			seed := uint64(depth) * 13
			if ax.TwoLevel {
				seed += 3
			}
			if ax.Combine {
				seed += 7
			}
			rng := testutil.RNG(seed + 1)

			const keySpace = 160
			randOp := func() core.Op {
				k := rng.Uint64N(keySpace) + 1
				switch rng.Uint64N(10) {
				case 0, 1, 2, 3:
					return core.Op{Kind: stats.OpInsert, Key: k, Value: rng.Uint64() | 1}
				case 4:
					return core.Op{Kind: stats.OpDelete, Key: rng.Uint64N(2*keySpace) + 1}
				case 5:
					return core.Op{Kind: stats.OpRange, Key: k, Span: int(rng.Uint64N(10)) + 1}
				default:
					return core.Op{Kind: stats.OpLookup, Key: k}
				}
			}
			apply := func(op core.Op) core.OpResult {
				var want core.OpResult
				switch op.Kind {
				case stats.OpInsert:
					model.Put(op.Key, op.Value)
				case stats.OpDelete:
					want.Found = model.Delete(op.Key)
				case stats.OpRange:
					want.KVs = model.Scan(op.Key, op.Span)
				default:
					want.Value, want.Found = model.Get(op.Key)
				}
				return want
			}
			check := func(ctx string, op core.Op, got, want core.OpResult) {
				t.Helper()
				if got.Found != want.Found || got.Value != want.Value || len(got.KVs) != len(want.KVs) {
					t.Fatalf("depth %d %s %+v = (%d,%v,%d rows), model (%d,%v,%d rows)",
						depth, ctx, op, got.Value, got.Found, len(got.KVs), want.Value, want.Found, len(want.KVs))
				}
				for j := range want.KVs {
					if got.KVs[j] != want.KVs[j] {
						t.Fatalf("depth %d %s %+v row %d = %+v, model %+v", depth, ctx, op, j, got.KVs[j], want.KVs[j])
					}
				}
			}

			// The recycled scratch: one ops slice and one results slice back
			// every batch of the stream, exactly like the harness's
			// per-worker batchScratch.
			ops := make([]core.Op, 0, 24)
			results := make([]core.OpResult, 24)
			// retained holds scan results kept alive across later batches,
			// with deep copies of their expected rows: if any later
			// operation's recycling aliased the returned rows, the final
			// comparison catches the clobber.
			type retainedScan struct {
				got  []layout.KV
				want []layout.KV
			}
			var retained []retainedScan

			for round := 0; round < 30; round++ {
				// A burst of pipelined submissions, left outstanding together
				// and checked once the burst is in (execution is in
				// submission order, so the model is exact at submit time).
				var burst []submitted
				for j := rng.Uint64N(6); j > 0; j-- {
					op := randOp()
					burst = append(burst, submitted{op, apply(op), as.SubmitOp(op)})
				}
				for _, b := range burst {
					got, _ := b.p.Wait()
					check("SubmitOp", b.op, got, b.want)
					if b.op.Kind == stats.OpRange && len(got.KVs) > 0 && len(retained) < 16 {
						retained = append(retained, retainedScan{
							got:  got.KVs,
							want: append([]layout.KV(nil), b.want.KVs...),
						})
					}
				}
				// One mixed batch through the recycled scratch.
				ops = ops[:0]
				for j := rng.Uint64N(20) + 1; j > 0; j-- {
					ops = append(ops, randOp())
				}
				res := results[:len(ops)]
				as.ExecInto(ops, res)
				for j, op := range ops {
					check("ExecInto", op, res[j], apply(op))
				}
			}
			as.Flush()

			// Retained scan rows must have survived every later batch's
			// recycling untouched.
			for i, r := range retained {
				for j := range r.want {
					if r.got[j] != r.want[j] {
						t.Fatalf("depth %d retained scan %d row %d clobbered to %+v, was %+v",
							depth, i, j, r.got[j], r.want[j])
					}
				}
			}

			// Final sweep: tree contents == model contents.
			for k := uint64(1); k <= 2*keySpace; k++ {
				wv, wok := model.Get(k)
				gv, gok := h.Lookup(k)
				if wok != gok || (wok && wv != gv) {
					t.Fatalf("depth %d final key %d = (%d,%v), model (%d,%v)", depth, k, gv, gok, wv, wok)
				}
			}
		}
	})
}
