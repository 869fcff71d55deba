package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"sherman/internal/layout"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(vs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func ramp(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(n - i) // descending: percentile must sort
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// 1000 samples: the nearest-rank p99 is the 990th, with 10 beyond it.
	v, ok := percentile(ramp(1000), 99)
	if v != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v trusted=%v, want 990 true", v, ok)
	}
	if _, ok = percentile(ramp(999), 99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it and must not be trusted")
	}
	if v, ok = percentile(ramp(21), 50); v != 11 || !ok {
		t.Fatalf("p50 of 1..21 = %v trusted=%v, want 11 true", v, ok)
	}
}

func TestSlicePercentileIsMedianOfSlices(t *testing.T) {
	d := slicePercentile([][]int32{ramp(100), ramp(300), ramp(200)}, 50)
	if d.Median != 100 || d.Pooled || d.Slices != 3 || d.Samples != 600 {
		t.Fatalf("got %+v, want the median (100) of the slice medians 50, 150, 100", d)
	}
	if !d.Noisy {
		t.Fatal("slice medians 50..150 around 100 must be flagged noisy")
	}
	// One slice too thin for its p99: fall back to the pooled window.
	d = slicePercentile([][]int32{ramp(2000), ramp(50)}, 99)
	if !d.Pooled {
		t.Fatalf("a slice with fewer than %d samples beyond p99 must pool: %+v", minBeyond, d)
	}
	if calm := summarize([]float64{100, 101, 99, 100, 102}, 5); calm.Noisy || calm.Median != 100 {
		t.Fatalf("calm slices flagged: %+v", calm)
	}
}

func TestReportedValueIsTheBetterQuartile(t *testing.T) {
	r := newReport()
	slices := []float64{4000, 1000, 3000, 2000, 5000, 7000, 6000} // quartiles 2000, 4000, 6000
	r.latency("lat_us", summarize(slices, 7), 1e3)
	r.rate("rate", summarize(slices, 7))
	if r.values["lat_us"] != 2 || r.values["rate"] != 6000 {
		t.Fatalf("latency %v, rate %v; want Q1 = 2 (scaled) and Q3 = 6000", r.values["lat_us"], r.values["rate"])
	}
	if d := r.dists["lat_us"]; d.Median != 4 || d.PerSlice[0] != 4 {
		t.Fatalf("distribution not scaled: %+v", d)
	}
}

func TestSpanSelfTimeSubtractsChildren(t *testing.T) {
	var on atomic.Bool
	on.Store(true)
	tr := &trace{}
	tc := tr.newTracer()
	tc.on = &on
	ot := newOpTrace()

	// An op span of 100 ns holding two verb spans of 30 and 20 ns.
	tc.takeChildren()
	tc.childN, tc.childNS = 2, 50
	ot.record(kPut, 1, tc, 1000, 1100)
	if self := ot.ns[kPut] - ot.childNS[kPut]; self != 50 || ot.childN[kPut] != 2 {
		t.Fatalf("self = %d with %d children, want 50 and 2", self, ot.childN[kPut])
	}
	// The next op starts clean.
	ot.record(kPut, 2, tc, 2000, 2010)
	if ot.childNS[kPut] != 50 || ot.ns[kPut] != 110 {
		t.Fatalf("children leaked into the next span: %+v", ot)
	}
	if len(ot.raw) != 2 || ot.raw[1].ID != 2 {
		t.Fatalf("raw spans = %+v", ot.raw)
	}
}

func TestRecordingOffRecordsNothing(t *testing.T) {
	tr := &trace{}
	tc := tr.newTracer()
	tc.end(vRead, tc.begin())
	if tc.hist[vRead].Count() != 0 || tc.childN != 0 {
		t.Fatal("a verb was recorded while recording was off")
	}
	tr.on.Store(true)
	tc.end(vRead, tc.begin())
	if tc.hist[vRead].Count() != 1 || tc.childN != 1 || len(tc.raw) != 1 {
		t.Fatal("a verb went unrecorded while recording was on")
	}
}

func scanOf(from uint64, n int) []layout.KV {
	kvs := make([]layout.KV, n)
	for i := range kvs {
		k := from + uint64(i)
		kvs[i] = layout.KV{Key: k, Value: encodeValue(k, 7)}
	}
	return kvs
}

func TestOracle(t *testing.T) {
	loaded := loadedKeys()
	good := []struct {
		name string
		p    op
		r    result
	}{
		{"get hit", op{kind: kGet, key: 5}, result{found: true, value: encodeValue(5, 3)}},
		{"get miss beyond loaded", op{kind: kGet, key: loaded + 9}, result{}},
		{"put", op{kind: kPut, key: loaded + 9, value: encodeValue(loaded+9, 1)}, result{}},
		{"scan", op{kind: kScan, key: 40}, result{kvs: scanOf(40, scanSpan)}},
		{"scan into the sparse tail", op{kind: kScan, key: loaded - 1},
			result{kvs: append(scanOf(loaded-1, 2), layout.KV{Key: loaded + 50, Value: encodeValue(loaded+50, 1)})}},
		{"empty scan past every key", op{kind: kScan, key: keySpace}, result{}},
	}
	for _, c := range good {
		if o := newOracle(); !o.check(c.p, c.r) || o.failed != 0 {
			t.Errorf("%s: rejected: %s", c.name, o.first)
		}
	}

	outOfOrder := scanOf(40, scanSpan)
	outOfOrder[10], outOfOrder[11] = outOfOrder[11], outOfOrder[10]
	skipped := append(scanOf(40, 10), scanOf(51, scanSpan-10)...)
	corrupt := scanOf(40, scanSpan)
	corrupt[3].Value = encodeValue(41, 0)
	bad := []struct {
		name string
		p    op
		r    result
	}{
		{"corrupted value", op{kind: kGet, key: 5}, result{found: true, value: encodeValue(6, 3)}},
		{"loaded key missing", op{kind: kGet, key: loaded}, result{}},
		{"error", op{kind: kPut, key: 5}, result{err: os.ErrClosed}},
		{"out-of-order scan", op{kind: kScan, key: 40}, result{kvs: outOfOrder}},
		{"scan skipping a loaded key", op{kind: kScan, key: 40}, result{kvs: skipped}},
		{"scan with a foreign value", op{kind: kScan, key: 40}, result{kvs: corrupt}},
		{"scan below from", op{kind: kScan, key: 40}, result{kvs: scanOf(39, scanSpan)}},
		{"short scan", op{kind: kScan, key: 40}, result{kvs: scanOf(40, scanSpan-1)}},
		{"long scan", op{kind: kScan, key: 40}, result{kvs: scanOf(40, scanSpan+1)}},
	}
	for _, c := range bad {
		if o := newOracle(); o.check(c.p, c.r) || o.failed != 1 || o.first == "" {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestFreshKeysCountsDistinctAcrossSessions(t *testing.T) {
	a, b := newOracle(), newOracle()
	k := loadedKeys() + 1
	for _, key := range []uint64{k, k + 1, k + 1, 3} { // 3 is a loaded key: an update
		a.check(op{kind: kPut, key: key}, result{})
	}
	b.check(op{kind: kPut, key: k + 1}, result{})
	b.check(op{kind: kPut, key: k + 70}, result{})
	if n := freshKeys([]*oracle{a, b}); n != 3 {
		t.Fatalf("freshKeys = %d, want 3", n)
	}
}

func TestRingIsFIFO(t *testing.T) {
	var r ring[int]
	for round := 0; round < 3; round++ {
		for i := 0; i < fifoLen; i++ {
			r.push(round*fifoLen + i)
		}
		for i := 0; i < fifoLen; i++ {
			if v := r.pop(); v != round*fifoLen+i {
				t.Fatalf("pop = %d, want %d", v, round*fifoLen+i)
			}
		}
	}
	if r.n != 0 {
		t.Fatalf("ring holds %d after draining", r.n)
	}
}

// stubClient answers every operation correctly and instantly.
type stubClient struct{ clock int64 }

func (c *stubClient) do(p op) result {
	return result{found: true, value: encodeValue(p.key, 0), kvs: scanOf(p.key, scanSpan)}
}
func (c *stubClient) submit(op)                   {}
func (c *stubClient) waitOldest() (result, int64) { return result{}, 0 }
func (c *stubClient) now() int64                  { c.clock++; return c.clock }
func (c *stubClient) flush() error                { return nil }
func (c *stubClient) counters() counters          { return counters{} }

func TestTimeSlicing(t *testing.T) {
	length := 10 * time.Second
	w := &window{sys: &system{spec: specs[0]}, length: length, slice: int64(length) / tcpSlices, t0: 1_000_000}
	s := &session{w: w, c: &stubClient{}, or: newOracle(), timed: true}
	at := func(slices float64) int64 { return w.t0 + int64(slices*float64(w.slice)) }
	p := op{kind: kGet, key: 1}
	r := result{found: true, value: encodeValue(1, 0)}
	s.complete(p, r, at(0.2), 100, 0)
	s.complete(p, r, at(0.9), 200, 0)
	s.complete(p, r, at(1.1), 300, 0) // closes slice 0
	s.complete(p, r, at(3.5), 400, 0) // closes slices 1 and 2; slice 2 is empty
	s.complete(p, r, at(tcpSlices+0.2), 500, 0)
	if len(s.rec.cut) != tcpSlices {
		t.Fatalf("%d slices closed, want %d", len(s.rec.cut), tcpSlices)
	}
	if got := s.rec.cut[:4]; got[0] != 2 || got[1] != 3 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("cuts = %v, want [2 3 3 4 ...]", got)
	}
	if len(s.rec.lat) != 4 {
		t.Fatalf("the completion after the window was recorded: %v", s.rec.lat)
	}
	if s.rec.cutT[0] != at(1) || s.rec.beginT[0] != at(1) {
		t.Fatalf("slice boundaries are nominal: cutT %v beginT %v", s.rec.cutT[0], s.rec.beginT[0])
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the code together:
// every workload and metric it names is one the code produces, with the same
// unit, and nothing the code produces is missing from it.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
		Why    string  `json:"why"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []named  `json:"end_to_end"`
		PerLayer   []named  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(doc.Workloads) != len(specs) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(specs))
	}
	for _, w := range doc.Workloads {
		if _, ok := findSpec(w.Name); !ok || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q is not one the code runs", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, listed []named, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(listed), len(defs))
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, m := range listed {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %q (%q): bad name or unit", kind, m.Name, m.Unit)
			}
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s %q %q: the code reports unit %q (known: %v)", kind, m.Name, m.Unit, u, ok)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %q: better = %q", kind, m.Name, m.Better)
			}
			delete(units, m.Name)
		}
		for name := range units {
			t.Errorf("%s %q is reported by the code but missing from BENCHMARK.json", kind, name)
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	setup := false
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}
