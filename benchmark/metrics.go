package main

import (
	"os"
	"time"

	"sherman/internal/core"
	"sherman/internal/stats"
)

// metricDef names one metric; BENCHMARK.json lists the same names and units
// (a test holds the two together).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported by every workload's
// untraced run. Kind-specific and virtual-time figures cannot be reported by
// every workload and live among the per-layer metrics; so do throughput and
// the p99, which this sandbox cannot hold within any bound (README, Noise).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"rt_per_op", "rt/op"},
	{"space_bytes_per_key", "B/key"},
	{"peak_rss_mb", "MiB"},
}

// extras are computed by the untraced run, printed and written to its JSON
// file, but are not end-to-end metrics: they have no bound.
var extras = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p99_us", "us"},
}

// perLayer is reported by the traced run; a metric of a layer the workload
// does not exercise (tcp.* on the simulator, a probe that ran elsewhere)
// reads 0.
var perLayer = []metricDef{
	{"session.submit_us_p50", "us"},
	{"session.wait_us_p50", "us"},
	{"session.mean_outstanding", "ops"},
	{"session.hiding_ratio", "ratio"},
	{"session.overhead_ns", "ns"},
	{"session.ops_per_s", "1/s"},
	{"session.op_p99_us", "us"},
	{"session.get_p50_us", "us"},
	{"session.get_p99_us", "us"},
	{"session.put_p50_us", "us"},
	{"session.put_p99_us", "us"},
	{"session.scan_p50_us", "us"},
	{"core.self_us_per_op", "us"},
	{"core.rt_per_get", "rt/op"},
	{"core.rt_per_put", "rt/op"},
	{"core.rt_per_scan", "rt/op"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions_per_kop", "1/kop"},
	{"cache.admission_rejects_per_kop", "1/kop"},
	{"cache.invalidations_per_kop", "1/kop"},
	{"cache.spec_fail_ratio", "ratio"},
	{"cache.deepest_ns", "ns"},
	{"hocl.acq_per_put", "1/put"},
	{"hocl.handover_ratio", "ratio"},
	{"hocl.global_retries_per_put", "1/put"},
	{"hocl.local_waits_per_put", "1/put"},
	{"hocl.cas_us_per_put", "us"},
	{"hocl.uncontended_lock_us", "us"},
	{"layout.leaf_find_ns", "ns"},
	{"layout.leaf_fill", "ratio"},
	{"layout.write_bytes_per_put", "B/put"},
	{"alloc.nodes_per_kput", "1/kput"},
	{"alloc.chunk_rpcs", "count"},
	{"tcp.verbs_per_op", "1/op"},
	{"tcp.verb_us_per_op", "us"},
	{"tcp.read_us_p50", "us"},
	{"tcp.read_us_p99", "us"},
	{"tcp.postwrites_us_p50", "us"},
	{"tcp.cas_us_p50", "us"},
	{"tcp.probe_read_rtt_us_d1", "us"},
	{"tcp.probe_read_us_d8", "us"},
	{"tcp.probe_cas_rtt_us", "us"},
	{"tcp.probe_postwrites_rtt_us", "us"},
	{"shermand.cpu_us_per_op", "us"},
	{"shermand.inbound_ops_per_op", "1/op"},
	{"shermand.load_skew", "ratio"},
	{"shermand.rss_mb", "MiB"},
	{"sim.verb_host_ns", "ns"},
	{"sim.host_share", "ratio"},
	{"sim.probe_read_host_ns", "ns"},
	{"sim.virt_mops", "Mops"},
	{"sim.virt_p50_us", "us"},
	{"sim.virt_p99_us", "us"},
	{"host.client_cpu_us_per_op", "us"},
	{"host.allocs_per_op", "1/op"},
	{"host.gc_pause_ms", "ms"},
	{"host.warmup_s", "s"},
	{"host.gen_ns_per_op", "ns"},
	{"trace.overhead_share", "ratio"},
}

// report is one run's metrics: the value of each, and for timing metrics
// the slice distribution it is the median of.
type report struct {
	values map[string]float64
	dists  map[string]dist
}

func newReport() *report {
	return &report{values: map[string]float64{}, dists: map[string]dist{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// latency and rate record a sliced timing metric, scaled by 1/div: its
// value is the better quartile across slices (see dist).
func (r *report) latency(name string, d dist, div float64) { r.sliced(name, d, div, d.Q1) }
func (r *report) rate(name string, d dist)                 { r.sliced(name, d, 1, d.Q3) }

func (r *report) sliced(name string, d dist, div, value float64) {
	d.Median, d.Q1, d.Q3 = d.Median/div, d.Q1/div, d.Q3/div
	scaled := make([]float64, len(d.PerSlice))
	for i, v := range d.PerSlice {
		scaled[i] = v / div
	}
	d.PerSlice = scaled
	r.values[name] = value / div
	r.dists[name] = d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sliceCount is the number of slices every session completed.
func sliceCount(ss []*session) int {
	n := len(ss[0].rec.cut)
	for _, s := range ss[1:] {
		n = min(n, len(s.rec.cut))
	}
	return n
}

// mergedSlices gathers, slice by slice, the samples of every session; kind
// < 0 keeps all operation kinds. The slices are copies and may be sorted.
func mergedSlices(ss []*session, virtual bool, kind int, slices int) [][]int32 {
	out := make([][]int32, slices)
	for i := range out {
		for _, s := range ss {
			lat := s.rec.lat
			if virtual {
				lat = s.rec.vlat
			}
			lo, hi := s.rec.bounds(i)
			for j := lo; j < hi; j++ {
				if kind < 0 || int(s.rec.kind[j]) == kind {
					out[i] = append(out[i], lat[j])
				}
			}
		}
	}
	return out
}

// sliceRates returns each slice's completed operations per host second
// (virtual: per virtual microsecond, i.e. Mops) and the operation total.
func sliceRates(ss []*session, virtual bool, slices int) (rates []float64, ops int) {
	for i := 0; i < slices; i++ {
		n := 0
		for _, s := range ss {
			lo, hi := s.rec.bounds(i)
			n += hi - lo
		}
		r0 := ss[0].rec
		if virtual {
			rates = append(rates, ratio(float64(n)*1e3, float64(r0.cutV[i]-r0.beginV[i])))
		} else {
			rates = append(rates, ratio(float64(n)*1e9, float64(r0.cutT[i]-r0.beginT[i])))
		}
		ops += n
	}
	return rates, ops
}

// countWindow sums the sessions' counter deltas and issued operations over
// the count window.
func countWindow(ss []*session) (d counters, ops [nKinds]float64, total float64) {
	for _, s := range ss {
		a, b := s.after.c, s.before.c
		d.roundTrips += a.roundTrips - b.roundTrips
		d.writeBytes += a.writeBytes - b.writeBytes
		d.cacheHits += a.cacheHits - b.cacheHits
		d.cacheMisses += a.cacheMisses - b.cacheMisses
		d.specReads += a.specReads - b.specReads
		d.specFails += a.specFails - b.specFails
		d.meanOutstanding += a.meanOutstanding / float64(len(ss))
		d.hiding += a.hiding / float64(len(ss))
		for k := range ops {
			n := float64(s.after.issued[k] - s.before.issued[k])
			ops[k] += n
			total += n
		}
	}
	return d, ops, total
}

// peakRSSMiB is the client's high-water mark plus every server's; call it
// while the servers still run.
func peakRSSMiB(sys *system) float64 {
	kb := statusField(os.Getpid(), "VmHWM")
	if sys.srv != nil {
		for _, pid := range sys.srv.pids() {
			kb += statusField(pid, "VmHWM")
		}
	}
	return float64(kb) / 1024
}

// endToEndReport computes the untraced run's metrics.
func endToEndReport(out outcome, setups []time.Duration, tree core.TreeStats, rssMiB float64) *report {
	r := newReport()
	var secs []float64
	for _, d := range setups {
		secs = append(secs, d.Seconds())
	}
	three := summarize(secs, len(secs))
	r.sliced("setup_s", three, 1, three.Median)

	n := sliceCount(out.sessions)
	rates, ops := sliceRates(out.sessions, false, n)
	all := mergedSlices(out.sessions, false, -1, n)
	r.latency("op_p50_us", slicePercentile(all, 50), 1e3)
	// Printed and filed, but not end-to-end metrics: see extras.
	r.rate("ops_per_s", summarize(rates, ops))
	r.latency("op_p99_us", slicePercentile(all, 99), 1e3)

	d, _, total := countWindow(out.sessions)
	r.set("rt_per_op", ratio(float64(d.roundTrips), total))
	r.set("space_bytes_per_key", ratio(float64(tree.BytesUsed), float64(tree.Entries)))
	r.set("peak_rss_mb", rssMiB)
	return r
}

// perLayerReport computes the traced run's metrics; probes adds its own
// afterwards.
func perLayerReport(sys *system, out outcome, tree core.TreeStats) *report {
	r := newReport()
	sp, ss := sys.spec, out.sessions
	n := sliceCount(ss)
	d, ops, total := countWindow(ss)
	puts := ops[kPut]
	g0, g1 := out.g0, out.cnt

	// session: latency by kind on the session clock (virtual on the
	// simulator, where host time per kind means nothing: the executor runs an
	// operation when it is submitted, not when it is harvested), and the
	// pipeline's own figures.
	for k, names := range [nKinds][2]string{
		kGet:  {"session.get_p50_us", "session.get_p99_us"},
		kPut:  {"session.put_p50_us", "session.put_p99_us"},
		kScan: {"session.scan_p50_us", ""},
	} {
		if ops[k] == 0 {
			continue
		}
		byKind := mergedSlices(ss, sp.fabric == fabricSim, k, n)
		r.latency(names[0], slicePercentile(byKind, 50), 1e3)
		if names[1] != "" {
			r.latency(names[1], slicePercentile(byKind, 99), 1e3)
		}
	}
	hostRates, hostOps := sliceRates(ss, false, n)
	r.rate("session.ops_per_s", summarize(hostRates, hostOps))
	r.latency("session.op_p99_us", slicePercentile(mergedSlices(ss, false, -1, n), 99), 1e3)
	r.set("session.mean_outstanding", d.meanOutstanding)
	r.set("session.hiding_ratio", d.hiding)

	// The op spans of every client, and the verb spans of every transport.
	ot := mergedOpTrace(ss)
	r.set("session.submit_us_p50", float64(ot.submit.Percentile(50))/1e3)
	r.set("session.wait_us_p50", float64(ot.wait.Percentile(50))/1e3)
	var spans, spanNS, childNS, tracedOps float64
	for k := range ot.n {
		spans += float64(ot.n[k])
		spanNS += float64(ot.ns[k])
		childNS += float64(ot.childNS[k])
		tracedOps += float64(ot.issued[k])
	}
	r.set("core.self_us_per_op", ratio(spanNS-childNS, spans)/1e3)
	r.set("core.rt_per_get", ratio(float64(ot.childN[kGet]), float64(ot.n[kGet])))
	r.set("core.rt_per_put", ratio(float64(ot.childN[kPut]), float64(ot.n[kPut])))
	r.set("core.rt_per_scan", ratio(float64(ot.childN[kScan]), float64(ot.n[kScan])))

	vh := sys.tr.verbHists()
	var verbs, verbNS float64
	for _, h := range vh {
		verbs += float64(h.Count())
		verbNS += h.Mean() * float64(h.Count())
	}
	cas := stats.NewHist()
	cas.Merge(vh[vCAS])
	cas.Merge(vh[vCAS16])

	r.set("cache.hit_ratio", ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses)))
	r.set("cache.evictions_per_kop", ratio(float64(g1.cacheEvictions-g0.cacheEvictions)*1e3, total))
	r.set("cache.admission_rejects_per_kop", ratio(float64(g1.cacheAdmissionRejects-g0.cacheAdmissionRejects)*1e3, total))
	r.set("cache.invalidations_per_kop", ratio(float64(g1.cacheInvalidations-g0.cacheInvalidations)*1e3, total))
	r.set("cache.spec_fail_ratio", ratio(float64(d.specFails), float64(d.specReads)))

	acq := float64(g1.lockAcq - g0.lockAcq)
	r.set("hocl.acq_per_put", ratio(acq, puts))
	r.set("hocl.handover_ratio", ratio(float64(g1.lockHandovers-g0.lockHandovers), acq))
	r.set("hocl.global_retries_per_put", ratio(float64(g1.lockRetries-g0.lockRetries), puts))
	r.set("hocl.local_waits_per_put", ratio(float64(g1.lockWaits-g0.lockWaits), puts))
	r.set("hocl.cas_us_per_put", ratio(cas.Mean()*float64(cas.Count()), float64(ot.issued[kPut]))/1e3)

	r.set("layout.leaf_fill", tree.LeafFill)
	r.set("layout.write_bytes_per_put", ratio(float64(d.writeBytes), puts))
	r.set("alloc.nodes_per_kput", ratio(float64(g1.allocNodes-g0.allocNodes)*1e3, puts))
	r.set("alloc.chunk_rpcs", float64(g1.allocChunks-g0.allocChunks))

	if sp.fabric == fabricTCP {
		r.set("tcp.verbs_per_op", ratio(verbs, tracedOps))
		r.set("tcp.verb_us_per_op", ratio(verbNS, tracedOps)/1e3)
		r.set("tcp.read_us_p50", float64(vh[vRead].Percentile(50))/1e3)
		r.set("tcp.read_us_p99", float64(vh[vRead].Percentile(99))/1e3)
		r.set("tcp.postwrites_us_p50", float64(vh[vPostWrites].Percentile(50))/1e3)
		r.set("tcp.cas_us_p50", float64(cas.Percentile(50))/1e3)

		loads := stats.SubLoads(g1.loads, g0.loads)
		var inbound float64
		for _, l := range loads {
			inbound += float64(l.Ops)
		}
		r.set("shermand.cpu_us_per_op", ratio(float64(g1.srvTicks-g0.srvTicks)*tickUS, total))
		r.set("shermand.inbound_ops_per_op", ratio(inbound, total))
		r.set("shermand.load_skew", stats.LoadSkew(loads))
		r.set("shermand.rss_mb", float64(g1.srvRSSKB)/1024)
	} else {
		r.set("sim.verb_host_ns", ratio(verbNS, verbs))
		r.set("sim.host_share", ratio(verbNS, spanNS))
		// Virtual time is a pure function of the seed over the fixed prefix.
		vn := min(n, simCountSlices)
		vrates, vops := sliceRates(ss, true, vn)
		r.rate("sim.virt_mops", summarize(vrates, vops))
		virt := mergedSlices(ss, true, -1, vn)
		r.latency("sim.virt_p50_us", slicePercentile(virt, 50), 1e3)
		r.latency("sim.virt_p99_us", slicePercentile(virt, 99), 1e3)
	}

	r.set("host.client_cpu_us_per_op", ratio(float64(g1.selfCPUUS-g0.selfCPUUS), total))
	r.set("host.allocs_per_op", ratio(float64(g1.mallocs-g0.mallocs), total))
	r.set("host.gc_pause_ms", float64(g1.gcPauseNS-g0.gcPauseNS)/1e6)
	r.set("host.warmup_s", out.warmup.Seconds())

	f := ss[0]
	if untraced := ratio(float64(f.flipOps[1]), float64(f.flipNS[1])); untraced > 0 {
		r.set("trace.overhead_share", 1-ratio(float64(f.flipOps[0]), float64(f.flipNS[0]))/untraced)
	}
	return r
}
