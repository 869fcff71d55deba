package stats

// OpKind distinguishes index operation classes in recorders. The paper calls
// lookup and range query "read operations" and insert (including updates)
// and delete "write operations" (§1 footnote 1).
type OpKind int

// Operation classes.
const (
	OpLookup OpKind = iota
	OpInsert
	OpDelete
	OpRange
	numOpKinds
)

// NumOpKinds is the number of operation classes, for per-kind count arrays.
const NumOpKinds = int(numOpKinds)

// String names the operation class.
func (k OpKind) String() string {
	switch k {
	case OpLookup:
		return "lookup"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpRange:
		return "range"
	default:
		return "unknown"
	}
}

// IsWrite reports whether the class is a write operation in the paper's
// terminology.
func (k OpKind) IsWrite() bool { return k == OpInsert || k == OpDelete }

// MaxCacheLevel is the highest tree level the per-level cache-hit counters
// distinguish; hits at deeper levels fold into the top bucket.
const MaxCacheLevel = 8

// CacheLevelIdx maps a tree level to its CacheLevelHits bucket.
func CacheLevelIdx(level uint8) int {
	if int(level) > MaxCacheLevel {
		return MaxCacheLevel
	}
	return int(level)
}

// Recorder collects one thread's measurements; it is not safe for concurrent
// use. Merge recorders after the worker goroutines finish.
type Recorder struct {
	// Latency holds per-class operation latencies (virtual ns).
	Latency [numOpKinds]*Hist
	// AllLatency aggregates every operation, matching the paper's combined
	// latency plots.
	AllLatency *Hist

	// Ops counts operations per class.
	Ops [numOpKinds]int64

	// WriteRoundTrips is the round-trip count distribution of write
	// operations (Figure 14(b)).
	WriteRoundTrips *Counter
	// WriteSizes is the total-bytes-written distribution of write
	// operations (Figure 14(c)).
	WriteSizes *SizeHist
	// ReadRetries is the per-lookup retry-count distribution (Figure 14(a)).
	ReadRetries *Counter

	// Batches counts batch-API invocations; BatchedOps the operations they
	// carried (those operations are also counted in Ops by kind).
	Batches    int64
	BatchedOps int64
	// BatchLeafGroups counts the leaf groups batch executors formed — one
	// leaf lock acquisition (write batches) or one leaf read (read batches)
	// per group. BatchChainedLeaves counts sibling leaves processed under a
	// reused guard without a fresh acquisition (lock-slot aliasing).
	BatchLeafGroups    int64
	BatchChainedLeaves int64

	// PipelinedOps counts operations issued through the async executor at
	// depth > 1; PipelineDepths is the outstanding-depth distribution
	// observed at each issue (including the op being issued).
	PipelinedOps   int64
	PipelineDepths *Counter
	// PipelineOpNS sums issue-to-completion latencies of pipelined
	// operations; PipelineBusyNS is the union length of their execution
	// intervals — the virtual time the pipeline spent doing anything.
	// Their ratio is the latency-hiding factor: how many serialized
	// operation-latencies the pipeline packed into each unit of busy time
	// (1.0 means no overlap).
	PipelineOpNS   int64
	PipelineBusyNS int64

	// RoundTrips totals network round trips attributed to this recorder's
	// window (the harness fills it with the measured-phase delta of the
	// client's verb counter).
	RoundTrips int64

	// CacheHits / CacheMisses count leaf-locate index-cache outcomes
	// (Figure 15(c)): a hit is a level-1 entry answering a leaf location —
	// the speculative leaf-direct jump.
	CacheHits   int64
	CacheMisses int64

	// CacheLevelHits breaks cache usefulness down by the tree level of the
	// entry that answered: index 1 counts leaf-direct jumps, higher indexes
	// count descents resumed at that level instead of the root (levels
	// beyond MaxCacheLevel fold into the top bucket).
	CacheLevelHits [MaxCacheLevel + 1]int64

	// SpecReads counts leaf reads issued speculatively from a cached
	// level-1 parent; SpecFails counts those whose validation failed and
	// fell back to a top-down descent. 1 - SpecFails/SpecReads is the
	// speculation success rate.
	SpecReads int64
	SpecFails int64

	// CacheInvalidations counts cache entries this thread dropped for
	// staleness: failed speculative validations (poisoned path suffixes),
	// dead nodes observed mid-descent, and reclaimed-lock repairs.
	CacheInvalidations int64

	// Handovers counts lock acquisitions satisfied by handover.
	Handovers int64

	// Reclaims counts lock acquisitions that stole an orphaned lock from a
	// crashed holder after its lease expired; SplitRepairs counts the
	// parent-separator (and root) repairs this thread's recovery sweeps
	// performed to complete splits a dead client left half-done.
	Reclaims     int64
	SplitRepairs int64

	// ForwardHops counts traversal redirections through the chunk
	// forwarding map — reads that landed on a migrated node and chased its
	// one-hop forwarding entry to the relocated copy.
	ForwardHops int64

	// ReplicaWrites counts mirror WRITEs this thread posted to replica
	// chunks — the write-amplification numerator of the replica benchmark.
	ReplicaWrites int64
	// ReplicaLagMaxNS is the worst bounded-lag sample observed: how far a
	// replica's mirror doorbell completed after the primary's commit (0 when
	// every mirror landed before its ack).
	ReplicaLagMaxNS int64
	// Failovers counts chunk promotions (replica became primary after a
	// memory-server death) attributed to this recorder's window.
	Failovers int64

	// FinishV is the thread's virtual clock when it finished its share of
	// the workload; the experiment makespan is the max across threads.
	FinishV int64
	// StartV is the thread's virtual clock at workload start.
	StartV int64
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	r := &Recorder{
		AllLatency:      NewHist(),
		WriteRoundTrips: NewCounter(1 << 12),
		WriteSizes:      NewSizeHist(),
		ReadRetries:     NewCounter(64),
		PipelineDepths:  NewCounter(1 << 10),
	}
	for i := range r.Latency {
		r.Latency[i] = NewHist()
	}
	return r
}

// RecordOp stores one finished operation.
func (r *Recorder) RecordOp(kind OpKind, latencyNS int64) {
	r.Latency[kind].Record(latencyNS)
	r.AllLatency.Record(latencyNS)
	r.Ops[kind]++
}

// RecordMixedBatch stores one finished mixed-op batch: counts[k] operations
// of each class, completing in latencyNS total.
// The batch latency is attributed to each operation amortized (a batch of
// n completes n operations in latencyNS total, so each effectively costs the
// mean) — the per-op number a batched client observes.
func (r *Recorder) RecordMixedBatch(counts [NumOpKinds]int64, latencyNS int64) {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n <= 0 {
		return
	}
	per := latencyNS / n
	for k, c := range counts {
		for i := int64(0); i < c; i++ {
			r.Latency[k].Record(per)
			r.AllLatency.Record(per)
		}
		r.Ops[k] += c
	}
	r.Batches++
	r.BatchedOps += n
}

// RecordPipelineOp stores one operation issued through the async executor:
// the outstanding depth observed at issue, its execution latency, and its
// contribution to the pipeline's busy-interval union (busyNS <= opNS; the
// difference is the latency the pipeline hid under siblings).
func (r *Recorder) RecordPipelineOp(depth int, opNS, busyNS int64) {
	r.PipelinedOps++
	r.PipelineDepths.Record(depth)
	r.PipelineOpNS += opNS
	r.PipelineBusyNS += busyNS
}

// HidingRatio returns the pipeline's latency-hiding factor: summed operation
// latencies over the union of their execution intervals. 1.0 means fully
// serialized (no overlap); depth-D pipelines approach D until the NIC
// pipelines or lock conflicts bound them. 0 means nothing was pipelined.
func (r *Recorder) HidingRatio() float64 {
	if r.PipelineBusyNS <= 0 {
		return 0
	}
	return float64(r.PipelineOpNS) / float64(r.PipelineBusyNS)
}

// Merge folds other into r.
func (r *Recorder) Merge(other *Recorder) {
	if other == nil {
		return
	}
	for i := range r.Latency {
		r.Latency[i].Merge(other.Latency[i])
		r.Ops[i] += other.Ops[i]
	}
	r.AllLatency.Merge(other.AllLatency)
	r.WriteRoundTrips.Merge(other.WriteRoundTrips)
	r.WriteSizes.Merge(other.WriteSizes)
	r.ReadRetries.Merge(other.ReadRetries)
	r.Batches += other.Batches
	r.BatchedOps += other.BatchedOps
	r.BatchLeafGroups += other.BatchLeafGroups
	r.BatchChainedLeaves += other.BatchChainedLeaves
	r.PipelinedOps += other.PipelinedOps
	r.PipelineDepths.Merge(other.PipelineDepths)
	r.PipelineOpNS += other.PipelineOpNS
	r.PipelineBusyNS += other.PipelineBusyNS
	r.RoundTrips += other.RoundTrips
	r.CacheHits += other.CacheHits
	r.CacheMisses += other.CacheMisses
	for i := range r.CacheLevelHits {
		r.CacheLevelHits[i] += other.CacheLevelHits[i]
	}
	r.SpecReads += other.SpecReads
	r.SpecFails += other.SpecFails
	r.CacheInvalidations += other.CacheInvalidations
	r.Handovers += other.Handovers
	r.Reclaims += other.Reclaims
	r.SplitRepairs += other.SplitRepairs
	r.ForwardHops += other.ForwardHops
	r.ReplicaWrites += other.ReplicaWrites
	if other.ReplicaLagMaxNS > r.ReplicaLagMaxNS {
		r.ReplicaLagMaxNS = other.ReplicaLagMaxNS
	}
	r.Failovers += other.Failovers
	if other.FinishV > r.FinishV {
		r.FinishV = other.FinishV
	}
}

// TotalOps returns the number of operations across all classes.
func (r *Recorder) TotalOps() int64 {
	var n int64
	for _, v := range r.Ops {
		n += v
	}
	return n
}

// SpecSuccessRate returns the fraction of speculative leaf-direct reads
// that validated on the first try (0 when none were issued).
func (r *Recorder) SpecSuccessRate() float64 {
	if r.SpecReads == 0 {
		return 0
	}
	return 1 - float64(r.SpecFails)/float64(r.SpecReads)
}

// HitRatio returns the index-cache hit ratio in [0,1].
func (r *Recorder) HitRatio() float64 {
	tot := r.CacheHits + r.CacheMisses
	if tot == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(tot)
}

// ThroughputMops converts an op count and a virtual makespan to millions of
// operations per second.
func ThroughputMops(ops int64, makespanNS int64) float64 {
	if makespanNS <= 0 {
		return 0
	}
	return float64(ops) / float64(makespanNS) * 1e3
}
