package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"aitia"
	"aitia/internal/durable"
	"aitia/internal/faultinject"
	"aitia/internal/prior"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// FGauge is a float-valued gauge (ratios, rates).
type FGauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *FGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBounds are the upper bounds (seconds) of the duration histograms:
// exponential from 1ms to 60s, covering sub-millisecond cache hits up to
// multi-second diagnoser runs.
const numHistBounds = 15

var histBounds = [numHistBounds]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a cumulative histogram of seconds with fixed buckets.
type Histogram struct {
	buckets [numHistBounds + 1]atomic.Uint64 // +1 for +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one measurement in seconds.
func (h *Histogram) Observe(seconds float64) {
	i := 0
	for i < len(histBounds) && seconds > histBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + seconds)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Metrics is the service's metric registry: job-lifecycle counters, the
// cache hit/miss counters, stage-duration histograms and occupancy
// gauges, exported in Prometheus text exposition format at /metrics.
type Metrics struct {
	JobsSubmitted Counter // accepted into the queue (or served from cache)
	JobsCompleted Counter // finished with a diagnosis
	JobsFailed    Counter // finished with an error
	JobsCanceled  Counter // canceled before completing
	JobsRejected  Counter // rejected with queue-full backpressure
	JobsRequeued  Counter // put back on the queue after classified infrastructure faults
	// JobsRequeueExhausted counts jobs that failed because they hit the
	// MaxRequeues budget — distinct from JobsFailed so operators can
	// tell "infrastructure kept flaking" from "the diagnosis broke".
	JobsRequeueExhausted Counter
	JobsPartial          Counter // completed with a Partial (degraded) diagnosis
	JobsRecovered        Counter // re-enqueued from the journal after a restart
	CacheHits            Counter // submissions answered from the result cache
	CacheMisses          Counter // submissions that had to run the pipeline
	// RequestsResolved counts requests compiled into programs (a
	// scenario lookup or a kasm parse): one per submission handled
	// on this node, plus one per job recovered from the journal.
	RequestsResolved Counter

	// Per-kind splits (aitia_jobs_total{kind=...}): trace jobs diagnose
	// a program blind, report jobs from a crash report.
	JobsByKind      [numJobKinds]Counter // accepted submissions by input kind
	CacheHitsByKind [numJobKinds]Counter // cache hits by input kind

	QueueWait     Histogram // seconds from submit to worker pickup
	ReproduceTime Histogram // seconds in the LIFS reproducing stage
	DiagnoseTime  Histogram // seconds in the Causality Analysis stage

	QueueDepth  Gauge // jobs waiting in the queue
	BusyWorkers Gauge // workers currently diagnosing

	// LIFS search telemetry, aggregated over completed jobs.
	LIFSSchedules Counter // schedules executed by the reproducing searches
	LIFSPruned    Counter // branches pruned as equivalent states
	SnapshotBytes Counter // bytes copied by copy-on-write checkpointing
	PruneRatio    FGauge  // pruned/(pruned+schedules) of the last completed job

	// Incremental-replay prefix-cache telemetry, aggregated over
	// completed jobs (search + analysis per job).
	ExecutedInstrs Counter // total instructions executed by the pipelines
	ReplayedInstrs Counter // instructions spent re-executing known prefixes
	SavedInstrs    Counter // prefix instructions skipped via pinned snapshots
	PrefixHits     Counter // runs started from a pinned prefix snapshot
	PinnedBytes    Gauge   // last completed job's peak pinned prefix bytes

	// Learned flip-ordering telemetry, aggregated over completed jobs.
	FlipsExecuted Counter // causality flip tests actually run
	FlipsSkipped  Counter // flip tests settled benign by the prior without a run
	PriorHits     Counter // tested races whose signature had prior observations
	// PhaseRate is the last completed job's per-phase schedule throughput
	// (schedules per second), indexed by the phase's preemption budget.
	PhaseRate [maxPhaseRate]FGauge

	// Execution-span aggregates from the tracer, labelled by span
	// category and name, accumulated over completed jobs. Guarded by
	// spanMu because the label set is dynamic.
	spanMu      sync.Mutex
	spanCount   map[string]uint64
	spanSeconds map[string]float64

	// FaultPlan, when set, exports the plan's injection statistics
	// (aitia_fault_* / aitia_retry_*) alongside the service metrics. The
	// plan keeps its own atomic counters; this is just the export hook.
	FaultPlan *faultinject.Plan
	// Journal and Checkpoints, when set, export the durability layer's
	// statistics (aitia_journal_* / aitia_checkpoint_*). Both keep their
	// own atomic counters; these are just the export hooks.
	Journal     *durable.Journal
	Checkpoints *durable.CheckpointStore
	// Prior, when set, exports the learned flip prior's size
	// (aitia_prior_pairs / aitia_prior_observations_total).
	Prior *prior.Store
}

// maxPhaseRate bounds the exported per-phase gauges; deeper phases (which
// the corpus never reaches) fold into the last slot.
const maxPhaseRate = 8

// observeSearch folds one completed diagnosis' search statistics into the
// registry.
func (m *Metrics) observeSearch(sum *aitia.ResultSummary) {
	m.LIFSSchedules.Add(uint64(sum.LIFSSchedules))
	m.LIFSPruned.Add(uint64(sum.LIFSPruned))
	m.SnapshotBytes.Add(sum.SnapshotBytes)
	if total := sum.LIFSSchedules + sum.LIFSPruned; total > 0 {
		m.PruneRatio.Set(float64(sum.LIFSPruned) / float64(total))
	}
	m.ExecutedInstrs.Add(sum.ExecutedInstrs)
	m.ReplayedInstrs.Add(sum.ReplayedInstrs)
	m.SavedInstrs.Add(sum.SavedInstrs)
	m.PrefixHits.Add(uint64(sum.PrefixHits))
	m.PinnedBytes.Set(int64(sum.PinnedBytes))
	m.FlipsExecuted.Add(uint64(sum.FlipsExecuted))
	m.FlipsSkipped.Add(uint64(sum.FlipsSkipped))
	m.PriorHits.Add(uint64(sum.PriorHits))
	for _, p := range sum.Phases {
		i := p.Budget
		if i >= maxPhaseRate {
			i = maxPhaseRate - 1
		}
		if secs := p.Elapsed.Seconds(); secs > 0 {
			m.PhaseRate[i].Set(float64(p.Schedules) / secs)
		}
	}
}

// observeSpans folds one completed job's execution-span aggregates into
// the per-(category, name) totals.
func (m *Metrics) observeSpans(spans []aitia.SpanStat) {
	if len(spans) == 0 {
		return
	}
	m.spanMu.Lock()
	defer m.spanMu.Unlock()
	if m.spanCount == nil {
		m.spanCount = make(map[string]uint64)
		m.spanSeconds = make(map[string]float64)
	}
	for _, sp := range spans {
		key := fmt.Sprintf("cat=%q,name=%q", sp.Cat, sp.Name)
		m.spanCount[key] += uint64(sp.Count)
		m.spanSeconds[key] += float64(sp.Total) / 1e9
	}
}

// WritePrometheus renders every metric in Prometheus text format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	counter := func(name, help string, c *Counter) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, c.Value())
	}
	gauge := func(name, help string, g *Gauge) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, g.Value())
	}
	hist := func(name, help string, h *Histogram) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		cum := uint64(0)
		for i, bound := range histBounds {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", bound), cum)
		}
		cum += h.buckets[len(histBounds)].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "%s_sum %g\n", name, math.Float64frombits(h.sumBits.Load()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	}

	counter("aitia_jobs_submitted_total", "Diagnosis jobs accepted.", &m.JobsSubmitted)
	fmt.Fprintf(w, "# HELP aitia_jobs_total Diagnosis jobs accepted, by input kind (trace = blind program search, report = crash-report driven).\n# TYPE aitia_jobs_total counter\n")
	for i, kind := range jobKindNames {
		fmt.Fprintf(w, "aitia_jobs_total{kind=%q} %d\n", kind, m.JobsByKind[i].Value())
	}
	counter("aitia_jobs_completed_total", "Diagnosis jobs completed successfully.", &m.JobsCompleted)
	counter("aitia_requests_resolved_total", "Requests compiled into programs (scenario lookup or kasm parse).", &m.RequestsResolved)
	counter("aitia_jobs_failed_total", "Diagnosis jobs that failed.", &m.JobsFailed)
	counter("aitia_jobs_canceled_total", "Diagnosis jobs canceled.", &m.JobsCanceled)
	counter("aitia_jobs_rejected_total", "Submissions rejected because the queue was full.", &m.JobsRejected)
	counter("aitia_jobs_requeued_total", "Jobs requeued after classified infrastructure faults.", &m.JobsRequeued)
	counter("aitia_jobs_requeue_exhausted_total", "Jobs failed after exhausting the requeue budget.", &m.JobsRequeueExhausted)
	counter("aitia_jobs_partial_total", "Jobs completed with a Partial (degraded) diagnosis.", &m.JobsPartial)
	counter("aitia_jobs_recovered_total", "Jobs re-enqueued from the journal after a restart.", &m.JobsRecovered)
	counter("aitia_cache_hits_total", "Submissions served from the result cache.", &m.CacheHits)
	// Same family, split by job kind; the unlabelled sample above stays
	// the total.
	for i, kind := range jobKindNames {
		fmt.Fprintf(w, "aitia_cache_hits_total{kind=%q} %d\n", kind, m.CacheHitsByKind[i].Value())
	}
	counter("aitia_cache_misses_total", "Submissions that ran the diagnosis pipeline.", &m.CacheMisses)
	hist("aitia_queue_wait_seconds", "Seconds jobs spent queued before a worker picked them up.", &m.QueueWait)
	hist("aitia_reproduce_seconds", "Seconds spent in the LIFS reproducing stage.", &m.ReproduceTime)
	hist("aitia_diagnose_seconds", "Seconds spent in the Causality Analysis stage.", &m.DiagnoseTime)
	gauge("aitia_queue_depth", "Jobs currently waiting in the queue.", &m.QueueDepth)
	gauge("aitia_busy_workers", "Workers currently running a diagnosis.", &m.BusyWorkers)
	counter("aitia_lifs_schedules_total", "Schedules executed by the LIFS searches of completed jobs.", &m.LIFSSchedules)
	counter("aitia_lifs_pruned_total", "LIFS branches pruned as equivalent states.", &m.LIFSPruned)
	counter("aitia_snapshot_bytes_total", "Bytes copied by copy-on-write checkpointing during the searches.", &m.SnapshotBytes)
	counter("aitia_executed_instrs_total", "Instructions executed by the diagnosis pipelines of completed jobs.", &m.ExecutedInstrs)
	counter("aitia_replayed_instrs_total", "Instructions spent re-executing known schedule prefixes.", &m.ReplayedInstrs)
	counter("aitia_saved_instrs_total", "Prefix instructions skipped by restoring pinned snapshots.", &m.SavedInstrs)
	counter("aitia_prefix_hits_total", "Runs started from a pinned prefix snapshot.", &m.PrefixHits)
	gauge("aitia_prefix_pinned_bytes", "Last completed job's peak bytes pinned by live prefix snapshots.", &m.PinnedBytes)
	counter("aitia_flips_executed_total", "Causality flip tests executed by completed jobs.", &m.FlipsExecuted)
	counter("aitia_flips_skipped_total", "Flip tests settled benign by the learned prior without a run.", &m.FlipsSkipped)
	counter("aitia_prior_hits_total", "Tested races whose pair signature had prior observations.", &m.PriorHits)
	fmt.Fprintf(w, "# HELP aitia_lifs_prune_ratio Pruned fraction of the last completed job's search.\n# TYPE aitia_lifs_prune_ratio gauge\naitia_lifs_prune_ratio %g\n", m.PruneRatio.Value())
	fmt.Fprintf(w, "# HELP aitia_lifs_phase_schedules_per_second Last completed job's schedule throughput by preemption budget.\n# TYPE aitia_lifs_phase_schedules_per_second gauge\n")
	for i := range m.PhaseRate {
		fmt.Fprintf(w, "aitia_lifs_phase_schedules_per_second{budget=\"%d\"} %g\n", i, m.PhaseRate[i].Value())
	}

	raw := func(name, help, typ string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
	}
	if j := m.Journal; j != nil {
		st := j.Stats()
		raw("aitia_journal_appends_total", "Records appended to the job journal.", "counter", st.Appends)
		raw("aitia_journal_appended_bytes_total", "Payload bytes appended to the job journal.", "counter", st.AppendedBytes)
		raw("aitia_journal_segments_total", "Journal segments created.", "counter", st.Segments)
		raw("aitia_journal_compactions_total", "Journal compactions performed.", "counter", st.Compactions)
		raw("aitia_journal_replayed_total", "Records replayed from the journal at startup.", "counter", st.Replayed)
		raw("aitia_journal_torn_tails_total", "Torn journal tails dropped during replay or repair.", "counter", st.TornTails)
		raw("aitia_journal_corrupt_records_total", "Mid-segment corrupt journal records encountered.", "counter", st.CorruptRecords)
		raw("aitia_journal_syncs_total", "Journal fsyncs issued.", "counter", st.Syncs)
	}
	if c := m.Checkpoints; c != nil {
		st := c.Stats()
		raw("aitia_checkpoint_saves_total", "Pipeline checkpoints saved.", "counter", st.Saves)
		raw("aitia_checkpoint_loads_total", "Pipeline checkpoints loaded.", "counter", st.Loads)
		raw("aitia_checkpoint_invalid_total", "Checkpoint loads rejected as invalid.", "counter", st.Invalid)
		raw("aitia_checkpoint_misses_total", "Checkpoint loads with no snapshot present.", "counter", st.Misses)
		raw("aitia_checkpoint_deletes_total", "Checkpoints deleted (e.g. stale terminal snapshots).", "counter", st.Deletes)
	}
	if p := m.Prior; p != nil {
		raw("aitia_prior_pairs", "Distinct race-pair signatures in the learned flip prior.", "gauge", uint64(p.Pairs()))
		raw("aitia_prior_observations_total", "Flip verdicts folded into the learned prior.", "counter", p.Observations())
	}

	if p := m.FaultPlan; p != nil {
		st := p.Stats()
		fmt.Fprintf(w, "# HELP aitia_fault_checks_total Fault-injection decision points consulted, by kind.\n# TYPE aitia_fault_checks_total counter\n")
		for _, k := range faultinject.Kinds() {
			fmt.Fprintf(w, "aitia_fault_checks_total{kind=%q} %d\n", k.String(), st.Checks[k])
		}
		fmt.Fprintf(w, "# HELP aitia_fault_injected_total Faults injected, by kind.\n# TYPE aitia_fault_injected_total counter\n")
		for _, k := range faultinject.Kinds() {
			fmt.Fprintf(w, "aitia_fault_injected_total{kind=%q} %d\n", k.String(), st.Fired[k])
		}
		fmt.Fprintf(w, "# HELP aitia_retry_attempts_total Retry attempts after injected faults.\n# TYPE aitia_retry_attempts_total counter\naitia_retry_attempts_total %d\n", st.Retries)
		fmt.Fprintf(w, "# HELP aitia_retry_exhausted_total Operations that exhausted their retry budget.\n# TYPE aitia_retry_exhausted_total counter\naitia_retry_exhausted_total %d\n", st.Exhausted)
	}

	m.spanMu.Lock()
	defer m.spanMu.Unlock()
	keys := make([]string, 0, len(m.spanCount))
	for k := range m.spanCount {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# HELP aitia_span_count_total Execution spans per tracer category and name, over completed jobs.\n# TYPE aitia_span_count_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(w, "aitia_span_count_total{%s} %d\n", k, m.spanCount[k])
	}
	fmt.Fprintf(w, "# HELP aitia_span_seconds_total Total execution-span duration per tracer category and name, over completed jobs.\n# TYPE aitia_span_seconds_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(w, "aitia_span_seconds_total{%s} %g\n", k, m.spanSeconds[k])
	}
}
