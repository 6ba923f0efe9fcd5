// Package service turns the one-shot AITIA pipeline into a long-running
// diagnosis service — the paper's §4.1 deployment, where a fleet of 32
// reproducer/diagnoser VMs consumes a stream of Syzkaller crash reports.
//
// The subsystem is transport-agnostic (HTTP lives in the httpapi
// subpackage) and composes four parts:
//
//   - a bounded job queue with backpressure: submissions beyond the
//     queue depth are rejected with ErrQueueFull instead of piling up;
//   - a worker pool (the VM fleet) with graceful drain on shutdown:
//     queued and in-flight jobs finish, new submissions are refused;
//   - an LRU result cache keyed by the content hash of the compiled
//     kir.Program plus the normalized options, so resubmissions of the
//     same crash are answered without re-running LIFS;
//   - a metrics registry exported in Prometheus text format.
//
// Per-job deadlines and cancellation are plumbed into the pipeline via
// context.Context (manager.Diagnose → core.ReproduceContext /
// core.AnalyzeContext), so a deadline actually stops the search.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"aitia"
	"aitia/internal/core"
	"aitia/internal/durable"
	"aitia/internal/faultinject"
	"aitia/internal/fleet"
	"aitia/internal/ingest"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/manager"
	"aitia/internal/obs"
	"aitia/internal/prior"
	"aitia/internal/sanitizer"
	"aitia/internal/scenarios"
)

// Sentinel errors surfaced to transports.
var (
	// ErrQueueFull is backpressure: the job queue is at capacity and the
	// submission was rejected (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed means the service is draining and accepts no new jobs.
	ErrClosed = errors.New("service: shutting down")
	// ErrBadRequest wraps request-validation failures (HTTP 400).
	ErrBadRequest = errors.New("service: bad request")
	// ErrNotFound means no job has the requested id (HTTP 404).
	ErrNotFound = errors.New("service: no such job")
)

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool size: how many diagnoses run
	// concurrently (the paper's VM fleet). Default 4.
	Workers int
	// QueueDepth bounds the job queue; submissions beyond it are
	// rejected with ErrQueueFull. Default 64.
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries. Default 128.
	CacheSize int
	// JobTimeout is the per-job deadline (overridable per request with
	// a shorter one). Default 2 minutes.
	JobTimeout time.Duration
	// JobWorkers is the per-job parallelism handed to manager.Options
	// (parallel flip tests). Default 1: the pool, not the job, is the
	// unit of parallelism here.
	JobWorkers int
	// MaxJobWorkers caps the per-request "workers" option (parallel LIFS
	// search): requests asking for more are clamped, not rejected, so one
	// client cannot oversubscribe the fleet. Default 8.
	MaxJobWorkers int
	// Diagnoser overrides the pipeline backend (tests inject blocking or
	// failing backends to exercise the queue deterministically). Nil
	// means the real manager-based pipeline.
	Diagnoser Diagnoser
	// Fault is the service-wide deterministic fault plan (chaos testing):
	// it is threaded into every job's pipeline and into queue admission.
	// Nil disables injection at zero cost.
	Fault *faultinject.Plan
	// Retry bounds retries of faulted operations inside jobs (zero-value
	// fields fall back to faultinject.DefaultRetry). The service wires
	// its drain signal into the policy so backoff sleeps end immediately
	// on Shutdown.
	Retry faultinject.RetryPolicy
	// MaxRequeues bounds how many times a job that failed on classified
	// infrastructure faults (injected faults, retry exhaustion) is put
	// back on the queue before it fails for good. Each requeue runs under
	// a re-seeded fork of the fault plan, so a deterministically doomed
	// job gets genuinely fresh draws. Zero means the default (2);
	// negative disables requeueing.
	MaxRequeues int
	// DataDir enables crash-safe operation. The job journal (a
	// checksummed write-ahead log of every job transition) lives in
	// DataDir/journal and the pipeline checkpoint store (LIFS frontiers,
	// settled flip verdicts) in DataDir/checkpoints. Open replays the
	// journal: terminal jobs come back queryable, their results warm the
	// cache, and jobs that were queued or running when the process died
	// are re-enqueued under a forked fault epoch — their searches resume
	// from the latest checkpoints. Empty keeps everything in memory.
	DataDir string
	// SyncWrites fsyncs every journal append and checkpoint save. Off,
	// durability is bounded by the OS page-cache flush interval.
	SyncWrites bool
	// CheckpointEvery additionally checkpoints serial LIFS searches
	// mid-phase after this many schedules (core.CheckpointConfig.Every).
	// Zero checkpoints at phase boundaries only.
	CheckpointEvery int
	// PriorMinSupport tunes the learned flip prior that completed jobs
	// feed and later jobs rank their flip tests by
	// (prior.Config.MinSupport): how many unanimous benign verdicts a
	// race signature needs before its flips are settled benign without
	// a run. The prior never settles a chain member; see package prior
	// for what it guarantees. Zero means the default (1); negative
	// disables the prior entirely (every analysis runs in fixed backward
	// order). With DataDir, recovery rebuilds the prior from the
	// verdicts of the journal's completed diagnoses.
	PriorMinSupport int
	// NodeID names this replica in a fleet; it is stamped on job
	// statuses so clients can see which node ran their diagnosis.
	// Empty for single-node deployments.
	NodeID string
	// Fleet, when set, puts the service in multi-node mode: each job's
	// LIFS branch search is distributed to fleet peers under leases,
	// and a partitioned dispatch annotates the diagnosis with a
	// machine-readable PartialReason. With DataDir the node's lease
	// table journals into (and recovers from) the service WAL.
	Fleet *fleet.Node
}

// Diagnoser runs one resolved job. prog is the compiled program and req
// the normalized request (scenario defaults already applied). tr is the
// job's execution tracer: the backend threads it into the pipeline so
// the job's trace covers the search and analysis, not just the service
// lifecycle. fi carries the job's fault plan and retry policy (see
// FaultContext). Backends may ignore both.
type Diagnoser func(ctx context.Context, prog *kir.Program, req Request, tr *obs.Tracer, fi FaultContext) (*aitia.ResultSummary, error)

// FaultContext is the per-job slice of the service's fault configuration
// handed to the Diagnoser: the plan (forked per requeue epoch, so a
// requeued job does not re-draw the exact faults that killed it) and the
// retry policy with SkipBackoff pre-wired to the service's drain signal.
type FaultContext struct {
	Plan  *faultinject.Plan
	Retry faultinject.RetryPolicy
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 1
	}
	if c.MaxJobWorkers <= 0 {
		c.MaxJobWorkers = 8
	}
	if c.MaxRequeues == 0 {
		c.MaxRequeues = 2
	} else if c.MaxRequeues < 0 {
		c.MaxRequeues = 0
	}
}

// Request is one diagnosis submission: either a built-in scenario name
// or a kasm program, plus options.
type Request struct {
	// Scenario names a built-in corpus scenario.
	Scenario string `json:"scenario,omitempty"`
	// Source is kasm program text (exclusive with Scenario).
	Source string `json:"source,omitempty"`
	// Report is a KCSAN/KASAN-style textual crash report. When set, the
	// job diagnoses from the report alone (report-driven reproduction:
	// the report's suspects seed guided searches against the program
	// named by Scenario or Source) instead of searching blind. Jobs are
	// cached by program hash plus report fingerprint, so reformatted
	// resubmissions of the same crash hit the cache.
	Report string `json:"report,omitempty"`
	// Options tune the pipeline.
	Options RequestOptions `json:"options,omitempty"`
}

// RequestOptions are the per-request pipeline knobs. They mirror
// aitia.Options; fields at their zero value use the pipeline defaults.
type RequestOptions struct {
	MaxInterleavings int    `json:"max_interleavings,omitempty"`
	StepBudget       int    `json:"step_budget,omitempty"`
	LeakCheck        bool   `json:"leak_check,omitempty"`
	FailureKind      string `json:"failure_kind,omitempty"`
	FailureLabel     string `json:"failure_label,omitempty"`
	// Workers parallelizes this job's LIFS search across that many
	// goroutines (aitia.Options.LIFSWorkers). Clamped to the service's
	// Config.MaxJobWorkers; zero or one searches serially.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS caps this job's run time; it can only shorten the
	// service-wide Config.JobTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// State is a job's lifecycle phase.
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Scenario string `json:"scenario,omitempty"`
	// CacheHit marks jobs answered from the result cache.
	CacheHit  bool      `json:"cache_hit,omitempty"`
	Submitted time.Time `json:"submitted"`
	// QueueWaitMS and RunMS are filled as the job progresses.
	QueueWaitMS int64 `json:"queue_wait_ms"`
	RunMS       int64 `json:"run_ms"`
	// Error is set for failed/canceled jobs; FailReason is the
	// machine-readable failure class when one applies (currently
	// ReasonRequeueExhausted: the job burned its whole requeue budget
	// on classified infrastructure faults).
	Error      string `json:"error,omitempty"`
	FailReason string `json:"fail_reason,omitempty"`
	// Node is the fleet replica that accepted the job ("" single-node).
	Node string `json:"node,omitempty"`
	// Result is the diagnosis, set when State is "done".
	Result *aitia.ResultSummary `json:"result,omitempty"`
}

// ReasonRequeueExhausted marks a job that failed because it hit the
// MaxRequeues budget — infrastructure kept flaking, the diagnosis never
// got a clean run.
const ReasonRequeueExhausted = "requeue_exhausted"

// job is the internal job record; mutable fields are guarded by
// Service.mu.
type job struct {
	status JobStatus
	req    Request
	prog   *kir.Program
	key    string             // cache key
	cancel context.CancelFunc // set while running
	picked time.Time          // when a worker picked the job up
	done   chan struct{}      // closed on completion
	// tr collects the job's execution spans from submission on: the
	// queue wait, the pipeline run (with the full search/analysis trace
	// threaded through manager.Options.Tracer) or the cache hit. Epoch
	// is the submission instant.
	tr *obs.Tracer
	// requeues counts how often the job went back on the queue after a
	// classified infrastructure failure; it doubles as the fault-plan
	// fork epoch. Mutated only between runs, so runJob may read it
	// without the lock.
	requeues int
	// recovered marks a job re-enqueued by journal recovery; cleared
	// (with the service's recovering gauge) when a worker picks it up.
	recovered bool
}

// Service is the diagnosis service: queue, worker fleet, result cache
// and metrics.
type Service struct {
	cfg     Config
	metrics *Metrics
	cache   *resultCache
	queue   chan *job
	wg      sync.WaitGroup
	nextID  atomic.Uint64
	// drain is closed by Shutdown: retry backoff sleeps inside running
	// jobs select on it (RetryPolicy.SkipBackoff), so draining never
	// waits out an exponential backoff.
	drain chan struct{}

	// Durability (nil without Config.DataDir): the job WAL and the
	// pipeline checkpoint store.
	journal *durable.Journal
	ckStore *durable.CheckpointStore
	// prior is the learned flip-ordering store shared by all jobs (nil
	// when Config.PriorMinSupport < 0).
	prior *prior.Store

	// recovering counts journal-recovered jobs not yet picked back up:
	// while it is nonzero the node reports not-ready, so a fleet load
	// balancer does not route fresh work at a replica still chewing
	// through its recovery backlog.
	recovering atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*job
	closed bool
}

// New starts an in-memory service: the worker pool begins consuming the
// queue immediately. Call Shutdown to drain it. It panics when Open
// fails, which only durable configurations (Config.DataDir) can — those
// callers should use Open directly.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a service. With Config.DataDir set it opens the job
// journal and checkpoint store, replays the journal (tolerating a torn
// tail from a crashed predecessor), restores terminal jobs and the
// result cache, re-enqueues jobs the crash interrupted, and compacts
// the journal — all before the worker pool starts, so recovered work
// and fresh submissions share one consistent queue.
func Open(cfg Config) (*Service, error) {
	cfg.applyDefaults()
	s := &Service{
		cfg:     cfg,
		metrics: &Metrics{FaultPlan: cfg.Fault},
		cache:   newResultCache(cfg.CacheSize),
		drain:   make(chan struct{}),
		jobs:    make(map[string]*job),
	}
	if cfg.PriorMinSupport >= 0 {
		s.prior = prior.NewStore(prior.Config{MinSupport: cfg.PriorMinSupport})
	}
	queueDepth := cfg.QueueDepth
	var pending []*job
	if cfg.DataDir != "" {
		tr := obs.New()
		span := tr.Begin("service", "recover", 0)
		ck, err := durable.OpenCheckpointStore(filepath.Join(cfg.DataDir, "checkpoints"), cfg.SyncWrites)
		if err != nil {
			return nil, err
		}
		jnl, err := durable.OpenJournal(filepath.Join(cfg.DataDir, "journal"), durable.JournalOptions{Sync: cfg.SyncWrites})
		if err != nil {
			return nil, err
		}
		s.ckStore, s.journal = ck, jnl
		s.metrics.Journal, s.metrics.Checkpoints = jnl, ck
		// Fleet lease recovery runs first, over the raw WAL: lease
		// records must be folded before compaction rewrites the journal
		// (compaction keeps only job state). Records from a prior fleet
		// epoch bump fencing high-water marks but grant nothing — a dead
		// incarnation's holders are gone, and their late results must be
		// fenced off, not honored.
		if cfg.Fleet != nil {
			cfg.Fleet.Leases().SetJournal(jnl)
			_ = jnl.Replay(func(payload []byte) error {
				cfg.Fleet.RestoreLease(payload)
				return nil
			})
		}
		st, err := foldJournal(jnl)
		if err != nil {
			_ = jnl.Close()
			return nil, err
		}
		// Compact before restoreJobs: its requeue records must land in
		// the fresh post-compaction segment, not be erased by it.
		if err := compactJournal(jnl, st); err != nil {
			_ = jnl.Close()
			return nil, err
		}
		pending = s.restoreJobs(st)
		if len(pending) > queueDepth {
			// Every interrupted job must fit back on the queue.
			queueDepth = len(pending)
		}
		span.Arg("jobs", int64(len(st.jobs)))
		span.Arg("requeued", int64(len(pending)))
		if s.prior != nil {
			span.Arg("prior_pairs", int64(s.prior.Pairs()))
		}
		span.End()
		s.metrics.observeSpans(obs.Summarize(tr.Events()))
	}
	s.metrics.Prior = s.prior
	s.queue = make(chan *job, queueDepth)
	s.recovering.Store(int64(len(pending)))
	for _, j := range pending {
		j.recovered = true
		s.queue <- j
		s.metrics.QueueDepth.Inc()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// restoreJobs rebuilds the job table from the folded journal. Terminal
// jobs come back queryable with their results; completed diagnoses warm
// the cache in their original completion order, so the LRU bound evicts
// the oldest journaled results first. Jobs that were queued or running
// when the process died are returned for re-enqueueing, journaled as
// requeued under a forked fault epoch (the crash was this epoch's
// failure — the next run must not re-draw its exact faults). The
// summaries of completed diagnoses also rebuild the flip prior.
func (s *Service) restoreJobs(st *replayState) []*job {
	s.nextID.Store(st.maxSeq)
	var pending []*job
	for _, id := range st.order {
		rj := st.jobs[id]
		if rj.submit.Req == nil {
			continue
		}
		j := &job{
			req:  *rj.submit.Req,
			key:  rj.submit.Key,
			done: make(chan struct{}),
			tr:   obs.New(),
			status: JobStatus{
				ID:          id,
				Scenario:    rj.submit.Req.Scenario,
				CacheHit:    rj.submit.CacheHit,
				Submitted:   rj.submit.At,
				QueueWaitMS: rj.wait,
				RunMS:       rj.run,
				Node:        s.cfg.NodeID,
			},
		}
		switch rj.state {
		case StateDone:
			j.status.State = StateDone
			j.status.Result = rj.sum
			close(j.done)
			if !rj.submit.CacheHit {
				// A cache hit ran no flip: its verdicts were counted
				// when the job it copies ran.
				s.feedPriorSummary(rj.sum)
			}
		case StateFailed, StateCanceled:
			j.status.State = rj.state
			j.status.Error = rj.err
			j.status.FailReason = rj.reason
			close(j.done)
		default: // queued or running at crash time: run it again
			s.metrics.RequestsResolved.Inc()
			prog, req, err := resolve(j.req)
			if err != nil {
				j.status.State = StateFailed
				j.status.Error = err.Error()
				s.journalAppend(jobRecord{Op: opFailed, ID: id, Error: j.status.Error})
				close(j.done)
				break
			}
			j.req, j.prog = req, prog
			j.requeues = rj.epoch + 1
			j.status.State = StateQueued
			j.tr.Emit(obs.Event{Cat: "job", Name: "recovered", Start: j.tr.Now()})
			s.journalAppend(jobRecord{Op: opRequeue, ID: id, Epoch: j.requeues})
			s.metrics.JobsRecovered.Inc()
			pending = append(pending, j)
		}
		s.jobs[id] = j
	}
	for _, rec := range st.warm {
		rj, ok := st.jobs[rec.ID]
		if !ok || rj.state != StateDone || rec.Summary == nil || rj.submit.Key == "" {
			continue
		}
		s.cache.add(rj.submit.Key, rec.Summary)
	}
	return pending
}

// feedPriorSummary folds a journaled result summary's verdicts into the
// prior, as the completed job's diagnosis fed them when it ran: the
// summary lists every tested race with its signature and final verdict.
// Verdicts the prior itself settled carry no new evidence and are
// skipped; so are unknown verdicts.
func (s *Service) feedPriorSummary(sum *aitia.ResultSummary) {
	if s.prior == nil || sum == nil {
		return
	}
	for _, v := range sum.Verdicts {
		if v.Race.Sig == "" || v.Race.Prior {
			continue
		}
		s.prior.ObserveVerdict(v.Race.Sig, v.Verdict)
	}
}

// Metrics returns the service's metric registry.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Scenarios lists the built-in corpus.
func (s *Service) Scenarios() []aitia.ScenarioInfo { return aitia.Scenarios() }

// Health is a point-in-time health snapshot.
type Health struct {
	Status       string `json:"status"` // "ok" or "draining"
	Workers      int    `json:"workers"`
	BusyWorkers  int64  `json:"busy_workers"`
	QueueDepth   int64  `json:"queue_depth"`
	Jobs         int    `json:"jobs"`
	CachedChains int    `json:"cached_chains"`
	// Durable reports that the service runs with a job journal and
	// checkpoint store (Config.DataDir).
	Durable bool `json:"durable,omitempty"`
	// PriorPairs is the number of race-pair signatures in the learned
	// flip prior.
	PriorPairs int `json:"prior_pairs,omitempty"`
	// RequeueExhausted counts jobs that failed after burning the whole
	// MaxRequeues budget on classified infrastructure faults — a
	// distinct, machine-readable failure class (the job statuses carry
	// FailReason "requeue_exhausted").
	RequeueExhausted uint64 `json:"requeue_exhausted,omitempty"`
	// Node is this replica's fleet identity ("" single-node).
	Node string `json:"node,omitempty"`
}

// Health reports the service's occupancy and drain state.
func (s *Service) Health() Health {
	s.mu.Lock()
	closed, jobs := s.closed, len(s.jobs)
	s.mu.Unlock()
	status := "ok"
	if closed {
		status = "draining"
	}
	h := Health{
		Status:       status,
		Workers:      s.cfg.Workers,
		BusyWorkers:  s.metrics.BusyWorkers.Value(),
		QueueDepth:   s.metrics.QueueDepth.Value(),
		Jobs:         jobs,
		CachedChains: s.cache.len(),
		Durable:      s.journal != nil,
	}
	h.RequeueExhausted = uint64(s.metrics.JobsRequeueExhausted.Value())
	h.Node = s.cfg.NodeID
	if s.prior != nil {
		h.PriorPairs = s.prior.Pairs()
	}
	return h
}

// Ready reports whether the node should receive traffic, with a
// machine-readable reason when it should not: "draining" once Shutdown
// started, "recovering" while journal recovery's re-enqueued jobs are
// still waiting to be picked back up. Distinct from Health (which
// answers "is the process alive"): a fleet load balancer polls /readyz
// and stops routing to a node before its drain, not after.
func (s *Service) Ready() (bool, string) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return false, "draining"
	}
	if s.recovering.Load() > 0 {
		return false, "recovering"
	}
	return true, ""
}

// Fleet exposes the node's fleet membership (nil single-node).
func (s *Service) Fleet() *fleet.Node { return s.cfg.Fleet }

// NodeID returns this replica's fleet identity ("" single-node).
func (s *Service) NodeID() string { return s.cfg.NodeID }

// Resolved is a request compiled into its program, with its options
// normalized. A transport resolves a submission once, reads its fleet
// routing key (Hash) and, when this node owns it, hands it to
// SubmitResolved, so the submission is parsed once per node.
type Resolved struct {
	prog *kir.Program
	req  Request
}

// Hash returns the program's content hash: the fleet job-routing key.
func (r *Resolved) Hash() string { return r.prog.Hash() }

// Resolve compiles a request into its program.
func (s *Service) Resolve(req Request) (*Resolved, error) {
	s.metrics.RequestsResolved.Inc()
	prog, req, err := resolve(req)
	if err != nil {
		return nil, err
	}
	return &Resolved{prog: prog, req: req}, nil
}

// Prior exposes the service's learned flip prior (nil when disabled),
// for introspection and tests.
func (s *Service) Prior() *prior.Store { return s.prior }

// resolve compiles the request into a program and normalizes the options
// (scenario defaults applied), so equivalent submissions share one cache
// key.
func resolve(req Request) (*kir.Program, Request, error) {
	switch {
	case req.Scenario != "" && req.Source != "":
		return nil, req, fmt.Errorf("%w: scenario and source are exclusive", ErrBadRequest)
	case req.Scenario != "":
		sc, ok := scenarios.ByName(req.Scenario)
		if !ok {
			return nil, req, fmt.Errorf("%w: unknown scenario %q", ErrBadRequest, req.Scenario)
		}
		prog, err := sc.Program()
		if err != nil {
			return nil, req, err
		}
		if req.Options.FailureKind == "" {
			req.Options.FailureKind = sc.WantKind.String()
		}
		if req.Options.FailureLabel == "" {
			req.Options.FailureLabel = sc.WantLabel
		}
		req.Options.LeakCheck = req.Options.LeakCheck || sc.NeedsLeakCheck()
		return prog, req, nil
	case req.Source != "":
		prog, err := kasm.Parse(req.Source)
		if err != nil {
			return nil, req, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return prog, req, nil
	default:
		return nil, req, fmt.Errorf("%w: need scenario or source", ErrBadRequest)
	}
}

// cacheKey derives the result-cache key: the program's content hash plus
// every option that can change the diagnosis outcome. TimeoutMS is
// excluded (failed jobs are never cached). Workers is included even
// though serial and parallel searches return the same reproduction: the
// result carries search statistics (schedule counts, snapshot bytes)
// that do depend on it. Report jobs additionally key on the report's
// content fingerprint (kind, site, access pair — not formatting noise),
// so the same crash resubmitted with different framing still hits.
func cacheKey(prog *kir.Program, o RequestOptions, rpt *ingest.Report) string {
	key := fmt.Sprintf("%s|mi=%d|sb=%d|leak=%t|kind=%s|label=%s|w=%d",
		prog.Hash(), o.MaxInterleavings, o.StepBudget, o.LeakCheck, o.FailureKind, o.FailureLabel, o.Workers)
	if rpt != nil {
		key += "|rep=" + ingest.Fingerprint(rpt)
	}
	return key
}

// Job-kind indices for the per-kind metrics: trace jobs search blind
// from the program, report jobs are driven by a crash report.
const (
	kindTrace = iota
	kindReport
	numJobKinds
)

var jobKindNames = [numJobKinds]string{"trace", "report"}

func kindOf(req Request) int {
	if req.Report != "" {
		return kindReport
	}
	return kindTrace
}

// Submit accepts a diagnosis job. Cache hits complete synchronously;
// misses are enqueued for the worker pool, or rejected with ErrQueueFull
// when the queue is at capacity.
func (s *Service) Submit(req Request) (JobStatus, error) {
	r, err := s.Resolve(req)
	if err != nil {
		return JobStatus{}, err
	}
	return s.SubmitResolved(r)
}

// SubmitResolved is Submit for a request already resolved.
func (s *Service) SubmitResolved(r *Resolved) (JobStatus, error) {
	prog, req := r.prog, r.req
	var err error
	if req.Options.Workers < 0 {
		req.Options.Workers = 0
	}
	if req.Options.Workers > s.cfg.MaxJobWorkers {
		req.Options.Workers = s.cfg.MaxJobWorkers
	}
	var rpt *ingest.Report
	if req.Report != "" {
		rpt, err = ingest.Parse(req.Report)
		if err != nil {
			return JobStatus{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	key := cacheKey(prog, req.Options, rpt)

	seq := s.nextID.Add(1)
	j := &job{
		req:  req,
		prog: prog,
		key:  key,
		done: make(chan struct{}),
		tr:   obs.New(),
		status: JobStatus{
			ID:        fmt.Sprintf("job-%06d", seq),
			Scenario:  req.Scenario,
			Submitted: time.Now(),
			Node:      s.cfg.NodeID,
		},
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, ErrClosed
	}

	if sum, ok := s.cache.get(key); ok {
		j.tr.Emit(obs.Event{Cat: "job", Name: "cache-hit", Start: j.tr.Now()})
		j.status.State = StateDone
		j.status.CacheHit = true
		j.status.Result = sum
		close(j.done)
		s.jobs[j.status.ID] = j
		s.journalAppend(jobRecord{Op: opSubmit, ID: j.status.ID, Seq: seq, Req: &j.req, Key: key, CacheHit: true})
		s.journalAppend(jobRecord{Op: opDone, ID: j.status.ID, Summary: sum})
		s.metrics.JobsSubmitted.Inc()
		s.metrics.JobsByKind[kindOf(req)].Inc()
		s.metrics.CacheHits.Inc()
		s.metrics.CacheHitsByKind[kindOf(req)].Inc()
		s.metrics.JobsCompleted.Inc()
		return j.status, nil
	}

	// Injected queue-admission hiccup: deterministic per submission
	// sequence number, surfaced as ordinary backpressure so clients
	// retry exactly as they would a genuinely full queue.
	if err := s.cfg.Fault.Check(faultinject.KindQueueAdmit, "service.admit", seq, 0); err != nil {
		s.metrics.JobsRejected.Inc()
		return JobStatus{}, fmt.Errorf("%w: %w", ErrQueueFull, err)
	}

	j.status.State = StateQueued
	select {
	case s.queue <- j:
	default:
		s.metrics.JobsRejected.Inc()
		return JobStatus{}, ErrQueueFull
	}
	s.jobs[j.status.ID] = j
	s.journalAppend(jobRecord{Op: opSubmit, ID: j.status.ID, Seq: seq, Req: &j.req, Key: key})
	s.metrics.JobsSubmitted.Inc()
	s.metrics.JobsByKind[kindOf(req)].Inc()
	s.metrics.CacheMisses.Inc()
	s.metrics.QueueDepth.Inc()
	return j.status, nil
}

// Job returns the status snapshot of a job.
func (s *Service) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return j.status, nil
}

// JobTrace renders a job's execution trace as Chrome trace-event JSON
// (chrome://tracing / Perfetto): the service lifecycle spans (queue wait,
// run, cache hit) plus, for jobs that ran the real pipeline, the full
// search and analysis trace. Valid at any point of the job's life — a
// running job yields the spans committed so far.
func (s *Service) JobTrace(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	var buf bytes.Buffer
	if err := j.tr.WriteChrome(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Jobs returns status snapshots of every known job (unspecified order).
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.status)
	}
	return out
}

// Cancel cancels a job: queued jobs are marked canceled and skipped by
// the pool; running jobs have their context canceled, which stops the
// search at its next iteration boundary.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch j.status.State {
	case StateQueued:
		if j.recovered {
			j.recovered = false
			s.recovering.Add(-1)
		}
		j.status.State = StateCanceled
		j.status.Error = context.Canceled.Error()
		s.journalAppend(jobRecord{Op: opCanceled, ID: id, Error: j.status.Error})
		s.metrics.JobsCanceled.Inc()
		close(j.done)
	case StateRunning:
		j.cancel() // runJob records the terminal state
	}
	return nil
}

// Wait blocks until the job completes (or ctx expires) and returns its
// final status.
func (s *Service) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	select {
	case <-j.done:
		return s.Job(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Shutdown drains the service: no new submissions are accepted, queued
// and in-flight jobs run to completion, and the worker pool exits. It
// returns ctx.Err() if the drain outlives the context.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	close(s.drain) // cut in-flight retry backoff sleeps immediately
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		// Drain-time final sync: everything the pool journaled is on
		// disk before the process reports a clean shutdown.
		if s.journal != nil {
			_ = s.journal.Sync()
			_ = s.journal.Close()
		}
		return nil
	case <-ctx.Done():
		// The journal stays open: workers may still be appending. A
		// process exit from here is exactly the crash the journal is
		// for.
		return ctx.Err()
	}
}

// worker consumes the queue until Shutdown closes it.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.metrics.QueueDepth.Dec()
		ctx, ok := s.pickUp(j)
		if !ok {
			continue // canceled while queued
		}
		s.runJob(ctx, j)
	}
}

// pickUp transitions a dequeued job to running and arms its deadline.
func (s *Service) pickUp(j *job) (context.Context, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.status.State != StateQueued {
		return nil, false
	}
	if s.closed && s.journal != nil {
		// Draining with a journal: leave queued-but-unstarted jobs on
		// disk instead of racing the drain — the next incarnation
		// re-enqueues them from the journal, losing no transitions.
		return nil, false
	}
	timeout := s.cfg.JobTimeout
	if ms := j.req.Options.TimeoutMS; ms > 0 && time.Duration(ms)*time.Millisecond < timeout {
		timeout = time.Duration(ms) * time.Millisecond
	}
	if j.recovered {
		j.recovered = false
		s.recovering.Add(-1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	j.cancel = cancel
	j.picked = time.Now()
	j.tr.Emit(obs.Event{Cat: "job", Name: "queued", Dur: j.tr.Now()})
	j.status.State = StateRunning
	j.status.QueueWaitMS = j.picked.Sub(j.status.Submitted).Milliseconds()
	s.journalAppend(jobRecord{Op: opStart, ID: j.status.ID, QueueWaitMS: j.status.QueueWaitMS})
	s.metrics.QueueWait.Observe(j.picked.Sub(j.status.Submitted).Seconds())
	return ctx, true
}

// runJob executes one diagnosis and records the terminal state.
func (s *Service) runJob(ctx context.Context, j *job) {
	s.metrics.BusyWorkers.Inc()
	defer s.metrics.BusyWorkers.Dec()

	diagnose := s.cfg.Diagnoser
	if diagnose == nil {
		diagnose = s.runManager
	}
	// The fault plan is forked per requeue epoch: a job that died to
	// deterministic faults must not re-draw exactly those faults on its
	// second life.
	fi := FaultContext{Plan: s.cfg.Fault.Fork(uint64(j.requeues)), Retry: s.retryPolicy()}
	run := j.tr.Begin("job", "run", 0)
	sum, err := diagnose(ctx, j.prog, j.req, j.tr, fi)
	run.End()
	j.cancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	j.status.RunMS = time.Since(j.picked).Milliseconds()
	switch {
	case err == nil:
		// The cached summary carries the span aggregates, so cache hits
		// answer with the original run's stage breakdown.
		sum.Spans = obs.Summarize(j.tr.Events())
		j.status.State = StateDone
		j.status.Result = sum
		s.cache.add(j.key, sum)
		s.journalAppend(jobRecord{Op: opDone, ID: j.status.ID, Summary: sum, RunMS: j.status.RunMS})
		s.metrics.JobsCompleted.Inc()
		if sum.Partial {
			s.metrics.JobsPartial.Inc()
		}
		s.metrics.ReproduceTime.Observe(sum.ReproduceTime.Seconds())
		s.metrics.DiagnoseTime.Observe(sum.DiagnoseTime.Seconds())
		s.metrics.observeSearch(sum)
		s.metrics.observeSpans(sum.Spans)
	case errors.Is(err, context.Canceled):
		j.status.State = StateCanceled
		j.status.Error = err.Error()
		s.journalAppend(jobRecord{Op: opCanceled, ID: j.status.ID, Error: j.status.Error})
		s.metrics.JobsCanceled.Inc()
	default:
		// Classified infrastructure failures (injected faults, retry
		// exhaustion) are requeued under a fresh fault epoch — up to
		// MaxRequeues times, and never once the service is draining.
		classified := faultinject.Is(err) || errors.Is(err, faultinject.ErrExhausted)
		if classified && j.requeues < s.cfg.MaxRequeues && !s.closed {
			select {
			case s.queue <- j:
				j.requeues++
				j.status.State = StateQueued
				j.status.Error = ""
				j.tr.Emit(obs.Event{Cat: "job", Name: "requeue", Start: j.tr.Now()})
				s.journalAppend(jobRecord{Op: opRequeue, ID: j.status.ID, Epoch: j.requeues})
				s.metrics.JobsRequeued.Inc()
				s.metrics.QueueDepth.Inc()
				return // the job lives on; done stays open
			default:
				// Queue full: fall through to a terminal failure.
			}
		}
		j.status.State = StateFailed
		j.status.Error = err.Error()
		if classified && j.requeues >= s.cfg.MaxRequeues {
			// The whole requeue budget went to infrastructure flakes:
			// surface that as its own machine-readable failure class,
			// not just a fault string buried in Error.
			j.status.FailReason = ReasonRequeueExhausted
			s.metrics.JobsRequeueExhausted.Inc()
		}
		s.journalAppend(jobRecord{Op: opFailed, ID: j.status.ID, Error: j.status.Error, Reason: j.status.FailReason, RunMS: j.status.RunMS})
		s.metrics.JobsFailed.Inc()
	}
	close(j.done)
}

// retryPolicy is the service-wide retry policy with the drain signal
// wired in, so in-flight backoff sleeps end the moment Shutdown starts.
func (s *Service) retryPolicy() faultinject.RetryPolicy {
	rp := s.cfg.Retry
	rp.SkipBackoff = s.drain
	return rp
}

// runManager is the default Diagnoser: the full manager pipeline on the
// program's declared threads, under the job's context.
func (s *Service) runManager(ctx context.Context, prog *kir.Program, req Request, tr *obs.Tracer, fi FaultContext) (*aitia.ResultSummary, error) {
	lifs := core.LIFSOptions{
		MaxInterleavings: req.Options.MaxInterleavings,
		StepBudget:       req.Options.StepBudget,
		LeakCheck:        req.Options.LeakCheck,
		WantInstr:        kir.NoInstr,
	}
	if req.Options.FailureKind != "" {
		if k, ok := sanitizer.KindByName(req.Options.FailureKind); ok {
			lifs.WantKind = k
		}
	}
	if req.Options.FailureLabel != "" {
		if in, ok := prog.ByLabel(req.Options.FailureLabel); ok {
			lifs.WantInstr = in.ID
		}
	}
	var ck *core.CheckpointConfig
	if s.ckStore != nil {
		ck = &core.CheckpointConfig{Store: s.ckStore, Every: s.cfg.CheckpointEvery}
	}
	// Fleet mode: the job's branch search is distributed under leases.
	// One dispatcher per job, so its degradation reason annotates this
	// diagnosis and no other.
	var disp *fleet.Dispatcher
	var dispatch core.BranchDispatcher
	if s.cfg.Fleet != nil && req.Options.Workers > 1 {
		disp = s.cfg.Fleet.Dispatcher()
		dispatch = disp
	}
	mgr, err := manager.New(prog, manager.Options{
		Workers:     s.cfg.JobWorkers,
		LIFSWorkers: req.Options.Workers,
		LIFS:        lifs,
		Analysis: core.AnalysisOptions{
			StepBudget: req.Options.StepBudget,
			LeakCheck:  lifs.LeakCheck,
		},
		Tracer:     tr,
		Fault:      fi.Plan,
		Retry:      fi.Retry,
		Checkpoint: ck,
		Dispatch:   dispatch,
		Prior:      s.prior,
	})
	if err != nil {
		return nil, err
	}
	var mres *manager.Result
	if req.Report != "" {
		// Report-driven job: the crash report's resolved suspects seed
		// guided searches; kind/site constraints come from the report
		// itself (overriding the blind defaults set above).
		rpt, perr := ingest.Parse(req.Report)
		if perr != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, perr)
		}
		mres, err = mgr.DiagnoseReport(ctx, rpt)
	} else {
		mres, err = mgr.Diagnose(ctx)
	}
	if err != nil {
		return nil, err
	}
	res := aitia.FromManagerResult(prog, mres)
	res.Scenario = req.Scenario
	sum := res.Summary()
	if disp != nil {
		if reason := disp.Degraded(); reason != "" && !sum.Partial {
			// The chain itself is intact (local sweep re-ran every
			// abandoned branch), but the fleet did not hold: surface it.
			sum.Partial = true
			sum.PartialReason = reason
		}
	}
	return sum, nil
}
