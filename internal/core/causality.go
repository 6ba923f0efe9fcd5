package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aitia/internal/faultinject"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/obs"
	"aitia/internal/sanitizer"
	"aitia/internal/sched"
)

// flipRoom is the capacity a flip run's records and access array get
// for n records or accesses of the failing run past the cut: a flip
// changes the order of a few steps and their control flow, so it runs
// about as long. Over the corpus's 266 flip runs, 128 ran longer than
// the failing run past their cut and 68 shorter; of the sizes measured
// (n plus 1 to 16, n times 1.03 to 1.25, with or without a constant)
// this one allocated least, regrowth included: 814 KB of records
// against 1,194 KB at n+16, and 113 KB of accesses against 276 KB
// grown from empty.
func flipRoom(n int) int { return n + n/32 + 1 }

// Verdict is the outcome of testing one data race's causality to the
// failure.
type Verdict uint8

const (
	// VerdictBenign: the failure still manifests with the race flipped —
	// the race does not contribute (a benign race).
	VerdictBenign Verdict = iota
	// VerdictRootCause: flipping the race prevents the failure.
	VerdictRootCause
	// VerdictAmbiguous: the race surrounds a nested root-cause race, so
	// its own flip could not be tested in isolation (§3.4).
	VerdictAmbiguous
	// VerdictUnknown: the flip test could not be completed — every retry
	// of its schedule enforcement was lost to (injected) infrastructure
	// faults. The race is excluded from the chain and the diagnosis is
	// returned as Partial instead of failing outright.
	VerdictUnknown
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case VerdictBenign:
		return "benign"
	case VerdictRootCause:
		return "root-cause"
	case VerdictAmbiguous:
		return "ambiguous"
	case VerdictUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// TestedRace records the causality test of one race from the test set.
type TestedRace struct {
	Race    sched.Race
	Verdict Verdict
	// FlipRealized reports whether the flipped interleaving order was
	// actually observed in the test run (control flow can make a flip
	// unrealizable; the verdict is still decided by the failure outcome,
	// per the paper).
	FlipRealized bool
	// FlipRun is the run with this race flipped.
	FlipRun *sched.RunResult
	// PriorSkipped marks a benign verdict settled by the learned flip
	// prior (AnalysisOptions.Ranker) without executing a flip test;
	// FlipRun is nil for such races.
	PriorSkipped bool
}

// FlipPrior is one race's learned prior, aligned by index with the
// candidate slice given to RankFlips. A prior can reorder flips and
// settle a race as benign; it can never settle a chain member, so every
// root-cause or ambiguous verdict and every chain edge comes from a flip
// run.
type FlipPrior struct {
	// Score is the expected root-cause probability; higher scores are
	// flip-tested first. Equal scores preserve the backward test order.
	Score float64
	// Hit reports that the ranker had prior observations for this race's
	// signature (counted in AnalysisStats.PriorHits).
	Hit bool
	// SettledBenign asserts the race is benign with enough support that
	// its flip test can be skipped: the analysis settles it as
	// VerdictBenign without a run. Benign races never shape the chain,
	// so the diagnosis equals one that executed the flip — provided the
	// assertion is correct. For a learned prior the assertion is a
	// cross-program inference, not a proof (see package prior).
	SettledBenign bool
}

// FlipRanker orders the flip tests of a causality analysis by expected
// root-cause probability (see AnalysisOptions.Ranker).
type FlipRanker interface {
	// RankFlips returns one FlipPrior per race, aligned by index. A
	// result of any other length is ignored (fixed-order analysis).
	RankFlips(prog *kir.Program, races []sched.Race) []FlipPrior
}

// AnalysisStats summarize one Causality Analysis.
type AnalysisStats struct {
	Schedules   int // runs executed by THIS process (checkpointed flips not re-counted)
	TestSet     int // races tested
	MemAccesses int // memory-accessing instruction executions in the failing run
	Elapsed     time.Duration
	// Resumed reports that settled flip verdicts were restored from a
	// durable checkpoint instead of re-executed.
	Resumed bool
	// Incremental-replay prefix cache (AnalysisOptions.Prefix):
	ExecutedInstrs uint64 // instructions executed across all machines, replays included
	ReplayedInstrs uint64 // instructions spent re-executing failing-run prefixes
	SavedInstrs    uint64 // prefix instructions skipped by restoring pinned snapshots
	PrefixHits     int    // flip runs started from a pinned prefix snapshot
	PinnedBytes    uint64 // peak bytes pinned by live prefix snapshots
	// Learned flip ordering (AnalysisOptions.Ranker); both count THIS
	// process — checkpoint-restored flips land in neither.
	FlipsExecuted int // flip tests actually run
	FlipsSkipped  int // flip tests settled benign by the prior without a run
	PriorHits     int // tested races whose signature had prior observations
}

// AnalysisOptions configure Causality Analysis.
type AnalysisOptions struct {
	StepBudget int
	LeakCheck  bool
	// Workers parallelizes the flip tests across that many independent
	// machines (the paper's fleet of diagnoser VMs, §4.5). Zero or one
	// means serial.
	Workers int
	// NoCriticalSections is an ablation switch: disable the §3.4 rule of
	// flipping whole critical sections as units.
	NoCriticalSections bool
	// Tracer collects execution spans (the analysis and each flip test).
	// Nil disables tracing at zero cost; see internal/obs.
	Tracer *obs.Tracer
	// Fault arms deterministic fault injection on the analysis
	// infrastructure (flip-test restores and enforcements, diagnoser-VM
	// launches). Nil disables it at zero cost; see internal/faultinject.
	Fault *faultinject.Plan
	// Retry bounds the re-execution of faulted flip tests; zero-value
	// knobs mean faultinject.DefaultRetry.
	Retry faultinject.RetryPolicy
	// Checkpoint arms durable analysis checkpoints: every settled flip
	// verdict is persisted (with the causal footprint of its test run),
	// and a restarted analysis re-executes only the flips the crash
	// lost. Nil disables checkpointing at zero cost.
	Checkpoint *CheckpointConfig
	// Prefix configures the incremental-replay prefix cache: every flip
	// schedule replays the failing run verbatim up to its race, so the
	// analysis pins snapshots along the failing sequence and starts each
	// flip from the deepest pinned ancestor of its cut, enforcing only
	// the suffix. The zero value is the default budget; verdicts and the
	// diagnosis are the same whatever the budget. See PrefixConfig.
	Prefix PrefixConfig
	// Ranker, when set, reorders the flip tests by learned expected
	// root-cause probability (the fixed backward order breaks ties) and
	// skips the flips it settles as benign, which settle as
	// VerdictBenign without a run. Every other flip runs, so every
	// root-cause or ambiguous verdict and every chain edge comes from a
	// flip run. Reordering never changes a verdict (each flip test is
	// independent); a skip leaves the diagnosis byte-identical to
	// fixed-order analysis only if the race is in fact benign, which a
	// learned prior infers from other programs and cannot prove
	// (aitia-bench -check-flips checks it leave-one-out, on the scenario
	// corpus only). Nil preserves the exact fixed backward order.
	Ranker FlipRanker
}

// Diagnosis is the final output: the causality chain plus the full
// evidence (every tested race with its verdict and test run).
type Diagnosis struct {
	Failure   *sanitizer.Failure
	Tested    []TestedRace
	RootCause []sched.Race
	Benign    []sched.Race
	Ambiguous []sched.Race
	// Unknown holds races whose flip tests exhausted their retry budget
	// (VerdictUnknown). They are excluded from the chain; when any exist
	// the diagnosis is Partial rather than failed.
	Unknown []sched.Race
	Chain   *Chain
	// Partial reports that the chain was built from an incomplete test
	// set; PartialReason is the machine-readable cause (e.g.
	// "flip_retries_exhausted=2").
	Partial       bool
	PartialReason string
	Stats         AnalysisStats
}

// Analyze runs Causality Analysis on a reproduction: it flips each data
// race of the failure-causing sequence one at a time (backward, nested
// races before their surrounding races), re-executes, and classifies races
// by whether the failure still manifests. From the root-cause set and the
// flip runs it builds the causality chain.
//
// The machine must execute the same program that produced rep; Analyze
// resets it before the first test run.
func Analyze(m *kvm.Machine, rep *Reproduction, opts AnalysisOptions) (*Diagnosis, error) {
	return AnalyzeContext(context.Background(), m, rep, opts)
}

// AnalyzeContext is Analyze under a context: cancellation is checked
// between flip tests (each test is one bounded schedule enforcement), so
// a canceled context stops the analysis promptly with ctx.Err().
func AnalyzeContext(ctx context.Context, m *kvm.Machine, rep *Reproduction, opts AnalysisOptions) (*Diagnosis, error) {
	if rep == nil || rep.Run == nil || !rep.Run.Failed() {
		return nil, fmt.Errorf("core: Analyze needs a failing reproduction")
	}
	// Warm handoff: when the reproduction carries live prefix pins for
	// this very machine (it just replayed the failing run), adopt them
	// instead of resetting — the flip cache starts with every flip cut
	// of the failing sequence pinned, and pins at the seed's marks.
	// execBase discounts the search's instructions from this analysis's
	// ExecutedInstrs. Any mismatch (different machine, reset in between)
	// falls back to the cold path: a reset machine whose cache pins the
	// cuts as it seeks them.
	var init *kvm.Snapshot
	var warmPins []flipPin
	var cuts []bool
	var execBase uint64
	if pins, ok := rep.seed.adopt(m); ok {
		warmPins = pins
		cuts = rep.seed.cuts
		init = rep.seed.init
		execBase = m.Executed()
		m.SetFaultPlan(opts.Fault)
	} else {
		if err := m.Reset(); err != nil {
			return nil, err
		}
		m.SetFaultPlan(opts.Fault)
		init = m.Snapshot()
	}
	enf := sched.NewEnforcer(m)
	runOpts := sched.Options{StepBudget: opts.StepBudget, LeakCheck: opts.LeakCheck}

	var fallback []string
	for _, td := range m.Prog().Threads {
		fallback = append(fallback, td.Name)
	}

	prog := m.Prog()
	failSeq := &rep.Run.Seq
	original := rep.Run.Failure
	start := time.Now()

	// Prefix cache: one flipCache per machine (snapshots are per-machine),
	// all feeding the same counters.
	var ps prefixStats
	if cuts == nil {
		cuts = sched.CutPoints(prog, failSeq, rep.Accesses)
	}
	fcMain := newFlipCache(m, init, failSeq, cuts, opts.Prefix, opts.Fault, &ps)
	fcMain.pins = warmPins

	d := &Diagnosis{Failure: original}
	d.Stats.TestSet = len(rep.Races)
	az := opts.Tracer.Begin("ca", "analyze", 0)
	defer func() {
		az.Arg("test_set", int64(d.Stats.TestSet))
		// The unknown count is a deterministic function of the fault
		// seed, so it rides in Args and the obs validation enforces its
		// equality across worker counts.
		az.Arg("unknown", int64(len(d.Unknown)))
		// Skip and hit counts are pure functions of the prior snapshot
		// and the test set, so they too must match across worker counts.
		az.Arg("flips_skipped", int64(d.Stats.FlipsSkipped))
		az.Arg("prior_hits", int64(d.Stats.PriorHits))
		az.Info("schedules", int64(d.Stats.Schedules))
		az.Info("flips_executed", int64(d.Stats.FlipsExecuted))
		az.Info("prefix_hits", int64(d.Stats.PrefixHits))
		az.Info("replayed_instrs", int64(d.Stats.ReplayedInstrs))
		az.Info("saved_instrs", int64(d.Stats.SavedInstrs))
		az.Info("pinned_bytes", int64(d.Stats.PinnedBytes))
		if opts.Fault.Enabled() {
			st := opts.Fault.Stats()
			var fired uint64
			for _, n := range st.Fired {
				fired += n
			}
			az.Info("fault_fired", int64(fired))
			az.Info("fault_retries", int64(st.Retries))
			az.Info("fault_exhausted", int64(st.Exhausted))
		}
		az.End()
	}()
	for k := range failSeq.Steps {
		if len(failSeq.Accesses(k)) > 0 {
			d.Stats.MemAccesses++
		}
	}

	// Test order: backward from the failure point; a nested race is
	// tested before any race surrounding it (§3.4).
	order := testOrder(rep.Races)

	// Learned prior (opts.Ranker): score each flip, mark the ones the
	// prior settles as benign, and build the execution order — score
	// descending, the canonical backward-order index as the deterministic
	// tie-break. The skip set and order are fixed up front from the prior
	// snapshot alone, never from this run's outcomes, so serial and
	// parallel analyses settle identical verdicts regardless of worker
	// completion order.
	var priors []FlipPrior
	if opts.Ranker != nil {
		if p := opts.Ranker.RankFlips(m.Prog(), order); len(p) == len(order) {
			priors = p
		}
	}
	skip := make([]bool, len(order))
	execOrder := make([]int, 0, len(order))
	for i := range order {
		if priors != nil {
			if priors[i].Hit {
				d.Stats.PriorHits++
			}
			if priors[i].SettledBenign {
				skip[i] = true
				continue
			}
		}
		execOrder = append(execOrder, i)
	}
	if priors != nil {
		sort.SliceStable(execOrder, func(a, b int) bool {
			ia, ib := execOrder[a], execOrder[b]
			if priors[ia].Score != priors[ib].Score {
				return priors[ia].Score > priors[ib].Score
			}
			return ia < ib
		})
	}

	fo := sched.FlipOptions{NoCriticalSections: opts.NoCriticalSections}
	// One flip test, retried under the fault plan. The operation identity
	// is the flip's index in the deterministic test order, so for a fixed
	// fault seed the same flips fault, retry and (rarely) exhaust no
	// matter how the tests are spread over workers.
	testRace := func(ctx context.Context, enf *sched.Enforcer, fc *flipCache, idx int, r sched.Race) (TestedRace, error) {
		// The flip schedule replays failSeq verbatim up to its cut: Seek
		// brings the machine there (from the deepest pinned ancestor) and
		// only the suffix plan is enforced. The run shares failSeq's
		// first cut steps as its Base and records only its own steps, so
		// Base followed by Seq is exactly a full enforcement's sequence.
		cut, plan := sched.PlanFlipCut(prog, failSeq, r, fallback, fo)
		var tr TestedRace
		err := faultinject.Do(ctx, opts.Fault, opts.Retry, func(ctx context.Context, attempt int) error {
			ro := runOpts
			ro.Fault = opts.Fault
			ro.FaultOp = "ca.flip"
			ro.FaultKey = uint64(idx)
			ro.FaultAttempt = attempt
			ro.Ctx = ctx
			if err := fc.Seek(cut, "ca.flip", uint64(idx), attempt); err != nil {
				return err
			}
			ro.Prefix = failSeq.Prefix(cut)
			// Size the run's own records and their arrays for the rest
			// of the failing run, so they rarely regrow. Locksets are
			// sized exactly: few runs hold locks.
			accs, locks := 0, 0
			for k := ro.Prefix.Len(); k < failSeq.Len(); k++ {
				accs += len(failSeq.Accesses(k))
				locks += len(failSeq.Lockset(k))
			}
			ro.Log = sched.Trace{
				Steps: make([]sched.Exec, 0, flipRoom(failSeq.Len()-ro.Prefix.Len())),
				Accs:  make([]sched.AccessRec, 0, flipRoom(accs)),
			}
			if locks > 0 {
				ro.Log.Locks = make([]uint64, 0, locks)
			}
			res, err := enf.Run(plan, ro)
			if err != nil {
				return err
			}
			tr = TestedRace{
				Race:         r,
				FlipRealized: flipRealized(res, r),
				FlipRun:      res,
			}
			if res.Failed() && res.Failure.SameSymptom(original) {
				tr.Verdict = VerdictBenign
			} else {
				tr.Verdict = VerdictRootCause
			}
			return nil
		})
		if err != nil {
			if errors.Is(err, faultinject.ErrExhausted) {
				// Graceful degradation: give up on this flip, keep the
				// analysis. The race's causality stays undecided.
				return TestedRace{Race: r, Verdict: VerdictUnknown}, nil
			}
			if faultinject.Is(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return TestedRace{}, err
			}
			return TestedRace{}, fmt.Errorf("core: flip run for %s: %w", r.FormatLong(prog), err)
		}
		return tr, nil
	}

	// Stats.Schedules counts runs actually executed: a canceled or failed
	// analysis reports only the flip tests that ran, not the test-set size.
	var executed atomic.Int64
	// workerMachines collects the diagnoser VMs so ExecutedInstrs can sum
	// their work alongside the main machine's.
	var workerMachines []*kvm.Machine
	d.Tested = make([]TestedRace, len(order))
	// Flip spans are measured where the test ran and committed in test
	// order below, after the verdicts (including the ambiguity pass) are
	// final — never in completion order.
	type flipSpan struct {
		start, dur time.Duration
		worker     int
	}
	var flipSpans []flipSpan
	if opts.Tracer.Enabled() {
		flipSpans = make([]flipSpan, len(order))
	}
	timeFlip := func(worker, idx int, run func() error) error {
		if flipSpans == nil {
			return run()
		}
		t0 := opts.Tracer.Now()
		err := run()
		flipSpans[idx] = flipSpan{start: t0, dur: opts.Tracer.Now() - t0, worker: worker}
		return err
	}
	// serialFlips runs the given flips on the analysis machine; it is both
	// the Workers<=1 path and the degradation path when the diagnoser
	// fleet is lost to injected worker deaths.
	done := make([]bool, len(order))

	// Durable resume: settled verdicts from a prior process are restored
	// (their test runs reconstructed from the checkpointed causal
	// footprint) and only the remaining flips execute. Every newly
	// settled flip is persisted immediately — the checkpoint is a pure
	// function of the settled set, so saves commute and the ckMu only
	// serializes the file writes of parallel workers.
	checkpointing := opts.Checkpoint.enabled()
	var (
		ckKey, ckFP string
		ckMu        sync.Mutex
		ckSnaps     []flipSnap
	)
	if checkpointing {
		ckFP = caFingerprint(prog.Hash(), rep, order, opts, skip)
		ckKey = caCheckpointKey(prog.Hash(), ckFP)
		if ck := loadCACheckpoint(opts.Checkpoint, ckKey, ckFP, skip, prog.NumInstrs()); ck != nil {
			for _, fs := range ck.Flips {
				if done[fs.Idx] {
					continue
				}
				done[fs.Idx] = true
				d.Tested[fs.Idx] = restoreFlip(order[fs.Idx], fs)
				ckSnaps = append(ckSnaps, fs)
			}
			d.Stats.Resumed = len(ckSnaps) > 0
		}
	}
	settle := func(idx int, tr TestedRace) {
		d.Tested[idx] = tr
		done[idx] = true
		if !checkpointing {
			return
		}
		ckMu.Lock()
		defer ckMu.Unlock()
		ckSnaps = append(ckSnaps, snapFlip(idx, tr))
		saveCACheckpoint(opts.Checkpoint, ckKey, &caCheckpoint{Fingerprint: ckFP, Flips: ckSnaps})
	}

	// Settle the prior-skipped flips immediately (unless a restored
	// checkpoint already settled them): benign by the prior's assertion,
	// with nil FlipRun, exactly what a skip restores to.
	for i := range order {
		if skip[i] && !done[i] {
			settle(i, TestedRace{Race: order[i], Verdict: VerdictBenign, PriorSkipped: true})
			d.Stats.FlipsSkipped++
		}
	}

	serialFlips := func() error {
		for _, i := range execOrder {
			r := order[i]
			if done[i] {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			err := timeFlip(-1, i, func() error {
				tr, err := testRace(ctx, enf, fcMain, i, r)
				if err != nil {
					return err
				}
				executed.Add(1)
				settle(i, tr)
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	if opts.Workers > 1 {
		// One independent machine per diagnoser, as in the paper's VM
		// fleet; flip tests are mutually independent. The shared pool
		// (runWorkers) stops feeding on the first error or cancellation.
		// VM launches are themselves an injection point (worker death),
		// retried under the plan; a fleet that cannot be built at all
		// degrades to the serial path below — which machine runs a flip
		// never changes its verdict.
		type flipVM struct {
			enf *sched.Enforcer
			fc  *flipCache // this diagnoser's private prefix cache
		}
		var wmMu sync.Mutex
		err := runWorkers(ctx, opts.Tracer, "ca-flip", opts.Workers, len(execOrder),
			func(int) (*flipVM, error) {
				wm, err := newWorkerMachine(ctx, m.Prog(), opts.Fault, opts.Retry, "ca.worker-vm", 0)
				if err != nil {
					return nil, err
				}
				vm := &flipVM{
					enf: sched.NewEnforcer(wm),
					fc:  newFlipCache(wm, wm.Snapshot(), failSeq, cuts, opts.Prefix, opts.Fault, &ps),
				}
				wmMu.Lock()
				workerMachines = append(workerMachines, wm)
				wmMu.Unlock()
				return vm, nil
			},
			func(ctx context.Context, vm *flipVM, worker, pos int) error {
				idx := execOrder[pos]
				if done[idx] {
					// Settled by the restored checkpoint before the
					// pool started.
					return nil
				}
				return timeFlip(worker, idx, func() error {
					tr, err := testRace(ctx, vm.enf, vm.fc, idx, order[idx])
					if err != nil {
						return err
					}
					executed.Add(1)
					settle(idx, tr)
					return nil
				})
			})
		if err != nil {
			if !faultinject.Is(err) || ctx.Err() != nil {
				return nil, err
			}
			// The fleet died; the pool has joined, so done[] is settled.
			if err := serialFlips(); err != nil {
				return nil, err
			}
		}
	} else if err := serialFlips(); err != nil {
		return nil, err
	}
	d.Stats.Schedules += int(executed.Load())
	d.Stats.FlipsExecuted = int(executed.Load())

	// Ambiguity: a surrounding race whose flip avoids the failure cannot
	// be attributed when its nested race is itself a root cause — flipping
	// the surrounding race necessarily flipped the nested one too.
	for i := range d.Tested {
		p := &d.Tested[i]
		if p.Verdict != VerdictRootCause {
			continue
		}
		for j := range d.Tested {
			q := &d.Tested[j]
			if i == j || q.Verdict != VerdictRootCause {
				continue
			}
			if surrounds(p.Race, q.Race) {
				p.Verdict = VerdictAmbiguous
			}
		}
	}

	// Commit flip spans now that the verdicts (including the ambiguity
	// pass) are final; test order and verdicts are deterministic, so the
	// canonical flip sequence is too.
	for i := range d.Tested {
		if flipSpans == nil {
			break
		}
		tr := &d.Tested[i]
		opts.Tracer.Emit(obs.Event{
			Cat: "ca", Name: "flip", Track: int64(i) + 1,
			Start: flipSpans[i].start, Dur: flipSpans[i].dur,
			Args: []obs.Arg{
				{Key: "idx", Val: int64(i)},
				{Key: "verdict", Val: int64(tr.Verdict)},
				{Key: "realized", Val: b2i(tr.FlipRealized)},
			},
			Info: []obs.Arg{{Key: "worker", Val: int64(flipSpans[i].worker)}},
		})
	}

	for _, tr := range d.Tested {
		switch tr.Verdict {
		case VerdictRootCause:
			d.RootCause = append(d.RootCause, tr.Race)
		case VerdictBenign:
			d.Benign = append(d.Benign, tr.Race)
		case VerdictAmbiguous:
			d.Ambiguous = append(d.Ambiguous, tr.Race)
		case VerdictUnknown:
			d.Unknown = append(d.Unknown, tr.Race)
		}
	}
	if n := len(d.Unknown); n > 0 {
		d.Partial = true
		d.PartialReason = fmt.Sprintf("flip_retries_exhausted=%d", n)
	}

	d.Chain = buildChain(d, original)
	d.Stats.ReplayedInstrs = ps.replayed.Load()
	d.Stats.SavedInstrs = ps.saved.Load()
	d.Stats.PrefixHits = int(ps.hits.Load())
	d.Stats.PinnedBytes = ps.pinned.Load()
	d.Stats.ExecutedInstrs = m.Executed() - execBase
	for _, wm := range workerMachines {
		d.Stats.ExecutedInstrs += wm.Executed()
	}
	d.Stats.Elapsed = time.Since(start)
	return d, nil
}

// testOrder sorts the test set backward from the failure point and hoists
// nested races in front of the races that surround them.
func testOrder(races []sched.Race) []sched.Race {
	order := append([]sched.Race(nil), races...)
	sort.Slice(order, func(i, j int) bool { return order[i].LastStep() > order[j].LastStep() })
	// Bubble nested races ahead of their surrounders (the relation is
	// acyclic: surround intervals strictly contain nested intervals).
	for changed := true; changed; {
		changed = false
		for i := 0; i+1 < len(order); i++ {
			if surrounds(order[i], order[i+1]) {
				order[i], order[i+1] = order[i+1], order[i]
				changed = true
			}
		}
	}
	return order
}

// surrounds reports whether race p surrounds race q: flipping p (delaying
// p.First's thread past p.Second) necessarily also flips q, because q's
// First access belongs to the delayed thread inside the displaced span and
// q's Second access lies inside the kept span.
func surrounds(p, q sched.Race) bool {
	if p.Phantom || q.Phantom {
		return false
	}
	return q.First.Thread == p.First.Thread &&
		q.Second.Thread != p.First.Thread &&
		p.FirstStep < q.FirstStep && q.FirstStep < p.SecondStep &&
		p.FirstStep < q.SecondStep && q.SecondStep < p.SecondStep
}

// flipRealized reports whether the intended reversed order was observed.
func flipRealized(res *sched.RunResult, r sched.Race) bool {
	order, firstRan, secondRan := sched.RaceTrace(res, r)
	switch {
	case order == -1:
		return true
	case r.Phantom:
		// The phantom's Second access had never executed; realization
		// means it ran at all before First (or First vanished entirely).
		return secondRan && !firstRan
	case order == 0:
		// The pair vanished: the flip steered control flow away from the
		// racing accesses altogether, which also counts as "the original
		// order did not happen".
		return !firstRan || !secondRan
	}
	return false
}
