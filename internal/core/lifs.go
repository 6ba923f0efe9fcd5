package core

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// LIFSOptions configure a reproduction search.
type LIFSOptions struct {
	// MaxInterleavings bounds the iterative deepening on preemption count.
	// Zero means DefaultMaxInterleavings. The paper observes that one or
	// two interleavings reproduce almost every real failure.
	MaxInterleavings int
	// StepBudget is the per-run watchdog limit (sched.Options.StepBudget).
	StepBudget int
	// MaxSchedules aborts the search after this many executed schedules
	// (zero = DefaultMaxSchedules).
	MaxSchedules int
	// WantKind restricts acceptance to failures of this kind, taken from
	// the crash report. KindNone accepts any failure except watchdogs.
	WantKind sanitizer.Kind
	// WantInstr further restricts acceptance to failures at this
	// instruction (the crash report's failing location). NoInstr matches
	// any location.
	WantInstr kir.InstrID
	// LeakCheck enables the memory-leak oracle at run completion (needed
	// to reproduce leak failures, which manifest only at the end).
	LeakCheck bool
	// RecordLeaves retains a per-leaf search trace (used to regenerate the
	// paper's Figure 5 search tree).
	RecordLeaves bool
	// Workers shards each iterative-deepening phase's top-level branches
	// (initial-thread choice × first preemption or natural-switch decision)
	// across this many goroutines, each driving its own kvm.Machine. Zero
	// or one searches serially. Parallel and serial searches return the
	// same reproduction (schedule, races, interleaving count, accesses
	// and leaves) and the same Stats.Schedules, Pruned and GuidePruned:
	// every unit prunes only on its own visited states, so its
	// exploration does not depend on which machine runs it or when.
	// Requires the machine to be in its initial state.
	Workers int
	// Tracer collects execution spans (per deepening phase, per search
	// unit, per pool dispatch). Nil disables tracing at zero cost. The
	// canonical event sequence is deterministic across worker counts;
	// see internal/obs.
	Tracer *obs.Tracer
	// Fault arms deterministic fault injection on the search
	// infrastructure (the final replay's restore and enforcement, and
	// worker-VM launches). Nil disables it at zero cost. Injection never
	// happens inside the exploration hot path — restore order there
	// differs across worker counts, and the plan must fire identically
	// for serial and parallel searches.
	Fault *faultinject.Plan
	// Retry bounds the re-execution of faulted operations; zero-value
	// knobs mean faultinject.DefaultRetry.
	Retry faultinject.RetryPolicy
	// Guide switches the search into constrained, report-driven mode:
	// the crash report's suspect accesses are seeded as conflict points
	// and branches that can no longer reproduce the reported failure are
	// pruned. Nil searches blind. See Guide.
	Guide *Guide
	// Dispatch routes a phase's parallel branch units to a fleet of
	// remote executors instead of the local worker pool. Branch
	// exploration is a pure function of the dispatched batch, so a
	// fleet-executed phase merges byte-identical results; branches the
	// dispatcher does not return (lost node, expired lease, partition)
	// are swept up serially on the main machine. Nil keeps the search
	// local. The batch carries the Guide, so guided searches dispatch
	// too.
	Dispatch BranchDispatcher
	// Checkpoint arms durable search checkpoints: the frontier is saved
	// at every deepening-phase boundary (and, serially, every
	// CheckpointConfig.Every schedules), and the search resumes from the
	// latest valid snapshot, producing the same reproduction as an
	// uninterrupted run. Nil disables checkpointing at zero cost.
	// Ignored under NoLeastFirst (the ablation has no phase structure
	// worth cutting at).
	Checkpoint *CheckpointConfig
	// Prefix configures the incremental-replay prefix cache: each
	// group's branch state is pinned as a copy-on-write snapshot so
	// task units resume from it instead of replaying the group prefix
	// from instruction 0. The zero value is the default budget; the
	// explored tree, the reproduction and Stats.Schedules are the same
	// whatever the budget. See PrefixConfig.
	Prefix PrefixConfig

	// Ablation switches (all default off, i.e. the paper's design):

	// NoPruning disables the equivalent-state pruning: each search unit
	// skips a state it already reached with the same thread and budget.
	NoPruning bool
	// NoLeastFirst disables the least-interleaving-first iterative
	// deepening and searches directly at MaxInterleavings.
	NoLeastFirst bool
	// NoPhantom drops races whose second access never executed in the
	// failing run from the test set (e.g. the paper's B17 => A12).
	NoPhantom bool
}

// Default search limits.
const (
	DefaultMaxInterleavings = 3
	DefaultMaxSchedules     = 200000
)

// PhaseStat summarizes one iterative-deepening phase of the search.
type PhaseStat struct {
	Budget    int           // preemption budget of the phase
	Schedules int           // complete runs executed during it
	Elapsed   time.Duration // wall-clock phase time
}

// SearchStats summarize a LIFS search.
type SearchStats struct {
	// Schedules counts the complete runs of the search units up to each
	// phase's winner, executed by this search (checkpoint-resumed work is
	// not re-counted); runs of units past the winner, cut short or not,
	// are not counted. Each unit's exploration is a pure function of the
	// phase and the unit, so the count is the same serially, at every
	// worker count, through a dispatcher and under every prefix-cache
	// budget (the cache skips replay work, never schedules). Pinned by
	// TestParallelScheduleCountExact. Pruned and GuidePruned are counted
	// the same way.
	Schedules     int
	Interleavings int           // preemption count at which the failure reproduced
	Pruned        int           // branches pruned as equivalent states
	GuidePruned   int           // branches pruned by report-guided reachability (LIFSOptions.Guide)
	SnapshotBytes uint64        // bytes copied by copy-on-write checkpointing
	Elapsed       time.Duration // wall-clock search time
	Phases        []PhaseStat   // per-phase schedule throughput (includes checkpointed phases)
	// Incremental-replay prefix cache (LIFSOptions.Prefix):
	ExecutedInstrs uint64 // instructions executed across all machines, replays included
	ReplayedInstrs uint64 // instructions spent re-executing already-known prefixes
	SavedInstrs    uint64 // prefix instructions skipped by restoring pinned snapshots
	PrefixHits     int    // runs started from a pinned prefix snapshot
	PinnedBytes    uint64 // peak bytes pinned by live prefix snapshots
	// Resumed reports that the search continued from a durable
	// checkpoint; CheckpointAge is how old that snapshot was.
	Resumed       bool
	CheckpointAge time.Duration
}

// LeafTrace records one complete run of the search for introspection.
type LeafTrace struct {
	Labels      []string // labelled instructions in execution order
	Preemptions int      // budget consumed on this path
	Failed      bool
}

// Reproduction is the output of LIFS: the failure-causing instruction
// sequence (as a run result), a schedule that deterministically replays
// it, all data races found in it, and the accumulated access knowledge.
type Reproduction struct {
	Run      *sched.RunResult // the failing run, a full run (empty Base)
	Schedule sched.Schedule
	Races    []sched.Race
	Accesses *sched.AccessMap
	Stats    SearchStats
	Leaves   []LeafTrace // only when LIFSOptions.RecordLeaves

	// seed holds the prefix-cache pins taken along the final replay, so
	// an Analyze on the same machine starts with the failing sequence
	// already cached. Nil when the cache is disabled; see prefixSeed.
	seed *prefixSeed
}

// ErrNotReproduced is returned (wrapped) when the search space is
// exhausted without reproducing an accepted failure.
var ErrNotReproduced = fmt.Errorf("core: failure not reproduced")

// IsNotReproduced reports whether err means the search space was
// exhausted without reproducing the failure (the caller should try the
// next slice, §4.2).
func IsNotReproduced(err error) bool { return errors.Is(err, ErrNotReproduced) }

// Reproduce runs LIFS on the machine's declared threads. The machine is
// left in the failing state of the reproduced run.
func Reproduce(m *kvm.Machine, opts LIFSOptions) (*Reproduction, error) {
	return ReproduceContext(context.Background(), m, opts)
}

// ReproduceContext is Reproduce under a context: cancellation and
// deadlines are checked at search-iteration boundaries, so a canceled
// context aborts the search promptly and the error is ctx.Err().
func ReproduceContext(ctx context.Context, m *kvm.Machine, opts LIFSOptions) (*Reproduction, error) {
	return reproduceContext(ctx, m, opts, true)
}

// reproduceContext carries the allowResume switch: a terminal
// checkpoint whose replay no longer reproduces is deleted and the
// search retried once with resumption disabled.
func reproduceContext(ctx context.Context, m *kvm.Machine, opts LIFSOptions, allowResume bool) (*Reproduction, error) {
	if opts.MaxInterleavings <= 0 {
		opts.MaxInterleavings = DefaultMaxInterleavings
	}
	if opts.MaxSchedules <= 0 {
		opts.MaxSchedules = DefaultMaxSchedules
	}

	s := &searcher{
		am:   sched.NewAccessMap(),
		opts: opts,
		ctx:  ctx,
	}
	for _, td := range m.Prog().Threads {
		s.fallback = append(s.fallback, td.Name)
	}
	s.am.Reserve(m.Prog().NumInstrs())
	s.initSig = m.StateSignature()
	s.main = newWorkerVM(m)
	init := s.main.init

	// Report-guided mode: compile the reachability oracles and seed the
	// suspect accesses into the access knowledge, so the suspect pair is
	// a conflict point — explored in both orders — from the very first
	// phase. Seeding precedes any checkpoint restore; a restored map was
	// exported by a search with the same guide (the checkpoint key covers
	// it) and already contains the seeds.
	if opts.Guide != nil {
		s.guide = newGuideState(m.Prog(), opts)
		for _, sa := range opts.Guide.Suspects {
			if sa.Thread == "" || sa.Addr == 0 {
				continue
			}
			if _, ok := m.Prog().Instr(sa.Instr); !ok {
				continue
			}
			s.am.Record(sched.Site{Thread: sa.Thread, Instr: sa.Instr}, sa.Addr, sa.Write)
		}
	}

	// Checkpointing: derive the key and load the latest valid frontier.
	// An invalid, version-skewed or foreign-state snapshot loads as nil
	// — exactly like no snapshot — and the search runs fresh.
	checkpointing := opts.Checkpoint.enabled() && !opts.NoLeastFirst
	var resume, terminal *lifsCheckpoint
	if checkpointing {
		s.ckKey = lifsCheckpointKey(m.Prog(), opts)
		if allowResume {
			if ck := loadLIFSCheckpoint(opts.Checkpoint, s.ckKey, m.Prog(), opts.MaxInterleavings, s.initSig); ck != nil {
				s.stats.Resumed = true
				s.stats.CheckpointAge = time.Since(time.Unix(0, ck.SavedAt))
				if ck.Done {
					terminal = ck
				} else {
					resume = ck
					s.am = sched.ImportAccessMap(ck.Accesses)
					s.leaves = append([]LeafTrace(nil), ck.Leaves...)
					s.stats.Phases = append([]PhaseStat(nil), ck.Phases...)
					if opts.Workers > 1 {
						// A partial phase is a serial cut; a parallel
						// search resumes at the phase boundary and
						// re-runs the phase whole.
						ck.Partial = nil
					}
					s.resume = ck
				}
			}
		}
	}
	start := time.Now()

	// The search root span closes last (after the per-phase, per-unit and
	// replay spans), carrying the deterministic outcome in Args and the
	// worker-count-dependent statistics in Info.
	search := opts.Tracer.Begin("lifs", "search", 0)
	defer func() {
		search.Arg("found", b2i(s.found))
		search.Arg("interleavings", int64(s.stats.Interleavings))
		search.Info("workers", int64(opts.Workers))
		search.Info("schedules", int64(s.stats.Schedules))
		search.Info("pruned", int64(s.stats.Pruned))
		search.Info("snapshot_bytes", int64(s.stats.SnapshotBytes))
		search.Info("prefix_hits", s.prefix.hits.Load())
		search.Info("replayed_instrs", int64(s.prefix.replayed.Load()))
		search.Info("saved_instrs", int64(s.prefix.saved.Load()))
		search.Info("pinned_bytes", int64(s.prefix.pinned.Load()))
		if opts.Fault.Enabled() {
			st := opts.Fault.Stats()
			var fired uint64
			for _, n := range st.Fired {
				fired += n
			}
			search.Info("fault_fired", int64(fired))
			search.Info("fault_retries", int64(st.Retries))
		}
		search.End()
	}()

	// Iterative deepening: interleaving count 0, 1, 2, ... The paper runs
	// the search twice when new conflicting instructions were discovered
	// late (race-steered control flows can hide conflicts from shallow
	// phases); a second round with a warm AccessMap covers them.
	//
	// With a frontier checkpoint the loop re-enters at (Round,
	// NextPhase): completed phases left their merged accesses in the
	// restored map and are never re-executed. After each completed phase
	// (and only then — an exhausted or canceled phase is not a
	// consistent cut) the new frontier is saved.
	var searchErr error
	startRound := 0
	if resume != nil {
		startRound = resume.Round
	}
	if terminal != nil {
		// The search already succeeded in a previous process; skip it
		// and reconstruct the reproduction from one replay below.
		s.found = true
		s.am = sched.ImportAccessMap(terminal.Accesses)
		s.stats.Phases = append([]PhaseStat(nil), terminal.Phases...)
		s.stats.Interleavings = terminal.Interleavings
		s.leaves = append([]LeafTrace(nil), terminal.Leaves...)
	}
rounds:
	for round := startRound; round < 2 && !s.found; round++ {
		sitesBefore := s.am.NumSites()
		startK := 0
		if resume != nil && round == resume.Round {
			sitesBefore = resume.SitesAtRoundStart
			startK = resume.NextPhase
		}
		s.ckRound, s.ckSites = round, sitesBefore
		if opts.NoLeastFirst {
			// Ablation: a warm-up pass at count 0 discovers the initial
			// conflict set (the search cannot branch without it), then
			// the full-depth search runs directly.
			if searchErr = s.phase(0); searchErr != nil {
				break rounds
			}
			if !s.found {
				if searchErr = s.phase(opts.MaxInterleavings); searchErr != nil {
					break rounds
				}
			}
		} else {
			for k := startK; k <= opts.MaxInterleavings && !s.found; k++ {
				if searchErr = s.phase(k); searchErr != nil {
					break rounds
				}
				if checkpointing && !s.found && !s.exhausted.Load() && s.ctxErr == nil {
					saveLIFSCheckpoint(opts.Checkpoint, s.ckKey, &lifsCheckpoint{
						InitSig:           s.initSig,
						Round:             round,
						NextPhase:         k + 1,
						SitesAtRoundStart: sitesBefore,
						Phases:            s.stats.Phases,
						Accesses:          s.am.Export(),
						Leaves:            s.leaves,
					})
				}
			}
		}
		if s.found || s.am.NumSites() == sitesBefore {
			break
		}
	}
	s.stats.Elapsed = time.Since(start)
	s.stats.SnapshotBytes = m.SnapshotBytes() + s.workerBytes()

	if searchErr != nil {
		m.Restore(init)
		return nil, searchErr
	}
	if s.ctxErr != nil {
		m.Restore(init)
		return nil, s.ctxErr
	}
	if !s.found {
		m.Restore(init)
		return nil, fmt.Errorf("%w after %d schedules (max %d interleavings)",
			ErrNotReproduced, s.stats.Schedules, opts.MaxInterleavings)
	}

	// Replay the found trace through the enforcement engine to obtain the
	// canonical failure-causing run (and to validate that the schedule
	// reconstruction is deterministic). The replay's restore and
	// enforcement are injection points, retried under the plan; the key
	// is fixed (one replay per search), so the fault fate is the same for
	// serial and parallel searches.
	//
	// A terminal checkpoint short-circuits the whole search to this one
	// replay: the stored schedule deterministically recreates the
	// failing run, and races/accesses fall out of it as in a cold run.
	var schedule sched.Schedule
	if terminal != nil {
		schedule = *terminal.Schedule
	} else {
		schedule = sched.FromSeq(&s.foundTrace, s.fallback)
		if testHookWinner != nil {
			testHookWinner(&s.foundTrace)
		}
	}
	m.SetFaultPlan(opts.Fault)
	enf := sched.NewEnforcer(m)
	rp := opts.Tracer.Begin("lifs", "replay", 0)
	var res *sched.RunResult
	var attempts int
	// The replay is the one execution of the failing sequence the pipeline
	// cannot skip; pin snapshots along it so a subsequent Analyze on this
	// machine seeks its flip cuts without re-executing the prefix.
	var seedFC *flipCache
	if terminal == nil {
		seedFC = newFlipCache(m, init, nil, sched.CutPoints(m.Prog(), &s.foundTrace, s.am), opts.Prefix, opts.Fault, &s.prefix)
	}
	err := faultinject.Do(ctx, opts.Fault, opts.Retry, func(ctx context.Context, attempt int) error {
		attempts = attempt + 1
		if seedFC != nil {
			seedFC.drop(0) // a retry restores init, staling earlier pins
		}
		if err := m.TryRestore(init, "lifs.replay", 0, attempt); err != nil {
			return err
		}
		ro := s.runOpts()
		ro.Fault = opts.Fault
		ro.FaultOp = "lifs.replay"
		ro.FaultAttempt = attempt
		ro.Ctx = ctx
		// The replay re-executes the found trace and records into the
		// winner's own arrays: a full run with no Base, so it rewrites
		// them in place, locksets included, and its RunResult.Seq shares
		// them.
		ro.Log = s.foundTrace
		if seedFC != nil {
			ro.OnStep = func(pos int) {
				if pos < len(seedFC.cuts) && seedFC.cuts[pos] {
					seedFC.pin(pos)
				}
			}
		}
		r, err := enf.Run(schedule, ro)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		rp.End()
		return nil, err
	}
	rp.Arg("steps", int64(res.Seq.Len()))
	rp.Info("attempts", int64(attempts))
	rp.End()
	if !res.Failed() || !s.accept(res.Failure) {
		if terminal != nil {
			// The terminal checkpoint is stale (e.g. saved by a replay
			// whose fault fate differed): never trust it again — delete
			// and search fresh, exactly once.
			_ = opts.Checkpoint.Store.Delete(s.ckKey)
			m.Restore(init)
			return reproduceContext(ctx, m, opts, false)
		}
		return nil, fmt.Errorf("core: replay of the found schedule did not reproduce the failure (got %v)", res.Failure)
	}
	// Prefix-cache and work counters, including the final replay's
	// instructions (the replay itself is validation, not prefix replay,
	// so it counts toward ExecutedInstrs only).
	s.stats.ReplayedInstrs = s.prefix.replayed.Load()
	s.stats.SavedInstrs = s.prefix.saved.Load()
	s.stats.PrefixHits = int(s.prefix.hits.Load())
	s.stats.PinnedBytes = s.prefix.pinned.Load()
	s.stats.ExecutedInstrs = m.Executed() + s.workerExecuted()

	phantomsOf := s.am
	if opts.NoPhantom {
		phantomsOf = nil
	}
	races := sched.Races(res, phantomsOf)

	if checkpointing && terminal == nil {
		// Terminal checkpoint: the found schedule (small — initial
		// thread plus switch points) and the final access knowledge. A
		// restart after this point reconstructs the reproduction with a
		// single replay instead of a search. Never cleared on success:
		// a later Analyze interruption restarts the whole diagnosis,
		// and this is what makes its Reproduce leg O(1).
		saveLIFSCheckpoint(opts.Checkpoint, s.ckKey, &lifsCheckpoint{
			InitSig:       s.initSig,
			Done:          true,
			Schedule:      &schedule,
			Interleavings: s.stats.Interleavings,
			Phases:        s.stats.Phases,
			Accesses:      s.am.Export(),
			Leaves:        s.leaves,
		})
	}

	rep := &Reproduction{
		Run:      res,
		Schedule: schedule,
		Races:    races,
		Accesses: s.am,
		Stats:    s.stats,
		Leaves:   s.leaves,
	}
	if seedFC != nil {
		rep.seed = &prefixSeed{m: m, init: init, pins: seedFC.pins, cuts: seedFC.cuts}
	}
	return rep, nil
}

// testHookWinner, when set by a test, sees the winning candidate's
// records before the final replay records into them.
var testHookWinner func(trace *sched.Trace)

// searcher carries the state of one LIFS search.
type searcher struct {
	main     *workerVM        // the searched machine: probes and sweeps run here
	am       *sched.AccessMap // authoritative access knowledge, merged between phases
	opts     LIFSOptions
	guide    *guideState // compiled report guide; nil in blind mode
	fallback []string
	initSig  uint64 // state signature of the initial state (worker validation)
	stats    SearchStats
	ctx      context.Context

	errMu  sync.Mutex
	ctxErr error // set when ctx canceled the search

	// schedules is the live count of complete runs on this process's
	// machines. It enforces MaxSchedules mid-phase; the statistics come
	// from the phase merge, which counts only the units up to the winner.
	schedules atomic.Int64
	exhausted atomic.Bool  // MaxSchedules hit
	best      atomic.Int64 // lowest unit ordinal with an accepted leaf this phase
	prefix    prefixStats  // prefix-cache work counters (always tracked)

	spareMu sync.Mutex
	spare   []*workerVM // worker machines reused across phases
	// spareUnits are the units of finished phases, dead once their
	// phase has merged; addUnit reuses them.
	spareUnits []*unit

	found      bool
	foundTrace sched.Trace
	leaves     []LeafTrace

	// Checkpointing state. resume is consumed by the first phase call;
	// ckRound/ckSites mirror the round loop so mid-phase saves can
	// write a complete frontier; lastSave tracks the schedule count at
	// the last durable save for the Every cadence.
	ckKey    string
	resume   *lifsCheckpoint
	ckRound  int
	ckSites  int
	lastSave int
}

// workerVM is one machine that explores units: the searcher's main
// machine or a pool worker's private one. Snapshots are per-machine, so
// each VM pins its own copy of a group's branch state (pin); the
// machine-independent script is shared from the probe. A pin is valid
// only for tasks of the same phase and group — anything else resets the
// VM to init, which truncates the journal under the pin.
type workerVM struct {
	m    *kvm.Machine
	init *kvm.Snapshot
	buf  traceBuf
	ex   explorer // the explorer of the unit running on the machine

	pin      *kvm.Snapshot // pinned branch state, nil when cold
	pinPhase *phaseRun
	pinGroup int
}

// newWorkerVM makes m, in its initial state, a workerVM. Its arenas are
// sized once, from the program's instruction count: over the corpus a
// search's longest run holds 1.10 steps (at most 2.0) and 0.73 accesses
// (at most 1.5) per instruction, and a phase's units log up to 1.9
// accesses per instruction on the larger scenarios (at most 2.9), so
// the path arrays get one slot per instruction and the access log two.
// Most searches never regrow them, and the rest regrow once.
func newWorkerVM(m *kvm.Machine) *workerVM {
	vm := &workerVM{m: m, init: m.Snapshot()}
	n := m.Prog().NumInstrs()
	vm.buf.path = path{steps: make([]pathStep, 0, n), accs: make([]kvm.Access, 0, n)}
	vm.buf.log.Accs = make([]sched.LoggedAccess, 0, 2*n)
	return vm
}

// reset restores the VM's initial state and drops its pin, which the
// restore invalidates.
func (vm *workerVM) reset() {
	vm.pin, vm.pinPhase = nil, nil
	vm.m.Restore(vm.init)
}

// acquireVM pops a spare worker machine or builds a fresh one, which
// must match the searched machine's initial state: workers replay
// prefixes from scratch. Which VM runs a unit never changes the unit's
// result, so the launch's worker-death fault may key on a plan-global
// sequence.
func (s *searcher) acquireVM() (*workerVM, error) {
	s.spareMu.Lock()
	if n := len(s.spare); n > 0 {
		vm := s.spare[n-1]
		s.spare = s.spare[:n-1]
		s.spareMu.Unlock()
		return vm, nil
	}
	s.spareMu.Unlock()
	m, err := newWorkerMachine(s.ctx, s.main.m.Prog(), s.opts.Fault, s.opts.Retry, "lifs.worker-vm", s.initSig)
	if err != nil {
		return nil, err
	}
	return newWorkerVM(m), nil
}

// releaseVMs returns worker machines to the spare pool after a phase.
func (s *searcher) releaseVMs(vms []*workerVM) {
	s.spareMu.Lock()
	s.spare = append(s.spare, vms...)
	s.spareMu.Unlock()
}

// emptyLogs empties the access log of every machine, once the phase
// merge has folded the ranges its units recorded there. Pool workers
// sit in the spare pool between phases.
func (s *searcher) emptyLogs() {
	s.main.buf.log.Accs = s.main.buf.log.Accs[:0]
	s.spareMu.Lock()
	defer s.spareMu.Unlock()
	for _, vm := range s.spare {
		vm.buf.log.Accs = vm.buf.log.Accs[:0]
	}
}

// workerBytes sums the copy-on-write cost over the worker machines.
func (s *searcher) workerBytes() uint64 {
	s.spareMu.Lock()
	defer s.spareMu.Unlock()
	var n uint64
	for _, vm := range s.spare {
		n += vm.m.SnapshotBytes()
	}
	return n
}

// workerExecuted sums the executed-instruction counters over the worker
// machines (all workers sit in the spare pool between phases and at
// search end).
func (s *searcher) workerExecuted() uint64 {
	s.spareMu.Lock()
	defer s.spareMu.Unlock()
	var n uint64
	for _, vm := range s.spare {
		n += vm.m.Executed()
	}
	return n
}

// pinBranch pins vm's current state as the branch state of p's group
// for the prefix cache, unless the pinned-bytes budget is exhausted.
func (s *searcher) pinBranch(vm *workerVM, p *phaseRun, group int) {
	lb := vm.m.LiveBytes()
	if lb > s.opts.Prefix.budget() {
		return
	}
	s.prefix.notePinned(lb)
	vm.pin, vm.pinPhase, vm.pinGroup = vm.m.Snapshot(), p, group
}

// restorePin restores vm's pinned branch snapshot and credits the skipped
// prefix. It reports false when the prefix-restore fault fires — a
// corrupt pin — in which case the machine is untouched and the caller
// degrades to a from-scratch replay. The fault is keyed by a plan-global
// sequence, like worker death: which runs hit a pin differs across
// worker counts, but a degraded restore only changes work, never the
// explored tree.
func (s *searcher) restorePin(vm *workerVM, saved int) bool {
	if err := s.opts.Fault.Check(faultinject.KindPrefixRestore, "lifs.pin", s.opts.Fault.Seq(), 0); err != nil {
		return false
	}
	vm.m.Restore(vm.pin)
	s.prefix.hits.Add(1)
	s.prefix.saved.Add(uint64(saved))
	return true
}

func (s *searcher) setCtxErr(err error) {
	s.errMu.Lock()
	if s.ctxErr == nil {
		s.ctxErr = err
	}
	s.errMu.Unlock()
	s.exhausted.Store(true)
}

func (s *searcher) runOpts() sched.Options {
	return sched.Options{StepBudget: s.opts.StepBudget, LeakCheck: s.opts.LeakCheck}
}

func (s *searcher) stepBudget() int {
	if s.opts.StepBudget > 0 {
		return s.opts.StepBudget
	}
	return sched.DefaultStepBudget
}

// accept decides whether a failure is the one we are reproducing: the
// kind and failing instruction must match the crash report when they are
// constrained. (WantInstr zero is treated as unconstrained alongside
// NoInstr so the zero-value options accept any location.)
func (s *searcher) accept(f *sanitizer.Failure) bool {
	if f == nil {
		return false
	}
	if s.opts.WantInstr != kir.NoInstr && s.opts.WantInstr != 0 && f.Instr != s.opts.WantInstr {
		return false
	}
	if s.opts.WantKind == sanitizer.KindNone {
		return f.Kind != sanitizer.KindWatchdog
	}
	return f.Kind == s.opts.WantKind
}

// visKey identifies an explored state within one unit: the machine's
// state signature, the thread about to run and the remaining budget.
type visKey struct {
	sig    uint64
	cur    kvm.ThreadID
	budget int
}

// branchInfo describes the branch event a probe discovered: the first
// point of its group's prefix where the search forks.
type branchInfo struct {
	natural bool // a natural switch with ≥2 viable threads; else a conflict preemption
	choices int  // number of task units to create (0: the prefix ended at a leaf or was pruned)
}

// candidate is a unit's first accepted leaf. Its trace is the leaf's
// path turned into records once (path.records); the winner's trace
// becomes the canonical run: the final replay records into it.
type candidate struct {
	trace      sched.Trace
	budgetLeft int
}

// unit is one independently explorable slice of a phase: a group's probe
// (the deterministic prefix up to the branch event) or one branch choice
// at that event. Units are totally ordered by ordinal — probe of group 0,
// its tasks in canonical choice order, probe of group 1, ... — which is
// exactly the order the serial search visits them; the winner rule picks
// the candidate with the lowest ordinal, making parallel and serial
// searches return the same reproduction.
type unit struct {
	ordinal int
	group   int // initial-thread index in the fallback order
	probe   bool
	choice  int // task: index into the branch event's canonical choices
	initial kvm.ThreadID

	// log holds the accesses this unit recorded that its phase's base
	// lacks: a range of its machine's log (traceBuf.log), valid until
	// the phase merge empties that log, or an array of its own for a
	// unit restored from a checkpoint or run by the fleet.
	log    sched.AccessLog
	leaves []LeafTrace
	// err rejects a task whose initial thread or branch choice does not
	// exist (ErrBranchTask); only a fleet batch can carry one.
	err    error
	cand   *candidate
	branch branchInfo    // probe only
	script *branchScript // probe only: resume state for pinned tasks

	// The unit's own counts, which the phase merge adds to SearchStats
	// for the units up to the winner: complete runs, runs pruned as
	// equivalent states, and runs the report guide pruned or discarded.
	schedules, pruned, guidePruned int

	// Span timing (obs): the wall window where the unit ran and the
	// worker slot that ran it (-1 for the main machine). Spans are
	// committed by the phase merge step in ordinal order, never here.
	ran          bool
	tStart, tDur time.Duration
	tWorker      int
}

// phaseRun is the shared state of one iterative-deepening phase.
type phaseRun struct {
	s     *searcher
	k     int
	base  *sched.AccessMap // frozen decision map: conflict points for the whole phase
	units []*unit
	// serial sweeps each group's tasks right after its probe on the main
	// machine; otherwise the tasks go to the worker pool or the fleet.
	serial bool
	// scripts holds each group's branch script, by group index; nil
	// where the probe captured none. Written serially during the group
	// loop (probes always run on the main machine, before any parallel
	// dispatch), read-only afterwards.
	scripts []*branchScript
}

// script returns group g's branch script, nil when there is none.
func (p *phaseRun) script(g int) *branchScript {
	if g < 0 || g >= len(p.scripts) {
		return nil
	}
	return p.scripts[g]
}

// addUnit appends a unit to the phase, reusing a spare unit of an
// earlier phase when there is one.
func (p *phaseRun) addUnit(group int, probe bool, choice int, initial kvm.ThreadID) *unit {
	var u *unit
	if n := len(p.s.spareUnits); n > 0 {
		u = p.s.spareUnits[n-1]
		p.s.spareUnits = p.s.spareUnits[:n-1]
	} else {
		u = new(unit)
	}
	*u = unit{
		ordinal: len(p.units),
		group:   group,
		probe:   probe,
		choice:  choice,
		initial: initial,
	}
	p.units = append(p.units, u)
	return u
}

// phase explores all schedules with at most k preemptions. Conflict-point
// decisions consult the AccessMap frozen at phase entry, so exploration
// from a machine state is a pure function of (state, thread, budget) — the
// property that makes the parallel search deterministic. Accesses
// recorded during the phase are merged back into the searcher's map
// afterwards (and feed the next phase/round).
func (s *searcher) phase(k int) error {
	if err := s.ctx.Err(); err != nil {
		s.setCtxErr(err)
		return nil
	}
	if s.exhausted.Load() {
		return nil
	}
	start := time.Now()
	schedBefore, prunedBefore := s.stats.Schedules, s.stats.Pruned
	ph := s.opts.Tracer.Begin("lifs", "phase", 0)
	ph.Arg("budget", int64(k))
	defer func() {
		ph.Info("schedules", int64(s.stats.Schedules-schedBefore))
		ph.Info("pruned", int64(s.stats.Pruned-prunedBefore))
		ph.End()
	}()
	p := &phaseRun{
		s: s, k: k, base: s.am,
		scripts: make([]*branchScript, len(s.fallback)),
		serial:  s.opts.Workers <= 1,
	}
	s.best.Store(math.MaxInt64)
	// The branch scripts in the main machine's arena are dead: the last
	// phase has merged. A parallel phase keeps each group's script there
	// until its tasks have run.
	s.main.buf.scripts.rewind(0)

	// A mid-phase checkpoint re-enters here: the completed units are
	// restored (with their access records, leaves and branch shapes), and
	// the remaining groups explore exactly as the lost run would have —
	// no unit's exploration depends on another's.
	startGroup := 0
	if rp := s.takeResumePartial(k); rp != nil {
		startGroup = rp.GroupsDone
		for _, us := range rp.Units {
			u := p.addUnit(us.Group, us.Probe, us.Choice, kvm.ThreadID(us.Initial))
			u.ran = us.Ran
			u.log = sched.ImportAccessLog(us.Accesses)
			u.leaves = us.Leaves
			u.branch = branchInfo{natural: us.BranchNatural, choices: us.BranchChoices}
		}
	}

	// The initial thread choice is itself a decision: branch over every
	// declared thread (spawned threads cannot exist yet). Each group's
	// probe runs the deterministic prefix on the main machine and leaves
	// the machine pinned at the group's branch; a
	// serial phase sweeps the group's tasks right after it, a parallel
	// one hands all tasks to the pool or the fleet below.
	var tasks []*unit
	for gi := startGroup; gi < len(s.fallback); gi++ {
		if s.exhausted.Load() || s.ctxErr != nil {
			break
		}
		// Everything not yet probed has a higher ordinal than an accepted
		// candidate: it cannot win.
		if s.best.Load() < int64(len(p.units)) {
			break
		}
		t := s.main.m.ThreadByName(s.fallback[gi])
		if t == nil {
			continue
		}
		if p.serial {
			// A serial phase has swept the last group's tasks: the
			// script in the arena is dead.
			s.main.buf.scripts.rewind(0)
		}
		pu := p.addUnit(gi, true, -1, t.ID)
		s.main.reset()
		s.timeUnit(pu, -1, func() { newExplorer(p, pu, s.main, true).run(nil) })
		if pu.script != nil {
			p.scripts[gi] = pu.script
			s.pinBranch(s.main, p, gi)
		}
		first := len(p.units)
		for c := 0; c < pu.branch.choices; c++ {
			p.addUnit(gi, false, c, t.ID)
		}
		if !p.serial {
			tasks = append(tasks, p.units[first:]...)
			continue
		}
		s.sweep(p, p.units[first:])
		// Serial group boundary: a consistent cut — every unit so far
		// ran to completion and (if we get here without a candidate)
		// none accepted. Checkpoint on the Every cadence.
		s.maybeSavePartial(p, k, gi+1)
	}

	if len(tasks) > 0 && s.ctxErr == nil {
		if s.opts.Dispatch != nil {
			s.dispatchTasks(p, tasks, s.opts.Dispatch)
		} else if err := s.runPool(p, tasks); err != nil {
			return err
		}
		// Whatever the fleet did not return or a pool the fault plan
		// killed left unrun — never a task past a candidate — runs on
		// the main machine.
		s.sweep(p, tasks)
	}

	// Deterministic winner rule: the lowest phase wins by construction of
	// iterative deepening; within the phase, the candidate with the lowest
	// unit ordinal — the first accept of the serial visit order. Merge the
	// access records, leaves and counts of every unit up to the winner
	// (later units may have been cut short and must not leak into the
	// result): each of them ran to completion, whichever machine ran it.
	winner := -1
	for _, u := range p.units {
		if u.cand != nil {
			winner = u.ordinal
			break
		}
	}
	for _, u := range p.units {
		if winner >= 0 && u.ordinal > winner {
			break
		}
		s.am.Fold(u.log)
		s.leaves = append(s.leaves, u.leaves...)
		s.stats.Schedules += u.schedules
		s.stats.Pruned += u.pruned
		s.stats.GuidePruned += u.guidePruned
		s.emitUnit(p, u)
	}
	s.emptyLogs()
	if s.stats.Schedules >= s.opts.MaxSchedules {
		// Fleet-run units count only here.
		s.exhausted.Store(true)
	}
	if winner >= 0 {
		w := p.units[winner]
		s.found = true
		s.foundTrace = w.cand.trace
		s.stats.Interleavings = k - w.cand.budgetLeft
	}
	s.spareUnits = append(s.spareUnits, p.units...)
	s.stats.Phases = append(s.stats.Phases, PhaseStat{
		Budget:    k,
		Schedules: s.stats.Schedules - schedBefore,
		Elapsed:   time.Since(start),
	})
	return nil
}

// runPool runs a parallel phase's tasks on the local worker pool. A
// pool the fault plan killed returns nil: it has joined, so every ran
// flag is settled, and the caller's sweep runs what it left.
func (s *searcher) runPool(p *phaseRun, tasks []*unit) error {
	var vmMu sync.Mutex
	var vms []*workerVM
	err := runWorkers(s.ctx, s.opts.Tracer, "lifs-task", s.opts.Workers, len(tasks),
		func(int) (*workerVM, error) {
			vm, err := s.acquireVM()
			if err != nil {
				return nil, err
			}
			vmMu.Lock()
			vms = append(vms, vm)
			vmMu.Unlock()
			return vm, nil
		},
		func(_ context.Context, vm *workerVM, worker, i int) error {
			if tu := tasks[i]; !s.exhausted.Load() && s.best.Load() >= int64(tu.ordinal) {
				s.runTask(p, tu, vm, worker)
			}
			return nil
		})
	s.releaseVMs(vms)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.setCtxErr(err)
	case !faultinject.Is(err):
		return err
	}
	return nil
}

// sweep runs on the main machine, in ordinal order, every task of tasks
// nothing else ran: a serial phase's group, and the tasks a parallel
// phase's pool or fleet left. It is the one place tasks run on the main
// machine. It stops at the first candidate: nothing after it can win.
func (s *searcher) sweep(p *phaseRun, tasks []*unit) {
	for _, tu := range tasks {
		if s.exhausted.Load() || s.ctxErr != nil || tu.cand != nil || s.best.Load() < int64(tu.ordinal) {
			return
		}
		if !tu.ran {
			s.runTask(p, tu, s.main, -1)
		}
	}
}

// runTask explores task unit tu on vm, the one way every task runs:
// serial, pool, sweep and fleet node alike. It resumes from vm's pin when
// the pin holds tu's group branch state of this phase. Otherwise it
// resets vm, replays the group prefix and, when the group has a branch
// script a later task could resume from, pins vm at the branch for the
// group's next task on this machine. A fleet node's one-task phase holds
// no script, so it pins nothing.
func (s *searcher) runTask(p *phaseRun, tu *unit, vm *workerVM, worker int) {
	e := newExplorer(p, tu, vm, false)
	sc := p.script(tu.group)
	if sc == nil || vm.pinPhase != p || vm.pinGroup != tu.group || !s.restorePin(vm, len(sc.path.steps)) {
		e.pinAtBranch = sc != nil
		sc = nil
		vm.reset()
	}
	s.timeUnit(tu, worker, func() { e.run(sc) })
}

// takeResumePartial consumes the searcher's pending resume state and
// returns its mid-phase cut when it belongs to phase k. It fires at
// most once: the first phase a resumed search enters is by construction
// the checkpoint's NextPhase.
func (s *searcher) takeResumePartial(k int) *partialPhase {
	ck := s.resume
	if ck == nil {
		return nil
	}
	s.resume = nil
	if ck.Partial == nil || ck.Partial.Budget != k {
		return nil
	}
	return ck.Partial
}

// maybeSavePartial checkpoints a serial phase at a group boundary once
// CheckpointConfig.Every schedules have run since the last save. It
// only fires on consistent cuts: no accepted candidate (which would end
// the phase), no exhaustion, no cancellation.
func (s *searcher) maybeSavePartial(p *phaseRun, k, groupsDone int) {
	cfg := s.opts.Checkpoint
	if !cfg.enabled() || s.opts.NoLeastFirst || cfg.Every <= 0 {
		return
	}
	if s.best.Load() != math.MaxInt64 || s.exhausted.Load() || s.ctxErr != nil {
		return
	}
	n := s.stats.Schedules
	for _, u := range p.units {
		n += u.schedules
	}
	if n-s.lastSave < cfg.Every {
		return
	}
	s.lastSave = n
	pp := &partialPhase{Budget: k, GroupsDone: groupsDone}
	for _, u := range p.units {
		pp.Units = append(pp.Units, unitSnap{
			Group:         u.group,
			Probe:         u.probe,
			Choice:        u.choice,
			Initial:       int(u.initial),
			Ran:           u.ran,
			BranchNatural: u.branch.natural,
			BranchChoices: u.branch.choices,
			Accesses:      u.log.Export(),
			Leaves:        u.leaves,
		})
	}
	// Accesses is the phase-entry map (the phase merges unit records
	// only at its end, so s.am is still the frozen base here); the
	// in-phase records ride inside Units and are re-merged on resume.
	saveLIFSCheckpoint(cfg, s.ckKey, &lifsCheckpoint{
		InitSig:           s.initSig,
		Round:             s.ckRound,
		NextPhase:         k,
		SitesAtRoundStart: s.ckSites,
		Phases:            s.stats.Phases,
		Accesses:          s.am.Export(),
		Leaves:            s.leaves,
		Partial:           pp,
	})
}

// timeUnit records the unit's wall window and worker slot for the tracer
// when enabled. The span itself is committed later, by the phase merge
// step, in ordinal order.
func (s *searcher) timeUnit(u *unit, worker int, f func()) {
	u.ran = true
	u.tWorker = worker
	tr := s.opts.Tracer
	if tr == nil {
		f()
		return
	}
	u.tStart = tr.Now()
	f()
	u.tDur = tr.Now() - u.tStart
}

// emitUnit commits one merged unit's span. It runs in the phase merge
// step — single-threaded, in unit ordinal order, and only for units up
// to the winner — which is what makes the canonical event sequence
// identical across worker counts: exactly those units ran to completion
// in the serial search too, and their Args (ordinal, group, choice,
// branch shape, acceptance) are pure functions of the searched state.
func (s *searcher) emitUnit(p *phaseRun, u *unit) {
	tr := s.opts.Tracer
	if tr == nil || !u.ran {
		return
	}
	name := "task"
	if u.probe {
		name = "probe"
	}
	ev := obs.Event{
		Cat: "lifs", Name: name, Track: int64(u.ordinal) + 1,
		Start: u.tStart, Dur: u.tDur,
		Args: []obs.Arg{
			{Key: "budget", Val: int64(p.k)},
			{Key: "ordinal", Val: int64(u.ordinal)},
			{Key: "group", Val: int64(u.group)},
		},
		Info: []obs.Arg{{Key: "worker", Val: int64(u.tWorker)}},
	}
	if u.probe {
		ev.Args = append(ev.Args,
			obs.Arg{Key: "choices", Val: int64(u.branch.choices)},
			obs.Arg{Key: "natural", Val: b2i(u.branch.natural)})
	} else {
		ev.Args = append(ev.Args, obs.Arg{Key: "choice", Val: int64(u.choice)})
	}
	ev.Args = append(ev.Args, obs.Arg{Key: "accepted", Val: b2i(u.cand != nil)})
	tr.Emit(ev)
}

// explorer drives one unit's exploration on one machine.
type explorer struct {
	s  *searcher
	p  *phaseRun
	u  *unit
	vm *workerVM
	m  *kvm.Machine // vm.m

	probe bool
	// splitPending is true until the unit passes its group's branch event:
	// the probe stops there, a task takes its assigned choice there.
	splitPending bool
	// pinAtBranch pins vm at the task's branch event, with the machine at
	// the branch state and before the choice is taken.
	pinAtBranch bool
	// skipBranch makes the first loop iteration of a pin-resumed
	// fall-through task skip the return-stack check and the conflict
	// block: an uncached fall-through proceeds straight from the branch
	// event to the Step without re-entering the loop top, so a resumed
	// one must not re-run the checks that sit above it.
	skipBranch bool
	// buf is vm's scratch: the trace (the executed steps of the current
	// path), the unit's access log and its visited states live in it.
	buf     *traceBuf
	ctxTick int
	aborted bool
	// suspectSeen marks the guide suspects executed on the current path
	// (bit i = guideState.suspects[i]); saved and restored alongside the
	// trace at backtrack points.
	suspectSeen uint32
	// offReport flags that the report guide proved the reported failure
	// impossible below the current path: the run completes straight-line
	// (for access discovery) without branching and its leaf is discarded.
	// Reset alongside suspectSeen at backtrack points.
	offReport bool
}

// newExplorer readies vm's explorer for unit u.
func newExplorer(p *phaseRun, u *unit, vm *workerVM, probe bool) *explorer {
	vm.ex = explorer{
		s:            p.s,
		p:            p,
		u:            u,
		vm:           vm,
		m:            vm.m,
		buf:          &vm.buf,
		probe:        probe,
		splitPending: true,
	}
	return &vm.ex
}

// run explores the unit — from the machine's initial state, or with a
// script from its group's restored branch state — and leaves the range
// of the machine's access log it recorded on the unit.
func (e *explorer) run(sc *branchScript) {
	lo := e.buf.startUnit()
	defer func() { e.u.log = e.buf.log.From(lo) }()
	if sc == nil {
		if e.m.Thread(e.u.initial) == nil {
			e.u.err = fmt.Errorf("%w: initial thread %d of %d", ErrBranchTask, e.u.initial, e.m.NumThreads())
			return
		}
		e.explore(e.u.initial, e.p.k, sched.Diversions{})
	} else {
		e.resumeFromPin(sc, e.p.k)
	}
}

// resumeFromPin continues a task from its group's restored branch state,
// reproducing exactly what the uncached task would do after replaying
// the prefix and flipping splitPending: take the assigned choice. The
// shared script's path is copied into the machine's trace buffer.
func (e *explorer) resumeFromPin(sc *branchScript, budget int) {
	e.splitPending = false
	e.buf.path.copyFrom(&sc.path)
	e.suspectSeen = sc.seen
	if sc.natural {
		e.explore(sc.choices[e.u.choice], budget, sc.div)
		return
	}
	if c := e.u.choice; c < len(sc.choices) {
		// Preemption: switch to the target, spending one budget unit —
		// the uncached task recurses into explore the same way.
		e.explore(sc.choices[c], budget-1, sc.div)
		return
	}
	// Fall-through: continue the conflict-point thread. The uncached
	// task proceeds straight to the Step; skipBranch suppresses the
	// loop-top checks it would not have re-run.
	e.skipBranch = true
	e.explore(sc.cur, budget, sc.div)
}

// passBranch takes a task past its group's branch event. The trace so
// far re-executed the probe's known prefix; pinAtBranch pins it.
func (e *explorer) passBranch() {
	e.splitPending = false
	e.s.prefix.replayed.Add(uint64(len(e.buf.path.steps)))
	if e.pinAtBranch {
		e.s.pinBranch(e.vm, e.p, e.u.group)
	}
}

// choiceOK checks the task's choice against the n choices of its branch
// event. A fleet batch carries the choice from a peer; one outside the
// event's choices fails the unit with ErrBranchTask and ends it.
func (e *explorer) choiceOK(n int) bool {
	if c := e.u.choice; c >= 0 && c < n {
		return true
	}
	e.u.err = fmt.Errorf("%w: choice %d of %d at the branch event", ErrBranchTask, e.u.choice, n)
	e.aborted = true
	return false
}

// captureScript saves the machine-independent half of the branch state
// (probe only), so pinned tasks can resume without replaying the prefix.
func (e *explorer) captureScript(natural bool, choices []kvm.ThreadID, cur kvm.ThreadID, div sched.Diversions) {
	e.u.script = &branchScript{
		path:    e.buf.scripts.keep(&e.buf.path),
		seen:    e.suspectSeen,
		div:     div,
		natural: natural,
		choices: append([]kvm.ThreadID(nil), choices...),
		cur:     cur,
	}
}

// canceled polls the context (every 64 calls — it sits on the per-step
// hot path) and checks whether a lower-ordinal candidate supersedes this
// unit, flipping the unit into unwinding mode.
func (e *explorer) canceled() bool {
	if e.aborted {
		return true
	}
	e.ctxTick++
	if e.ctxTick&63 != 0 {
		return false
	}
	if err := e.s.ctx.Err(); err != nil {
		e.s.setCtxErr(err)
		e.aborted = true
		return true
	}
	if e.s.best.Load() < int64(e.u.ordinal) {
		e.aborted = true
		return true
	}
	return false
}

// explore runs the machine from its current state with the given current
// thread, preemption budget and lock-diversion stack, branching at
// decision points. It applies the enforcer's scheduling rules (package
// sched), so the enforcer replays the winning path step for step. It
// returns true when the target failure was found on this unit.
func (e *explorer) explore(cur kvm.ThreadID, budget int, div sched.Diversions) bool {
	for {
		if e.aborted || e.s.exhausted.Load() || e.canceled() {
			return false
		}
		if e.m.Failure() != nil {
			return e.leaf(budget)
		}
		// Report-guided mode: when reachability says the reported failure
		// has become impossible below this state — the accept site is
		// unreachable (with no live allocation from it when leaks are in
		// play), or a not-yet-executed suspect is unreachable — the path
		// flips to off-report mode. Off-report exploration stops BRANCHING
		// (the whole subtree fan-out is the saved work) but still runs one
		// straight-line completion, because the accesses it records feed
		// conflict-point discovery and race identification: truncating the
		// run here would starve later phases and the analysis stage of the
		// access knowledge a blind search gathers from the same runs. The
		// decision is a pure function of machine state and executed-suspect
		// history, so serial and parallel searches agree. Off-report leaves
		// (and on-report leaves the accept filter rejects) are discarded in
		// leaf() rather than counted — a blind search must execute and
		// count these same runs, which is what makes guided
		// Stats.Schedules strictly smaller whenever any run ends benignly.
		if !e.offReport && e.guidePruned() {
			e.offReport = true
		}
		if sched.Ended(e.m, e.s.opts.LeakCheck) {
			return e.leaf(budget)
		}

		// Return from a lock diversion once the diverted-from thread can
		// run again. A pin-resumed fall-through skips the first check: its
		// uncached twin stepped straight from the branch event without
		// re-entering the loop top.
		if !e.skipBranch {
			cur = div.Resume(e.m, cur)
		}
		if !e.m.CanRun(cur) {
			if owner, ok := div.Divert(e.m, cur); ok {
				cur = owner
				continue
			}
			// Natural switch: branch over every viable thread (free — the
			// paper's interleaving count only counts preemptions of a
			// running thread). No visited-state check here: the chosen
			// child would immediately re-encounter the same machine state
			// at its first conflict point, and the check there performs
			// the deduplication. Some thread can run, as the run has not
			// Ended; off-report, the run completes straight-line.
			choices := e.m.Runnable()
			if e.offReport || len(choices) == 1 {
				cur = choices[0]
				continue
			}
			if e.splitPending {
				// The group's branch event. The probe stops here and the
				// choices become task units; a task takes its one choice.
				if e.probe {
					e.u.branch = branchInfo{natural: true, choices: len(choices)}
					e.captureScript(true, choices, cur, div)
					return false
				}
				if !e.choiceOK(len(choices)) {
					return false
				}
				e.passBranch()
				cur = choices[e.u.choice]
				continue
			}
			snap := e.m.Snapshot()
			mark := len(e.buf.path.steps)
			seen := e.suspectSeen
			for _, choice := range choices {
				if e.explore(choice, budget, div) {
					return true
				}
				if e.aborted || e.s.exhausted.Load() {
					return false
				}
				e.m.Restore(snap)
				e.buf.path.rewind(mark)
				e.suspectSeen = seen
				e.offReport = false
			}
			return false
		}

		// Conflicting instructions are the scheduling decision points:
		// states the unit already reached are pruned here (a path
		// reaching a state the unit already explored with the same
		// remaining budget produces only equivalent sequences, and a state
		// loop ends), and remaining preemption budget branches to every
		// other viable thread. Off-report paths skip this entirely: they
		// neither branch nor record visited states (their subtree fate
		// differs from a normal path's, so a record here would prune live
		// work).
		if e.skipBranch {
			// Pin-resumed fall-through: the branch event (prune check
			// included) already ran in the probe; proceed to the Step.
			e.skipBranch = false
		} else if !e.offReport && e.isConflictPoint(cur) {
			branched := false
			if e.splitPending && budget > 0 {
				if others := e.othersViable(cur); len(others) > 0 {
					// The group's branch event: one task per preemption
					// target plus the fall-through (canonically last).
					if e.pruneCheck(cur, budget) {
						return false
					}
					if e.probe {
						e.u.branch = branchInfo{choices: len(others) + 1}
						e.captureScript(false, others, cur, div)
						return false
					}
					if !e.choiceOK(len(others) + 1) {
						return false
					}
					e.passBranch()
					if c := e.u.choice; c < len(others) {
						return e.explore(others[c], budget-1, div)
					}
					// Fall-through task: continue the current thread with
					// the budget unchanged.
					branched = true
				}
			}
			if !branched {
				if e.pruneCheck(cur, budget) {
					return false
				}
				if !e.splitPending && budget > 0 {
					others := e.othersViable(cur)
					snap := e.m.Snapshot()
					mark := len(e.buf.path.steps)
					seen := e.suspectSeen
					for _, u := range others {
						if e.explore(u, budget-1, div) {
							return true
						}
						if e.aborted || e.s.exhausted.Load() {
							return false
						}
						e.m.Restore(snap)
						e.buf.path.rewind(mark)
						e.suspectSeen = seen
						e.offReport = false
					}
					// Fall through: continue the current thread without
					// preempting (budget unchanged).
				}
			}
		}

		ev, err := e.m.Step(cur)
		if err != nil {
			// Driving bug; surface as exhaustion rather than panic.
			e.s.exhausted.Store(true)
			return false
		}
		if !ev.Executed {
			if owner, ok := div.Divert(e.m, cur); ok {
				cur = owner
			}
			continue
		}
		curT := e.m.Thread(cur)
		e.record(curT, ev)
		if sched.Watchdog(e.m, len(e.buf.path.steps), e.s.stepBudget(), curT, ev.Instr.ID) {
			return e.leaf(budget)
		}
	}
}

// record appends an executed step to the trace, and its accesses to the
// unit's access log unless the phase-frozen base already holds them. The
// filter cannot change the merged map: the phase merge is a union into
// the searcher's map, which contains the base, and every unit of a phase
// — local, remote (BranchBatch.Base) or resumed mid-phase — filters
// against the same base.
func (e *explorer) record(curT *kvm.Thread, ev kvm.StepEvent) {
	if g := e.s.guide; g != nil {
		if bits, ok := g.byInstr[ev.Instr.ID]; ok {
			e.suspectSeen |= bits
		}
	}
	if len(ev.Accesses) > 0 {
		t := e.buf.thread(curT, e.p.base)
		for _, a := range ev.Accesses {
			if !e.p.base.HasAt(t.base, ev.Instr.ID, a.Addr, a.Write) {
				e.buf.logAccess(sched.Logged(t.log, ev.Instr.ID, a.Addr, a.Write))
			}
		}
	}
	e.buf.path.append(curT.ID, ev)
}

// leaf finishes one complete run.
func (e *explorer) leaf(budgetLeft int) bool {
	f := e.m.Failure()
	// Report-guided discard: a run that ended off-report, or with a
	// failure the accept filter rejects (including none at all), is per
	// the report's testimony not the reported failure. Its accesses were
	// already recorded for discovery; the run itself is not credited as a
	// schedule. Winner-preserving — the reproduction must be accepted, and
	// the winner's own path never goes off-report (every suspect executes
	// on it and the accept site stays reachable until the failure).
	if e.s.guide != nil && (e.offReport || !e.s.accept(f)) {
		e.u.guidePruned++
		return false
	}
	e.u.schedules++
	if int(e.s.schedules.Add(1)) >= e.s.opts.MaxSchedules {
		e.s.exhausted.Store(true)
	}
	if e.s.opts.RecordLeaves {
		lt := LeafTrace{Failed: f != nil, Preemptions: e.p.k - budgetLeft}
		prog := e.m.Prog()
		for _, st := range e.buf.path.steps {
			if in := prog.InstrAt(st.instr); in.Label != "" {
				lt.Labels = append(lt.Labels, in.Label)
			}
		}
		e.u.leaves = append(e.u.leaves, lt)
	}
	if e.s.accept(f) {
		// The interleaving count is the preemption budget the search
		// actually consumed on this path — exactly the paper's notion
		// (natural switches at thread completion and involuntary lock
		// diversions are free).
		e.u.cand = &candidate{
			trace:      e.buf.path.records(e.m),
			budgetLeft: budgetLeft,
		}
		// CAS-min so lower ordinals always win; units above the best
		// candidate cancel themselves at their next poll.
		for {
			b := e.s.best.Load()
			if int64(e.u.ordinal) >= b || e.s.best.CompareAndSwap(b, int64(e.u.ordinal)) {
				break
			}
		}
		return true
	}
	return false
}

func (e *explorer) othersViable(cur kvm.ThreadID) []kvm.ThreadID {
	var out []kvm.ThreadID
	for _, tid := range e.m.Runnable() {
		if tid != cur {
			out = append(out, tid)
		}
	}
	return out
}

// isConflictPoint reports whether the thread's next instruction performs an
// access known to conflict with an access of a different thread — the
// scheduling decision points of LIFS. It consults the phase-frozen map,
// never the in-flight records, so every unit sees the same decisions.
func (e *explorer) isConflictPoint(cur kvm.ThreadID) bool {
	accs := e.m.PeekAccesses(cur)
	if len(accs) == 0 {
		return false
	}
	t := e.buf.thread(e.m.Thread(cur), e.p.base).base
	for _, a := range accs {
		if e.p.base.ConflictsBy(t, a.Addr, a.Write) {
			return true
		}
	}
	return false
}

// pruneCheck consults and updates the unit's own visited-state set: it
// prunes a state the unit already reached with the same current thread
// and remaining budget, which ends state loops (a spin-wait revisits its
// state on every turn) and skips a second path into ground the unit
// already explored. Units never see each other's states, so each unit's
// exploration is a pure function of the phase and the unit, whichever
// machine runs it and in whatever order. A task replaying its group
// prefix (splitPending) neither checks nor inserts — the probe checked
// those states — so its set starts empty at the branch event, exactly
// as for a task resumed from a pin.
func (e *explorer) pruneCheck(cur kvm.ThreadID, budget int) bool {
	if e.s.opts.NoPruning || (e.splitPending && !e.probe) {
		return false
	}
	key := visKey{sig: e.m.StateSignature(), cur: cur, budget: budget}
	if _, ok := e.buf.visited[key]; ok {
		e.u.pruned++
		return true
	}
	if e.buf.visited == nil {
		e.buf.visited = make(map[visKey]struct{})
	}
	e.buf.visited[key] = struct{}{}
	return false
}

// guidePruned applies the report guide's reachability test to the
// machine's current state: true flips the path into off-report mode
// (straight-line completion, leaf discarded). The counter tallies these
// entries plus every discarded leaf.
func (e *explorer) guidePruned() bool {
	g := e.s.guide
	if g == nil {
		return false
	}
	if g.pruned(e.m, e.suspectSeen) {
		e.u.guidePruned++
		return true
	}
	return false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
