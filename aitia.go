// Package aitia is the public API of the AITIA reproduction: automated
// root-cause diagnosis of kernel concurrency failures, after "Diagnosing
// Kernel Concurrency Failures with AITIA" (EuroSys 2023).
//
// The library diagnoses concurrency failures of kernel programs written
// in a small instruction-level IR (see Compile for the textual form, or
// the built-in scenario corpus reproducing the paper's 22 real-world
// bugs). Diagnosis runs in two stages:
//
//  1. Least Interleaving First Search (LIFS) reproduces the failure as a
//     totally ordered failure-causing instruction sequence, exploring
//     interleavings of conflicting instructions from the smallest number
//     of preemptions upward, with DPOR-style pruning.
//
//  2. Causality Analysis flips the order of each data race in the
//     sequence — one at a time, everything else fixed — and re-executes:
//     races whose flip prevents the failure form the root cause; their
//     flip runs reveal which other races they steer (race-steered control
//     flows). The result is a causality chain, e.g.
//
//     (A2 => B11 ∧ B2 => A6) → A6 => B12 → B17 => A12 → kernel BUG (BUG_ON)
//
// Quick start:
//
//	res, err := aitia.DiagnoseScenario("cve-2017-15649", aitia.Options{})
//	if err != nil { ... }
//	fmt.Println(res.Chain)
package aitia

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"aitia/internal/core"
	"aitia/internal/durable"
	"aitia/internal/faultinject"
	"aitia/internal/fuzz"
	"aitia/internal/history"
	"aitia/internal/ingest"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/manager"
	"aitia/internal/mem"
	"aitia/internal/obs"
	"aitia/internal/prior"
	"aitia/internal/report"
	"aitia/internal/sanitizer"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

// Options configure a diagnosis.
type Options struct {
	// Workers is the number of parallel reproducer/diagnoser instances
	// (the paper's VM fleet; default GOMAXPROCS).
	Workers int
	// LIFSWorkers parallelizes the LIFS search itself across that many
	// goroutines, each driving its own kernel VM with copy-on-write
	// snapshots. Zero or one searches serially; parallel and serial
	// searches return the same reproduction.
	LIFSWorkers int
	// MaxInterleavings bounds LIFS's iterative deepening (default 3).
	MaxInterleavings int
	// StepBudget is the per-run watchdog limit.
	StepBudget int
	// LeakCheck enables the end-of-run memory-leak oracle.
	LeakCheck bool
	// FailureKind restricts reproduction to a failure kind from the crash
	// report (empty = any).
	FailureKind string
	// FailureLabel restricts reproduction to a failing instruction label.
	FailureLabel string
	// Tracer collects execution spans of the whole pipeline (LIFS phases
	// and search units, causality flip tests, worker-pool dispatch); see
	// internal/obs. Export the collected events with obs.WriteChrome for
	// chrome://tracing / Perfetto. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// FaultRate arms deterministic fault injection across the pipeline
	// (snapshot-restore errors, schedule-enforcement stalls, worker-VM
	// deaths) with this per-decision probability; 0 disables injection
	// entirely at zero cost. FaultSeed makes the injected faults
	// reproducible: the same (seed, rate) yields the same faults — and
	// the same diagnosis — regardless of Workers. Intended for chaos
	// testing the diagnoser itself; see internal/faultinject.
	FaultRate float64
	FaultSeed int64
	// Retry bounds the re-execution of faulted operations (per-attempt
	// timeout, bounded exponential backoff); zero-value knobs mean
	// faultinject.DefaultRetry.
	Retry faultinject.RetryPolicy
	// CheckpointDir, when set, arms durable crash recovery: the LIFS
	// search checkpoints its frontier there (at every deepening-phase
	// boundary, keyed by the program's content hash), the analysis
	// checkpoints every settled flip verdict, and a re-run after a crash
	// resumes from the latest valid snapshots, producing the same
	// diagnosis as an uninterrupted run with strictly fewer schedules.
	// Empty disables checkpointing at zero cost.
	CheckpointDir string
	// CheckpointEvery additionally checkpoints serial LIFS searches
	// mid-phase after this many schedules. Zero checkpoints at phase
	// boundaries only. Ignored without CheckpointDir.
	CheckpointEvery int
	// PriorDir, when set, arms the learned flip prior: settled flip
	// verdicts are aggregated into per-race-pair counts (keyed by a
	// stable cross-program signature, persisted in this directory) and
	// every diagnosis ranks its flip tests by the learned root-cause
	// probability. The prior reorders flips, and it skips the flip of a
	// race whose signature was benign in every diagnosis so far,
	// settling it benign without a run. It never settles a chain member:
	// every chain edge comes from a flip run. The benign skip is a
	// cross-program inference; aitia-bench -check-flips checks it
	// leave-one-out on the scenario corpus only. An absent or corrupt
	// prior degrades to fixed order. Empty disables the prior at zero
	// cost.
	PriorDir string
}

// priorStore opens and warm-loads the options' flip prior, or returns
// nils when the prior is off. The returned checkpoint store is where a
// completed diagnosis persists what it learned (savePrior).
func priorStore(opts Options) (*prior.Store, *durable.CheckpointStore, error) {
	if opts.PriorDir == "" {
		return nil, nil, nil
	}
	store, err := durable.OpenCheckpointStore(opts.PriorDir, false)
	if err != nil {
		return nil, nil, err
	}
	pst := prior.LoadFrom(store, prior.Config{})
	return pst, store, nil
}

// savePrior persists what a completed diagnosis taught the prior.
func savePrior(pst *prior.Store, store *durable.CheckpointStore) {
	if pst == nil || store == nil {
		return
	}
	_ = pst.SaveTo(store)
}

// checkpointConfig opens the options' checkpoint store, or returns nil
// when checkpointing is off.
func checkpointConfig(opts Options) (*core.CheckpointConfig, error) {
	if opts.CheckpointDir == "" {
		return nil, nil
	}
	store, err := durable.OpenCheckpointStore(opts.CheckpointDir, false)
	if err != nil {
		return nil, err
	}
	return &core.CheckpointConfig{Store: store, Every: opts.CheckpointEvery}, nil
}

// faultPlan builds the options' fault plan, or nil when injection is off.
func faultPlan(opts Options) *faultinject.Plan {
	if opts.FaultRate <= 0 {
		return nil
	}
	return faultinject.NewPlan(opts.FaultSeed, opts.FaultRate)
}

// Program is a compiled kernel program.
type Program struct {
	prog *kir.Program
}

// Compile assembles a program from kasm source text. See package
// internal/kasm for the format.
func Compile(src string) (*Program, error) {
	p, err := kasm.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Program{prog: p}, nil
}

// Source disassembles the program back to kasm text.
func (p *Program) Source() string { return kasm.Disassemble(p.prog) }

// Race describes one data race of a diagnosis in paper notation. The
// type is JSON-serializable (it appears in ResultSummary).
type Race struct {
	// First and Second are the racing instructions ("A6", "B12" or
	// "fn+idx"), in the failure-causing order First => Second.
	First  string `json:"first"`
	Second string `json:"second"`
	// Threads executing the two accesses.
	FirstThread  string `json:"first_thread"`
	SecondThread string `json:"second_thread"`
	// Variable is the raced variable (global symbol or object address).
	Variable string `json:"variable"`
	// Phantom marks races whose Second access never executed in the
	// failing run (the failure truncated its thread first).
	Phantom bool `json:"phantom,omitempty"`
	// Ambiguous marks surrounding races that could not be tested in
	// isolation (§3.4).
	Ambiguous bool `json:"ambiguous,omitempty"`
	// Sig is the stable cross-program pair signature the learned flip
	// prior keys this race by (see internal/prior.Signature).
	Sig string `json:"sig,omitempty"`
	// Prior marks a benign verdict settled by the learned prior without
	// executing a flip test.
	Prior bool `json:"prior,omitempty"`
}

// PhaseStat summarizes one iterative-deepening phase of the LIFS search.
type PhaseStat struct {
	Budget    int           `json:"budget"`
	Schedules int           `json:"schedules"`
	Elapsed   time.Duration `json:"elapsed"`
}

// Result is a completed diagnosis. It holds the program, reproduction
// and diagnosis it was built from — every flip run included — so that
// Report can render the full text on demand; a caller that keeps many
// results should keep their Summary instead.
type Result struct {
	// Scenario is the scenario name, when diagnosed from the corpus.
	Scenario string
	// Failure is the crash symptom ("kernel BUG (BUG_ON)", ...).
	Failure string
	// FailSequence is the failure-causing instruction sequence (labelled
	// instructions only).
	FailSequence string
	// Chain is the formatted causality chain.
	Chain string
	// ChainRaces are the chain's races in chain order.
	ChainRaces []Race
	// Benign are the races excluded from the chain by Causality Analysis.
	Benign []Race
	// Unknown are races whose flip tests could not complete (injected
	// faults or timeouts exhausted the retry budget); they are excluded
	// from the chain and the diagnosis is marked Partial.
	Unknown []Race
	// Partial marks a degraded diagnosis: the chain is built only from
	// the races that could be tested. PartialReason is machine-readable,
	// e.g. "flip_retries_exhausted=2".
	Partial       bool
	PartialReason string
	// Statistics, matching the paper's Tables 2-3 columns.
	LIFSSchedules     int
	Interleavings     int
	AnalysisSchedules int
	TestSetSize       int
	MemAccesses       int
	// LIFSPruned counts search branches skipped as equivalent states;
	// SnapshotBytes is the copy-on-write checkpointing cost of the search.
	LIFSPruned    int
	SnapshotBytes uint64
	// Incremental-replay prefix cache, summed over the search and the
	// analysis: ExecutedInstrs is the total instruction work (replays
	// included), ReplayedInstrs the share spent re-executing known
	// prefixes, SavedInstrs the prefix work skipped by restoring pinned
	// snapshots, PrefixHits the runs started from a pin, and PinnedBytes
	// the peak bytes pinned by live prefix snapshots.
	ExecutedInstrs uint64
	ReplayedInstrs uint64
	SavedInstrs    uint64
	PrefixHits     int
	PinnedBytes    uint64
	// Learned flip ordering (Options.PriorDir): flip tests executed,
	// flip tests settled benign by the prior without a run, and tested
	// races whose signature had prior observations.
	FlipsExecuted int
	FlipsSkipped  int
	PriorHits     int
	// Phases reports per-phase schedule counts and wall-clock times of the
	// iterative deepening.
	Phases []PhaseStat
	// SlicesTried counts reproducer launches until the failure reproduced
	// (1 when diagnosing a program's declared threads directly).
	SlicesTried int
	// ReproduceTime and DiagnoseTime are the stage wall-clock times.
	ReproduceTime time.Duration
	DiagnoseTime  time.Duration
	// Spans aggregates the tracer's spans per (category, name): span
	// counts and total durations of each pipeline stage. Empty unless
	// Options.Tracer was set.
	Spans []obs.SpanStat
	// ReportPartial lists the machine-readable degradation reasons when
	// the diagnosis was driven by a crash report that did not fully
	// resolve against the program (see DiagnoseReport): unknown symbols,
	// missing stacks, ambiguous sites. Empty for fully resolved reports
	// and for trace-driven diagnoses.
	ReportPartial []string
	// Resumed reports that a pipeline stage continued from a durable
	// checkpoint instead of starting over; CheckpointAge is the age of
	// the search checkpoint it resumed from (zero for a resumed analysis
	// only). Always false without Options.CheckpointDir.
	Resumed       bool
	CheckpointAge time.Duration

	// What Report renders from.
	prog *kir.Program
	rep  *core.Reproduction
	diag *core.Diagnosis
}

// Report renders the full human-readable diagnosis report ("" for a
// Result not built by this package).
func (r *Result) Report() string {
	if r.diag == nil {
		return ""
	}
	var sb strings.Builder
	report.WriteDiagnosis(&sb, r.prog, r.rep, r.diag)
	return sb.String()
}

// ScenarioInfo describes one corpus entry.
type ScenarioInfo struct {
	Name       string // registry key, e.g. "cve-2017-15649"
	Title      string // paper identifier
	Group      string // "cve", "syzkaller" or "figure"
	Subsystem  string
	BugType    string
	MultiVar   bool
	LooselyCor bool
	Notes      string
}

// Scenarios lists the built-in corpus (the paper's 22 real-world bugs
// plus its figure examples).
func Scenarios() []ScenarioInfo {
	var out []ScenarioInfo
	for _, s := range scenarios.All() {
		out = append(out, ScenarioInfo{
			Name:       s.Name,
			Title:      s.Title,
			Group:      string(s.Group),
			Subsystem:  s.Subsystem,
			BugType:    s.BugType,
			MultiVar:   s.MultiVariable,
			LooselyCor: s.LooselyCorrelated,
			Notes:      s.Notes,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DiagnoseScenario diagnoses a corpus scenario by name.
func DiagnoseScenario(name string, opts Options) (*Result, error) {
	sc, ok := scenarios.ByName(name)
	if !ok {
		return nil, fmt.Errorf("aitia: unknown scenario %q (see Scenarios())", name)
	}
	prog, err := sc.Program()
	if err != nil {
		return nil, err
	}
	if opts.FailureKind == "" {
		opts.FailureKind = sc.WantKind.String()
	}
	if opts.FailureLabel == "" {
		opts.FailureLabel = sc.WantLabel
	}
	opts.LeakCheck = opts.LeakCheck || sc.NeedsLeakCheck()
	res, err := diagnose(prog, opts)
	if err != nil {
		return nil, fmt.Errorf("aitia: scenario %s: %w", name, err)
	}
	res.Scenario = name
	return res, nil
}

// Diagnose diagnoses a compiled program's declared threads.
func Diagnose(p *Program, opts Options) (*Result, error) {
	return diagnose(p.prog, opts)
}

// ScenarioProgram compiles a corpus scenario's program, for callers that
// pair a scenario with external input (e.g. a crash report for
// DiagnoseReport).
func ScenarioProgram(name string) (*Program, error) {
	sc, ok := scenarios.ByName(name)
	if !ok {
		return nil, fmt.Errorf("aitia: unknown scenario %q (see Scenarios())", name)
	}
	prog, err := sc.Program()
	if err != nil {
		return nil, err
	}
	return &Program{prog: prog}, nil
}

// DiagnoseReport diagnoses a failure from a KCSAN/KASAN-style textual
// crash report alone — no execution trace. The report's title yields the
// failure kind and site, its data-race section the suspect instruction
// pair; each plausible resolution runs as a guided LIFS search seeded
// with the suspects, with an unguided fallback for degraded or
// mis-resolved reports (see internal/ingest and manager.DiagnoseReport).
// Result.ReportPartial lists whatever the report left unresolved.
func DiagnoseReport(p *Program, reportText string, opts Options) (*Result, error) {
	rpt, err := ingest.Parse(reportText)
	if err != nil {
		return nil, err
	}
	plan := faultPlan(opts)
	ck, err := checkpointConfig(opts)
	if err != nil {
		return nil, err
	}
	lifs := lifsOptions(p.prog, opts, plan)
	lifs.Tracer = nil // per-candidate child tracers; the manager adopts the winner's
	pst, pstore, err := priorStore(opts)
	if err != nil {
		return nil, err
	}
	mgr, err := manager.New(p.prog, manager.Options{
		Workers:     opts.Workers,
		LIFSWorkers: opts.LIFSWorkers,
		LIFS:        lifs,
		Analysis: core.AnalysisOptions{
			StepBudget: opts.StepBudget,
			LeakCheck:  opts.LeakCheck,
		},
		Tracer:     opts.Tracer,
		Fault:      plan,
		Retry:      opts.Retry,
		Checkpoint: ck,
		Prior:      pst,
	})
	if err != nil {
		return nil, err
	}
	mres, err := mgr.DiagnoseReport(context.Background(), rpt)
	if err != nil {
		return nil, err
	}
	savePrior(pst, pstore)
	res := FromManagerResult(p.prog, mres)
	attachSpans(res, opts.Tracer)
	return res, nil
}

// ScenarioReport reproduces a corpus scenario's failure and renders it
// as a KCSAN-style crash report: the sanitizer title plus one access
// block per side of the race nearest the failure. The output feeds back
// into DiagnoseReport, which is how the scenario corpus doubles as a
// report-driven workload.
func ScenarioReport(name string, opts Options) (string, error) {
	sc, ok := scenarios.ByName(name)
	if !ok {
		return "", fmt.Errorf("aitia: unknown scenario %q (see Scenarios())", name)
	}
	prog, err := sc.Program()
	if err != nil {
		return "", err
	}
	m, err := kvm.New(prog)
	if err != nil {
		return "", err
	}
	rep, err := core.Reproduce(m, core.LIFSOptions{
		MaxInterleavings: opts.MaxInterleavings,
		StepBudget:       opts.StepBudget,
		WantKind:         sc.WantKind,
		WantInstr:        sc.WantInstr(),
		LeakCheck:        opts.LeakCheck || sc.NeedsLeakCheck(),
		Workers:          opts.LIFSWorkers,
	})
	if err != nil {
		return "", err
	}
	return ingest.Synthesize(prog, rep.Run, rep.Races)
}

// FuzzResult reports a fuzzing campaign that found a failure.
type FuzzResult struct {
	// CrashReport is the rendered crash report.
	CrashReport string
	// Trace is the ftrace-style execution history.
	Trace string
	// Runs is the number of random schedules executed.
	Runs int
	// Diagnosis is the subsequent AITIA diagnosis of the finding.
	Diagnosis *Result
}

// FuzzAndDiagnose runs the full pipeline of the paper's §5.2 evaluation:
// a Syzkaller-style random-schedule fuzzing campaign until a failure is
// found, followed by history modeling, slicing, LIFS and Causality
// Analysis on the finding. seed makes the campaign reproducible; maxRuns
// bounds it (0 = default).
func FuzzAndDiagnose(p *Program, seed int64, maxRuns int, opts Options) (*FuzzResult, error) {
	fz, err := fuzz.New(p.prog, fuzz.Options{
		Seed:       seed,
		MaxRuns:    maxRuns,
		StepBudget: opts.StepBudget,
		LeakCheck:  opts.LeakCheck,
	})
	if err != nil {
		return nil, err
	}
	finding, err := fz.Campaign()
	if err != nil {
		return nil, err
	}
	if finding == nil {
		return nil, fmt.Errorf("aitia: fuzzing found no failure")
	}

	plan := faultPlan(opts)
	ck, err := checkpointConfig(opts)
	if err != nil {
		return nil, err
	}
	lifs := lifsOptions(p.prog, opts, plan)
	lifs.Tracer = nil // per-slice child tracers; the manager adopts the winner's
	pst, pstore, err := priorStore(opts)
	if err != nil {
		return nil, err
	}
	mgr, err := manager.New(p.prog, manager.Options{
		Workers:    opts.Workers,
		LIFS:       lifs,
		Tracer:     opts.Tracer,
		Fault:      plan,
		Retry:      opts.Retry,
		Checkpoint: ck,
		Prior:      pst,
	})
	if err != nil {
		return nil, err
	}
	mres, err := mgr.DiagnoseTrace(context.Background(), finding.Trace)
	if err != nil {
		return nil, err
	}
	savePrior(pst, pstore)
	res := FromManagerResult(p.prog, mres)
	attachSpans(res, opts.Tracer)
	return &FuzzResult{
		CrashReport: finding.Report,
		Trace:       finding.Trace.Format(),
		Runs:        finding.Runs,
		Diagnosis:   res,
	}, nil
}

// lifsOptions translates the public options. plan is the shared fault
// plan of the whole diagnosis (nil when injection is off); it is passed
// in rather than rebuilt so LIFS and Causality Analysis draw from the
// same deterministic fault stream.
func lifsOptions(prog *kir.Program, opts Options, plan *faultinject.Plan) core.LIFSOptions {
	lo := core.LIFSOptions{
		MaxInterleavings: opts.MaxInterleavings,
		StepBudget:       opts.StepBudget,
		LeakCheck:        opts.LeakCheck,
		WantInstr:        kir.NoInstr,
		Workers:          opts.LIFSWorkers,
		Tracer:           opts.Tracer,
		Fault:            plan,
		Retry:            opts.Retry,
	}
	if opts.FailureKind != "" {
		if k, ok := sanitizer.KindByName(opts.FailureKind); ok {
			lo.WantKind = k
		}
	}
	if opts.FailureLabel != "" {
		if in, ok := prog.ByLabel(opts.FailureLabel); ok {
			lo.WantInstr = in.ID
		}
	}
	return lo
}

// diagnose runs the pipeline on a program's declared threads.
func diagnose(prog *kir.Program, opts Options) (*Result, error) {
	m, err := kvm.New(prog)
	if err != nil {
		return nil, err
	}
	plan := faultPlan(opts)
	ck, err := checkpointConfig(opts)
	if err != nil {
		return nil, err
	}
	lifs := lifsOptions(prog, opts, plan)
	lifs.Checkpoint = ck
	pst, pstore, err := priorStore(opts)
	if err != nil {
		return nil, err
	}
	rep, err := core.Reproduce(m, lifs)
	if err != nil {
		return nil, err
	}
	aopts := core.AnalysisOptions{
		StepBudget: opts.StepBudget,
		LeakCheck:  opts.LeakCheck,
		Workers:    opts.Workers,
		Tracer:     opts.Tracer,
		Fault:      plan,
		Retry:      opts.Retry,
		Checkpoint: ck,
	}
	if pst != nil {
		aopts.Ranker = pst
	}
	d, err := core.Analyze(m, rep, aopts)
	if err != nil {
		return nil, err
	}
	if pst != nil {
		pst.ObserveDiagnosis(prog, d)
		savePrior(pst, pstore)
	}
	res := buildResult(prog, rep, d)
	attachSpans(res, opts.Tracer)
	return res, nil
}

// attachSpans folds the tracer's per-stage aggregates into the result.
func attachSpans(res *Result, tr *obs.Tracer) {
	if tr.Enabled() {
		res.Spans = obs.Summarize(tr.Events())
	}
}

// FromInternal converts internal pipeline results (a reproduction and its
// diagnosis) into the public Result shape. It exists for tools in this
// module that drive the internal packages directly, such as cmd/aitia's
// finding-file mode.
func FromInternal(prog *kir.Program, rep *core.Reproduction, d *core.Diagnosis) *Result {
	return buildResult(prog, rep, d)
}

// FromManagerResult converts a completed manager pipeline result into the
// public Result shape, carrying over the pipeline's slice count and stage
// timings. It exists for tools in this module (cmd/aitia's finding mode,
// the diagnosis service) that drive internal/manager directly.
func FromManagerResult(prog *kir.Program, mres *manager.Result) *Result {
	res := buildResult(prog, mres.Reproduction, mres.Diagnosis)
	res.SlicesTried = mres.SlicesTried
	res.ReproduceTime = mres.ReproduceTime
	res.DiagnoseTime = mres.DiagnoseTime
	if mres.Resolution != nil {
		for _, reason := range mres.Resolution.Partial {
			res.ReportPartial = append(res.ReportPartial, string(reason))
		}
	}
	return res
}

// maxU64 returns the larger of two unsigned counters (PinnedBytes is a
// high-water mark, not additive across stages).
func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// buildResult converts internal results to the public shape.
func buildResult(prog *kir.Program, rep *core.Reproduction, d *core.Diagnosis) *Result {
	space, _ := mem.NewSpace(prog.Globals) // for symbolizing addresses
	variable := func(addr uint64) string {
		if space != nil {
			if sym, off, ok := space.SymbolAt(addr); ok {
				if off != 0 {
					return sym + "+" + strconv.FormatUint(off, 10)
				}
				return sym
			}
		}
		return "0x" + strconv.FormatUint(addr, 16)
	}
	res := &Result{
		Failure:           d.Failure.Kind.String(),
		FailSequence:      rep.Run.FormatSeq(prog, false),
		Chain:             d.Chain.Format(prog),
		LIFSSchedules:     rep.Stats.Schedules,
		Interleavings:     rep.Stats.Interleavings,
		LIFSPruned:        rep.Stats.Pruned,
		SnapshotBytes:     rep.Stats.SnapshotBytes,
		AnalysisSchedules: d.Stats.Schedules,
		TestSetSize:       d.Stats.TestSet,
		MemAccesses:       d.Stats.MemAccesses,
		FlipsExecuted:     d.Stats.FlipsExecuted,
		FlipsSkipped:      d.Stats.FlipsSkipped,
		PriorHits:         d.Stats.PriorHits,
		SlicesTried:       1,
		ExecutedInstrs:    rep.Stats.ExecutedInstrs + d.Stats.ExecutedInstrs,
		ReplayedInstrs:    rep.Stats.ReplayedInstrs + d.Stats.ReplayedInstrs,
		SavedInstrs:       rep.Stats.SavedInstrs + d.Stats.SavedInstrs,
		PrefixHits:        rep.Stats.PrefixHits + d.Stats.PrefixHits,
		PinnedBytes:       maxU64(rep.Stats.PinnedBytes, d.Stats.PinnedBytes),
		ReproduceTime:     rep.Stats.Elapsed,
		DiagnoseTime:      d.Stats.Elapsed,
		Resumed:           rep.Stats.Resumed || d.Stats.Resumed,
		CheckpointAge:     rep.Stats.CheckpointAge,
		prog:              prog,
		rep:               rep,
		diag:              d,
	}
	for _, p := range rep.Stats.Phases {
		res.Phases = append(res.Phases, PhaseStat{Budget: p.Budget, Schedules: p.Schedules, Elapsed: p.Elapsed})
	}
	ambiguous := make(map[string]bool)
	for _, r := range d.Ambiguous {
		ambiguous[r.Format(prog)] = true
	}
	// The races carry the prior's pair signature, and benign verdicts
	// settled by the prior are marked — a store rebuilt from summaries
	// (see service recovery) must not feed them back to itself.
	priorSkipped := make(map[sched.RaceKey]bool)
	for _, tr := range d.Tested {
		if tr.PriorSkipped {
			priorSkipped[tr.Race.Key()] = true
		}
	}
	for _, r := range d.Chain.Races() {
		res.ChainRaces = append(res.ChainRaces, Race{
			First:        prog.InstrName(r.First.Instr),
			Second:       prog.InstrName(r.Second.Instr),
			FirstThread:  r.First.Thread,
			SecondThread: r.Second.Thread,
			Variable:     variable(r.Addr),
			Phantom:      r.Phantom,
			Ambiguous:    ambiguous[r.Format(prog)],
			Sig:          prior.Signature(prog, r),
		})
	}
	for _, r := range d.Benign {
		res.Benign = append(res.Benign, Race{
			First:        prog.InstrName(r.First.Instr),
			Second:       prog.InstrName(r.Second.Instr),
			FirstThread:  r.First.Thread,
			SecondThread: r.Second.Thread,
			Variable:     variable(r.Addr),
			Phantom:      r.Phantom,
			Sig:          prior.Signature(prog, r),
			Prior:        priorSkipped[r.Key()],
		})
	}
	for _, r := range d.Unknown {
		res.Unknown = append(res.Unknown, Race{
			First:        prog.InstrName(r.First.Instr),
			Second:       prog.InstrName(r.Second.Instr),
			FirstThread:  r.First.Thread,
			SecondThread: r.Second.Thread,
			Variable:     variable(r.Addr),
			Phantom:      r.Phantom,
			Sig:          prior.Signature(prog, r),
		})
	}
	res.Partial = d.Partial
	res.PartialReason = d.PartialReason
	return res
}

// FuzzTrace exposes the trace/slicing pipeline for a compiled program:
// it fuzzes until a failure, then returns the modelled slices — useful
// for inspecting what the reproducers would be given.
func FuzzTrace(p *Program, seed int64, maxRuns int) (traceText string, slices []string, err error) {
	fz, err := fuzz.New(p.prog, fuzz.Options{Seed: seed, MaxRuns: maxRuns})
	if err != nil {
		return "", nil, err
	}
	finding, err := fz.Campaign()
	if err != nil {
		return "", nil, err
	}
	if finding == nil {
		return "", nil, fmt.Errorf("aitia: fuzzing found no failure")
	}
	for _, sl := range history.Model(finding.Trace) {
		slices = append(slices, sl.String())
	}
	return finding.Trace.Format(), slices, nil
}
