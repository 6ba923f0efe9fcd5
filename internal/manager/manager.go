// Package manager orchestrates the AITIA pipeline end to end (paper §4.1):
// it models the execution history into slices, launches reproducers (one
// per slice, in parallel, each on its own kernel-VM instance) to run LIFS,
// forwards the first failure-causing instruction sequence to the
// diagnosing stage, and runs Causality Analysis with a fleet of parallel
// diagnosers. The result is the causality chain plus all evidence.
package manager

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"aitia/internal/core"
	"aitia/internal/faultinject"
	"aitia/internal/history"
	"aitia/internal/ingest"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/obs"
	"aitia/internal/prior"
	"aitia/internal/sanitizer"
)

// Options configure a diagnosis pipeline.
type Options struct {
	// Workers is the number of parallel reproducer/diagnoser instances
	// (the paper launches 32 VMs). Zero means GOMAXPROCS.
	Workers int
	// LIFSWorkers parallelizes each reproducer's search internally
	// (core.LIFSOptions.Workers). Zero keeps the searches serial — the
	// default, because the reproducers already run in parallel across
	// slices and N×N oversubscription helps nobody. Set it when traces
	// yield few slices but each search is deep.
	LIFSWorkers int
	// LIFS configures the reproducing stage. WantKind/WantInstr are
	// overridden from the trace's crash information when present, and
	// Workers from Options.LIFSWorkers when set.
	LIFS core.LIFSOptions
	// Analysis configures the diagnosing stage (Workers is overridden
	// from Options.Workers).
	Analysis core.AnalysisOptions
	// Tracer collects execution spans for the whole pipeline: the
	// reproducing fleet (volatile per-slice spans), the winning slice's
	// LIFS search (adopted from its private child tracer, so the merged
	// trace stays independent of slice completion order) and the
	// diagnosing stage. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// Fault is the deterministic fault plan threaded through every stage:
	// the manager's own VM launches (worker-death), the LIFS searches and
	// the flip tests. Nil disables injection at zero cost.
	Fault *faultinject.Plan
	// Retry bounds retries of faulted operations (zero-value fields fall
	// back to faultinject.DefaultRetry).
	Retry faultinject.RetryPolicy
	// Checkpoint arms durable crash recovery for both stages: each
	// slice's LIFS search checkpoints its frontier (keyed by the slice
	// program's content hash, so slices never collide) and the analysis
	// checkpoints every settled flip. A pipeline restarted after a crash
	// resumes from the latest snapshots and produces the same diagnosis.
	// Nil disables checkpointing at zero cost.
	Checkpoint *core.CheckpointConfig
	// Dispatch routes each reproduction's parallel branch units to a
	// fleet of remote executors (see core.BranchDispatcher), for blind
	// and report-guided reproductions alike. Nil keeps every search
	// local.
	Dispatch core.BranchDispatcher
	// Prior, when set, closes the learning loop around the analysis: it
	// serves as the flip-test ranker (core.AnalysisOptions.Ranker) and
	// every completed diagnosis's executed verdicts are folded back into
	// it. It reorders flips and may settle races benign without a run;
	// see package prior for what that guarantees. Nil disables the prior
	// at zero cost.
	Prior *prior.Store
}

// Result is a completed diagnosis.
type Result struct {
	// Slice is the thread group that reproduced the failure.
	Slice history.Slice
	// SlicesTried counts reproducer launches until the failure reproduced.
	SlicesTried int
	// Reproduction is the LIFS output.
	Reproduction *core.Reproduction
	// Diagnosis is the Causality Analysis output (chain, verdicts).
	Diagnosis *core.Diagnosis
	// Resolution records how the crash report resolved against the
	// program — suspects, ambiguity fan-out, degradation reasons. Only
	// set by DiagnoseReport.
	Resolution *ingest.PartialSlice
	// Stage wall-clock times.
	ReproduceTime time.Duration
	DiagnoseTime  time.Duration
}

// Manager runs diagnoses for one program.
type Manager struct {
	prog *kir.Program
	opts Options
}

// New creates a manager.
func New(prog *kir.Program, opts Options) (*Manager, error) {
	if !prog.Finalized() {
		return nil, fmt.Errorf("manager: program not finalized")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Manager{prog: prog, opts: opts}, nil
}

// DiagnoseTrace runs the full pipeline on a bug-finder trace: modeling,
// slicing, parallel reproduction, diagnosis. The context bounds the
// whole pipeline: cancellation or deadline expiry stops the reproducer
// search and the diagnoser flip tests at their next iteration boundary,
// and the error is ctx.Err().
func (m *Manager) DiagnoseTrace(ctx context.Context, tr *history.Trace) (*Result, error) {
	lifs := m.opts.LIFS
	if m.opts.LIFSWorkers > 0 {
		lifs.Workers = m.opts.LIFSWorkers
	}
	if tr.Crash != nil {
		lifs.WantKind = tr.Crash.Kind
		lifs.WantInstr = tr.Crash.Instr
		if tr.Crash.Kind == sanitizer.KindMemoryLeak {
			lifs.LeakCheck = true
		}
	}
	slices := history.Model(tr)
	if len(slices) == 0 {
		return nil, fmt.Errorf("manager: trace yields no slices")
	}
	return m.diagnoseSlices(ctx, slices, lifs)
}

// Diagnose runs the pipeline on the program's full declared thread set
// (a single slice), for callers that already know the concurrency group.
// The context bounds the pipeline as in DiagnoseTrace.
func (m *Manager) Diagnose(ctx context.Context) (*Result, error) {
	var names []string
	for _, t := range m.prog.Threads {
		names = append(names, t.Name)
	}
	sl := history.Slice{Threads: names}
	lifs := m.opts.LIFS
	if m.opts.LIFSWorkers > 0 {
		lifs.Workers = m.opts.LIFSWorkers
	}
	return m.diagnoseSlices(ctx, []history.Slice{sl}, lifs)
}

// reportCandidates caps the ambiguity fan-out of a report-driven
// diagnosis: at most this many concrete suspect resolutions run as
// guided searches (plus the unguided fallback).
const reportCandidates = 8

// DiagnoseReport runs the pipeline from a crash report alone — no
// execution trace. The report is resolved against the program into a
// PartialSlice (failure kind and site, suspect instruction pairs); each
// concrete resolution of an ambiguous report becomes one guided LIFS
// search over the full declared thread set, seeded with the suspect
// pair as a phase-0 conflict and pruned to interleavings that can still
// reach the reported accesses and failure site. An unguided search runs
// at the last ordinal as the fallback for mis-resolved or degraded
// reports, so an underspecified report widens the search instead of
// failing it. The first (in candidate order) reproducing search wins,
// exactly like slice ordering in DiagnoseTrace.
func (m *Manager) DiagnoseReport(ctx context.Context, rpt *ingest.Report) (*Result, error) {
	ps := ingest.Resolve(m.prog, rpt)
	var names []string
	for _, t := range m.prog.Threads {
		names = append(names, t.Name)
	}
	// The guide subsumes thread restriction: candidates search the full
	// declared set (ps.Threads is informational) so the winning chain is
	// the one the full program yields, and spawner threads the report
	// could not name stay available.
	sl := history.Slice{Threads: names}

	base := m.opts.LIFS
	if m.opts.LIFSWorkers > 0 {
		base.Workers = m.opts.LIFSWorkers
	}
	if ps.Kind != sanitizer.KindNone {
		base.WantKind = ps.Kind
	}
	if ps.Site != kir.NoInstr {
		base.WantInstr = ps.Site
	}
	if ps.Kind == sanitizer.KindMemoryLeak {
		base.LeakCheck = true
	}

	var runs []sliceRun
	for _, cand := range ps.Candidates(reportCandidates) {
		if len(cand.Suspects) == 0 && base.WantInstr == kir.NoInstr {
			continue // nothing to guide with; only the fallback remains
		}
		lifs := base
		g := &core.Guide{}
		for _, s := range cand.Suspects {
			g.Suspects = append(g.Suspects, core.SuspectAccess{
				Instr: s.Instr, Thread: s.Thread, Addr: s.Addr, Write: s.Write,
			})
		}
		lifs.Guide = g
		runs = append(runs, sliceRun{slice: sl, lifs: lifs})
	}
	// Unguided fallback at the last ordinal: it only wins when no guided
	// candidate reproduces, so a wrong resolution costs candidates, not
	// the diagnosis.
	runs = append(runs, sliceRun{slice: sl, lifs: base})

	res, err := m.diagnoseRuns(ctx, runs)
	if err != nil {
		return nil, err
	}
	res.Resolution = ps
	return res, nil
}

// sliceRun is one reproducer launch: a thread slice plus the search
// options to run it under.
type sliceRun struct {
	slice history.Slice
	lifs  core.LIFSOptions
}

// diagnoseSlices launches reproducers over the candidate slices, in
// parallel, and diagnoses the first (in slice order) that reproduces.
func (m *Manager) diagnoseSlices(ctx context.Context, slices []history.Slice, lifs core.LIFSOptions) (*Result, error) {
	runs := make([]sliceRun, len(slices))
	for i, sl := range slices {
		runs[i] = sliceRun{slice: sl, lifs: lifs}
	}
	return m.diagnoseRuns(ctx, runs)
}

// diagnoseRuns launches the reproducer fleet over the candidate runs, in
// parallel, and diagnoses the first (in run order) that reproduces.
func (m *Manager) diagnoseRuns(ctx context.Context, runs []sliceRun) (*Result, error) {
	type repOut struct {
		idx int
		rep *core.Reproduction
		err error
		// Tracing: the slice's private child tracer plus the attempt's
		// wall interval and worker slot on the parent's clock.
		tr        *obs.Tracer
		tStart    time.Duration
		tDur      time.Duration
		worker    int
		attempted bool
	}
	start := time.Now()

	ptr := m.opts.Tracer
	root := ptr.Begin("manager", "diagnose", 0)
	best := -1
	defer func() {
		root.Arg("slices", int64(len(runs)))
		if best >= 0 {
			root.Arg("slice", int64(best))
		}
		root.End()
	}()

	workers := m.opts.Workers
	if workers > len(runs) {
		workers = len(runs)
	}
	jobs := make(chan int)
	outs := make(chan repOut, len(runs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if err := ctx.Err(); err != nil {
					outs <- repOut{idx: idx, err: err}
					continue
				}
				// Each reproducer traces into its own child so slices
				// do not interleave their spans; only the winner's are
				// merged back.
				slifs := runs[idx].lifs
				slifs.Fault = m.opts.Fault
				slifs.Retry = m.opts.Retry
				slifs.Checkpoint = m.opts.Checkpoint
				slifs.Dispatch = m.opts.Dispatch
				if ptr.Enabled() {
					slifs.Tracer = obs.New()
				}
				t0 := ptr.Now()
				rep, err := m.reproduce(ctx, runs[idx].slice, slifs)
				outs <- repOut{
					idx: idx, rep: rep, err: err,
					tr: slifs.Tracer, tStart: t0, tDur: ptr.Now() - t0,
					worker: w, attempted: true,
				}
			}
		}()
	}
	go func() {
		for i := range runs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(outs)
	}()

	var bestRep *core.Reproduction
	var bestTr *obs.Tracer
	tried := 0
	var lastErr error
	attempts := make([]repOut, len(runs))
	for out := range outs {
		tried++
		attempts[out.idx] = out
		if out.err != nil {
			lastErr = out.err
			continue
		}
		if out.rep != nil && (best < 0 || out.idx < best) {
			best, bestRep, bestTr = out.idx, out.rep, out.tr
		}
	}
	if ptr.Enabled() {
		// Which worker ran which slice (and how long) depends on runtime
		// scheduling: record the fleet timeline as volatile spans, in
		// slice order.
		for idx, out := range attempts {
			if !out.attempted {
				continue
			}
			ptr.Emit(obs.Event{
				Cat: "manager", Name: "reproduce", Track: int64(out.worker) + 1,
				Start: out.tStart, Dur: out.tDur,
				Info: []obs.Arg{
					{Key: "slice", Val: int64(idx)},
					{Key: "worker", Val: int64(out.worker)},
					{Key: "reproduced", Val: b2i(out.rep != nil)},
				},
				Volatile: true,
			})
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if best < 0 {
		if lastErr != nil {
			return nil, fmt.Errorf("manager: no slice reproduced the failure (last error: %w)", lastErr)
		}
		return nil, fmt.Errorf("manager: no slice reproduced the failure")
	}
	// Merge the winning slice's search spans; the losers' children are
	// dropped, so the canonical sequence only depends on which slice won
	// (deterministic), not on completion order.
	ptr.Adopt(bestTr)
	reproTime := time.Since(start)

	// Diagnosing stage on the winning slice.
	sliceProg, err := m.prog.Restrict(runs[best].slice.Threads)
	if err != nil {
		return nil, err
	}
	dm, err := m.newVM(ctx, sliceProg, "manager.diag-vm")
	if err != nil {
		return nil, err
	}
	aopts := m.opts.Analysis
	aopts.Workers = m.opts.Workers
	aopts.LeakCheck = aopts.LeakCheck || runs[best].lifs.LeakCheck
	aopts.Tracer = ptr
	aopts.Fault = m.opts.Fault
	aopts.Retry = m.opts.Retry
	aopts.Checkpoint = m.opts.Checkpoint
	if m.opts.Prior != nil {
		aopts.Ranker = m.opts.Prior
	}
	diagStart := time.Now()
	diag, err := core.AnalyzeContext(ctx, dm, bestRep, aopts)
	if err != nil {
		return nil, err
	}
	if m.opts.Prior != nil {
		// Feed the executed verdicts back: the next diagnosis ranks its
		// flips by what this one settled.
		m.opts.Prior.ObserveDiagnosis(sliceProg, diag)
	}

	return &Result{
		Slice:         runs[best].slice,
		SlicesTried:   tried,
		Reproduction:  bestRep,
		Diagnosis:     diag,
		ReproduceTime: reproTime,
		DiagnoseTime:  time.Since(diagStart),
	}, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// newVM launches a kernel VM for the given program, riding out injected
// worker-death faults: each attempt draws a fresh fleet slot, so under
// partial fault rates a replacement VM usually comes up. Exhaustion is a
// real (classified) error — the caller's stage cannot run without a VM.
func (m *Manager) newVM(ctx context.Context, prog *kir.Program, op string) (*kvm.Machine, error) {
	var vm *kvm.Machine
	err := faultinject.Do(ctx, m.opts.Fault, m.opts.Retry, func(ctx context.Context, attempt int) error {
		if err := m.opts.Fault.Check(faultinject.KindWorkerDeath, op, m.opts.Fault.Seq(), 0); err != nil {
			return err
		}
		v, err := kvm.New(prog)
		if err != nil {
			return err
		}
		vm = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	vm.SetFaultPlan(m.opts.Fault)
	return vm, nil
}

// reproduce runs LIFS on one slice; a nil Reproduction with nil error
// means the slice did not reproduce the failure (try the next one).
func (m *Manager) reproduce(ctx context.Context, sl history.Slice, lifs core.LIFSOptions) (*core.Reproduction, error) {
	sliceProg, err := m.prog.Restrict(sl.Threads)
	if err != nil {
		return nil, err
	}
	vm, err := m.newVM(ctx, sliceProg, "manager.slice-vm")
	if err != nil {
		return nil, err
	}
	rep, err := core.ReproduceContext(ctx, vm, lifs)
	if err != nil {
		if core.IsNotReproduced(err) {
			return nil, nil
		}
		return nil, err
	}
	return rep, nil
}
