package factory

import (
	"errors"
	"fmt"
	"strings"

	"aitia/internal/core"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

// MinimizeOptions configure the delta-debugging of one fuzz finding.
type MinimizeOptions struct {
	// Kind is the failure the oracle must preserve.
	Kind sanitizer.Kind
	// Label pins the failing instruction across program rewrites: when
	// non-empty, candidates must keep an instruction with this label and
	// fail there. Empty tracks the failure kind only (deadlocks carry no
	// failing instruction).
	Label string
	// LeakCheck arms the end-of-run leak oracle during replays.
	LeakCheck bool
	// StepBudget bounds each replay (0 = sched.DefaultStepBudget).
	StepBudget int
	// MaxSchedules bounds the LIFS searches the program-minimization
	// oracle runs (0 = a small default; the full DefaultMaxSchedules
	// would make line removal quadratic in search cost).
	MaxSchedules int
	// Stats, when non-nil, accumulates replay and removal counters.
	Stats *Stats
}

const defaultMinimizeSchedules = 4000

// ErrOracle is wrapped by Minimize when the bounded reproduction oracle
// cannot re-establish the failure on the (otherwise untouched) program —
// a legitimate rejection of hard-to-search findings, as opposed to an
// internal inconsistency like a derived schedule that fails to replay.
var ErrOracle = errors.New("factory: bounded oracle could not re-establish the failure")

// MinResult is a minimized finding: the smallest program and schedule the
// delta-debugger reached with the failure oracle intact.
type MinResult struct {
	// Prog is the minimized program, reparsed from Source.
	Prog *kir.Program
	// Source is the canonical kasm text of Prog.
	Source string
	// Schedule replays the failure on Prog deterministically.
	Schedule sched.Schedule
	// Repro is the LIFS reproduction of the failure on Prog (fresh
	// machine, bounded search) — the ground truth emission validates
	// against.
	Repro *core.Reproduction
	// Stats records the work: points/instructions/threads before and
	// after, and oracle replays spent.
	Stats scenarios.GenMinStats
}

// Minimize delta-debugs a fuzz finding. Phase A minimizes the schedule:
// the fuzzed run is converted to preemption points and ddmin-bisected
// down to the points the failure actually needs, each candidate replayed
// through the enforcement engine. Phase B minimizes the program: greedy
// thread removal, then greedy instruction-line removal over the
// disassembled source, each candidate re-checked to parse, stay clean in
// the serial order, and still reproduce the failure under a bounded LIFS
// search. Phase C re-derives and re-minimizes the schedule against the
// minimized program, so MinResult.Schedule replays MinResult.Prog.
//
// Every step is deterministic; minimizing an already-minimal finding is a
// fixed point.
func Minimize(prog *kir.Program, run *sched.RunResult, opts MinimizeOptions) (*MinResult, error) {
	if opts.StepBudget <= 0 {
		opts.StepBudget = sched.DefaultStepBudget
	}
	if opts.MaxSchedules <= 0 {
		opts.MaxSchedules = defaultMinimizeSchedules
	}
	mz := &minimizer{opts: opts}
	if run == nil || run.Seq.Len() == 0 {
		return nil, fmt.Errorf("factory: finding has no executed sequence")
	}

	// Phase A: schedule minimization on the original program.
	sch := DeriveSchedule(run, prog)
	mz.stats.PointsBefore = len(sch.Points)
	mz.stats.InstrsBefore = prog.NumInstrs()
	mz.stats.ThreadsBefore = len(prog.Threads)
	instr := kir.NoInstr
	if run.Failure != nil {
		instr = run.Failure.Instr
	}
	if !mz.replayOK(prog, sch, instr) {
		return nil, fmt.Errorf("factory: derived schedule does not replay the failure (%v)", run.Failure)
	}
	sch = mz.ddminPoints(prog, sch, instr)

	// Phase B: program minimization.
	cur, rep, err := mz.minimizeThreads(prog)
	if err != nil {
		return nil, err
	}
	cur, rep, err = mz.minimizeLines(cur, rep)
	if err != nil {
		return nil, err
	}
	if rep == nil {
		// The original program never went through the reproduce oracle
		// (nothing was removable); establish the ground truth now.
		rep, err = mz.reproduce(cur)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrOracle, err)
		}
	}

	// Phase C: the phase-A schedule indexes the original program's
	// instruction IDs; re-derive from the reproduction run on the
	// minimized program and bisect again.
	final := DeriveSchedule(rep.Run, cur)
	finstr := kir.NoInstr
	if rep.Run.Failure != nil {
		finstr = rep.Run.Failure.Instr
	}
	if !mz.replayOK(cur, final, finstr) {
		return nil, fmt.Errorf("factory: reproduction schedule does not replay on minimized program")
	}
	final = mz.ddminPoints(cur, final, finstr)

	src := kasm.Disassemble(cur)
	reparsed, err := kasm.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("factory: minimized program does not round-trip: %w", err)
	}
	mz.stats.PointsAfter = len(final.Points)
	mz.stats.InstrsAfter = reparsed.NumInstrs()
	mz.stats.ThreadsAfter = len(reparsed.Threads)
	if s := opts.Stats; s != nil {
		s.MinReplays.Add(int64(mz.stats.Replays))
		s.PointsRemoved.Add(int64(mz.stats.PointsBefore - mz.stats.PointsAfter))
		s.InstrsRemoved.Add(int64(mz.stats.InstrsBefore - mz.stats.InstrsAfter))
		s.ThreadsRemoved.Add(int64(mz.stats.ThreadsBefore - mz.stats.ThreadsAfter))
	}
	return &MinResult{Prog: reparsed, Source: src, Schedule: final, Repro: rep, Stats: mz.stats}, nil
}

type minimizer struct {
	opts  MinimizeOptions
	stats scenarios.GenMinStats
}

// DeriveSchedule converts an executed run into an enforceable schedule:
// one after-point per thread switch, with Skip counting how often the
// (thread, instruction) pair repeats between consecutive switches, and a
// fallback listing threads in first-appearance order (then any declared
// threads that never ran).
func DeriveSchedule(run *sched.RunResult, prog *kir.Program) sched.Schedule {
	seq := run.Seq.Steps
	sch := sched.Schedule{Initial: run.Seq.Name(0)}
	lastFire := -1
	for i := 0; i+1 < len(seq); i++ {
		if seq[i].Thread == seq[i+1].Thread {
			continue
		}
		skip := 0
		for j := lastFire + 1; j < i; j++ {
			if seq[j].Thread == seq[i].Thread && seq[j].Instr == seq[i].Instr {
				skip++
			}
		}
		sch.Points = append(sch.Points, sched.Point{
			Run: run.Seq.Name(i), At: seq[i].Instr, After: true,
			To: run.Seq.Name(i + 1), Skip: skip,
		})
		lastFire = i
	}
	seen := make(map[string]bool)
	for k := range seq {
		if name := run.Seq.Name(k); !seen[name] {
			seen[name] = true
			sch.Fallback = append(sch.Fallback, name)
		}
	}
	for _, td := range prog.Threads {
		if !seen[td.Name] {
			seen[td.Name] = true
			sch.Fallback = append(sch.Fallback, td.Name)
		}
	}
	return sch
}

// matches is the failure oracle: right kind, and (when pinned) the right
// instruction.
func (mz *minimizer) matches(f *sanitizer.Failure, instr kir.InstrID) bool {
	if f == nil || f.Kind != mz.opts.Kind {
		return false
	}
	return instr == kir.NoInstr || f.Instr == instr
}

// replayOK enforces the schedule on a fresh machine and checks the
// failure oracle.
func (mz *minimizer) replayOK(prog *kir.Program, sch sched.Schedule, instr kir.InstrID) bool {
	mz.stats.Replays++
	m, err := kvm.New(prog)
	if err != nil {
		return false
	}
	res, err := sched.NewEnforcer(m).Run(sch, sched.Options{
		StepBudget: mz.opts.StepBudget, LeakCheck: mz.opts.LeakCheck,
	})
	if err != nil {
		return false
	}
	return mz.matches(res.Failure, instr)
}

// ddminPoints bisects the schedule's preemption points down to a
// 1-minimal subset that still replays the failure.
func (mz *minimizer) ddminPoints(prog *kir.Program, sch sched.Schedule, instr kir.InstrID) sched.Schedule {
	try := func(pts []sched.Point) bool {
		cand := sch
		cand.Points = pts
		return mz.replayOK(prog, cand, instr)
	}
	pts := sch.Points
	if len(pts) > 0 && try(nil) {
		sch.Points = nil
		return sch
	}
	n := 2
	for len(pts) >= 2 {
		chunk := (len(pts) + n - 1) / n
		reduced := false
		for start := 0; start < len(pts); start += chunk {
			end := start + chunk
			if end > len(pts) {
				end = len(pts)
			}
			cand := make([]sched.Point, 0, len(pts)-(end-start))
			cand = append(cand, pts[:start]...)
			cand = append(cand, pts[end:]...)
			if try(cand) {
				pts = cand
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(pts) {
				break
			}
			n = min(len(pts), 2*n)
		}
	}
	if len(pts) == 1 && try(nil) {
		pts = nil
	}
	sch.Points = pts
	return sch
}

// progOK is the program-minimization oracle: the candidate must keep the
// pinned label, stay failure-free when run serially in declared thread
// order, and still reproduce the failure — at one interleaving or more —
// under a bounded LIFS search. Returns the reproduction as ground truth.
func (mz *minimizer) progOK(prog *kir.Program) (*core.Reproduction, bool) {
	if len(prog.Threads) < 2 {
		return nil, false
	}
	instr := kir.NoInstr
	if mz.opts.Label != "" {
		in, ok := prog.ByLabel(mz.opts.Label)
		if !ok {
			return nil, false
		}
		instr = in.ID
	}
	// Serial run in declared order must complete cleanly: the bug must
	// need concurrency.
	mz.stats.Replays++
	m, err := kvm.New(prog)
	if err != nil {
		return nil, false
	}
	var order []string
	for _, td := range prog.Threads {
		order = append(order, td.Name)
	}
	res, err := sched.NewEnforcer(m).Run(sched.Serial(order...), sched.Options{
		StepBudget: mz.opts.StepBudget, LeakCheck: mz.opts.LeakCheck,
	})
	if err != nil || res.Failure != nil {
		return nil, false
	}
	rep, err := mz.reproduceAt(prog, instr)
	if err != nil {
		return nil, false
	}
	return rep, true
}

func (mz *minimizer) reproduce(prog *kir.Program) (*core.Reproduction, error) {
	instr := kir.NoInstr
	if mz.opts.Label != "" {
		in, ok := prog.ByLabel(mz.opts.Label)
		if !ok {
			return nil, fmt.Errorf("factory: label %q not in program", mz.opts.Label)
		}
		instr = in.ID
	}
	return mz.reproduceAt(prog, instr)
}

func (mz *minimizer) reproduceAt(prog *kir.Program, instr kir.InstrID) (*core.Reproduction, error) {
	mz.stats.Replays++
	m, err := kvm.New(prog)
	if err != nil {
		return nil, err
	}
	rep, err := core.Reproduce(m, core.LIFSOptions{
		WantKind: mz.opts.Kind, WantInstr: instr,
		LeakCheck:    mz.opts.LeakCheck,
		StepBudget:   mz.opts.StepBudget,
		MaxSchedules: mz.opts.MaxSchedules,
	})
	if err != nil {
		return nil, err
	}
	if rep.Stats.Interleavings == 0 {
		return nil, fmt.Errorf("factory: failure reproduces serially")
	}
	return rep, nil
}

// minimizeThreads greedily drops declared threads (keeping at least two)
// while the oracle holds.
func (mz *minimizer) minimizeThreads(prog *kir.Program) (*kir.Program, *core.Reproduction, error) {
	var rep *core.Reproduction
	for changed := true; changed; {
		changed = false
		for i := range prog.Threads {
			if len(prog.Threads) <= 2 {
				break
			}
			var keep []string
			for j, td := range prog.Threads {
				if j != i {
					keep = append(keep, td.Name)
				}
			}
			cand, err := prog.Restrict(keep)
			if err != nil {
				continue
			}
			if r, ok := mz.progOK(cand); ok {
				prog, rep, changed = cand, r, true
				break
			}
		}
	}
	return prog, rep, nil
}

// minimizeLines greedily removes single source lines of the disassembled
// program until a fixpoint: a removal survives only if the line-less
// source still parses, holds fewer instructions, and the program oracle
// holds. A parsed program round-trips through Disassemble exactly, so the
// candidate's instruction IDs agree with the source it is emitted as. A
// seen-hash set skips candidates that re-encode an already-tried program
// (removing either of two equal lines), sparing their replays.
func (mz *minimizer) minimizeLines(prog *kir.Program, rep *core.Reproduction) (*kir.Program, *core.Reproduction, error) {
	canon, err := kasm.Parse(kasm.Disassemble(prog))
	if err != nil || canon.Hash() != prog.Hash() {
		// A built program whose disassembly does not round-trip (one that
		// branches past its last instruction): leave it as is rather than
		// minimize against shifting IDs.
		return prog, rep, nil
	}
	prog = canon
	lines := strings.Split(kasm.Disassemble(prog), "\n")
	seen := map[string]bool{prog.Hash(): true}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(lines); i++ {
			if strings.TrimSpace(lines[i]) == "" {
				continue
			}
			cand := make([]string, 0, len(lines)-1)
			cand = append(cand, lines[:i]...)
			cand = append(cand, lines[i+1:]...)
			cp, err := kasm.Parse(strings.Join(cand, "\n"))
			if err != nil || seen[cp.Hash()] {
				continue
			}
			seen[cp.Hash()] = true
			if cp.NumInstrs() >= prog.NumInstrs() {
				// The line held no instruction (a declaration, or a
				// label no branch names): not a reduction.
				continue
			}
			if r, ok := mz.progOK(cp); ok {
				lines = strings.Split(kasm.Disassemble(cp), "\n")
				prog, rep, changed = cp, r, true
				break
			}
		}
	}
	return prog, rep, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
