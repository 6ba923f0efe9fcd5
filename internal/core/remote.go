package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"aitia/internal/faultinject"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
	"aitia/internal/sched"
)

// This file is the fleet seam of LIFS: a deepening phase's parallel
// branch units — the same units the local worker pool shards — exported
// as a self-contained, serializable batch that any process holding the
// same program can execute. Branch exploration is a pure function of
// (initial machine state, phase budget, frozen base AccessMap, unit
// identity, search options). A unit prunes only on its own visited
// states, so no visited-state claims travel; everything in the tuple
// rides in the batch, and a remote execution returns byte-identical
// access records, leaves and candidate traces to a local one. That is
// what lets a fleet-wide diagnosis reproduce the serial diagnosis
// exactly, whichever node ran which branch, however many times a lost
// lease forced a branch to be re-executed.

// BranchOpts is the subset of LIFSOptions a branch execution depends on.
type BranchOpts struct {
	StepBudget   int            `json:"step_budget,omitempty"`
	MaxSchedules int            `json:"max_schedules,omitempty"`
	LeakCheck    bool           `json:"leak_check,omitempty"`
	RecordLeaves bool           `json:"record_leaves,omitempty"`
	NoPruning    bool           `json:"no_pruning,omitempty"`
	WantKind     sanitizer.Kind `json:"want_kind,omitempty"`
	WantInstr    kir.InstrID    `json:"want_instr,omitempty"`
	// MaxInterleavings bounds the batch's Budget (zero means
	// DefaultMaxInterleavings).
	MaxInterleavings int `json:"max_interleavings,omitempty"`
}

// BranchWork names one branch unit to execute: a task unit's phase
// ordinal, its group and initial thread, and its branch choice.
type BranchWork struct {
	Ordinal int `json:"ordinal"`
	Group   int `json:"group"`
	Choice  int `json:"choice"`
	Initial int `json:"initial"`
}

// BranchBatch is one deepening phase's dispatchable branch work: the
// shared execution context (frozen base map, options, report guide)
// plus the task units to run. The batch is pure data — JSON for a wire
// transport, shared by reference in process.
type BranchBatch struct {
	// ProgHash identifies (and, over a wire transport, validates) the
	// program; InitSig pins the machine's initial state signature.
	ProgHash string               `json:"prog_hash"`
	InitSig  uint64               `json:"init_sig"`
	Budget   int                  `json:"budget"` // the phase's preemption budget k
	Base     []sched.AccessExport `json:"base,omitempty"`
	Opts     BranchOpts           `json:"opts"`
	// Guide is the search's report guide; nil for a blind search.
	Guide *Guide       `json:"guide,omitempty"`
	Work  []BranchWork `json:"work"`
}

// BranchResult is one executed branch unit's complete outcome — exactly
// the state a local run leaves on its unit.
type BranchResult struct {
	Ordinal     int                  `json:"ordinal"`
	Accesses    []sched.AccessExport `json:"accesses,omitempty"`
	Leaves      []LeafTrace          `json:"leaves,omitempty"`
	Accepted    bool                 `json:"accepted,omitempty"`
	Trace       []BranchStep         `json:"trace,omitempty"`
	BudgetLeft  int                  `json:"budget_left,omitempty"`
	Schedules   int                  `json:"schedules,omitempty"`
	Pruned      int                  `json:"pruned,omitempty"`
	GuidePruned int                  `json:"guide_pruned,omitempty"`
}

// BranchStep is one step of an accepted branch's trace on the wire. It
// keeps the JSON form branch results have always had, the whole
// instruction included; the importing side checks every step against
// its program and keeps only IDs (importTrace).
type BranchStep struct {
	Step     int
	Thread   kvm.ThreadID
	Name     string
	Instr    *kir.Instr
	Accesses []sched.AccessRec
	Lockset  []uint64
	Spawned  string
}

// BranchDispatcher executes a phase's branch batch somewhere else — the
// fleet seam of LIFSOptions.Dispatch. RunBranches returns one result
// slot per batch.Work entry; a nil slot means that branch was not
// executed (node lost, lease fenced off, fleet partitioned) and the
// caller re-runs it locally, so a dispatcher degrades by returning less,
// never by blocking. Degraded reports the machine-readable reason when
// the dispatcher has fallen back to local-only execution ("" while
// healthy); diagnoses surface it as a PartialReason.
type BranchDispatcher interface {
	RunBranches(ctx context.Context, prog *kir.Program, batch *BranchBatch) ([]*BranchResult, error)
	Degraded() string
}

// ErrBranchTask rejects a malformed or mismatched branch execution
// request (wrong program, foreign initial state, work index out of
// range, a budget above MaxInterleavings, an access record naming no
// instruction of the program, an initial thread that is not a thread, a
// choice outside its branch event's choices).
var ErrBranchTask = errors.New("core: invalid branch task")

// ExecuteBranch runs one unit of a branch batch on a fresh VM of prog
// and returns its complete outcome. It is the remote side of the fleet
// seam; determinism holds because everything exploration consults is in
// the batch and the fresh machine's initial state is signature-checked
// against the coordinator's.
func ExecuteBranch(ctx context.Context, prog *kir.Program, batch *BranchBatch, i int) (*BranchResult, error) {
	if i < 0 || i >= len(batch.Work) {
		return nil, fmt.Errorf("%w: work index %d of %d", ErrBranchTask, i, len(batch.Work))
	}
	w := batch.Work[i]
	if h := prog.Hash(); batch.ProgHash != "" && batch.ProgHash != h {
		return nil, fmt.Errorf("%w: program hash %s, batch wants %s", ErrBranchTask, h, batch.ProgHash)
	}
	m, err := newWorkerMachine(ctx, prog, nil, faultinject.RetryPolicy{}, "", batch.InitSig)
	if err != nil {
		return nil, err
	}
	opts := LIFSOptions{
		MaxInterleavings: batch.Opts.MaxInterleavings,
		StepBudget:       batch.Opts.StepBudget,
		MaxSchedules:     batch.Opts.MaxSchedules,
		LeakCheck:        batch.Opts.LeakCheck,
		RecordLeaves:     batch.Opts.RecordLeaves,
		NoPruning:        batch.Opts.NoPruning,
		WantKind:         batch.Opts.WantKind,
		WantInstr:        batch.Opts.WantInstr,
		Guide:            batch.Guide,
	}
	if opts.MaxSchedules <= 0 {
		opts.MaxSchedules = DefaultMaxSchedules
	}
	if opts.MaxInterleavings <= 0 {
		opts.MaxInterleavings = DefaultMaxInterleavings
	}
	if batch.Budget < 0 || batch.Budget > opts.MaxInterleavings {
		return nil, fmt.Errorf("%w: budget %d outside 0..%d", ErrBranchTask, batch.Budget, opts.MaxInterleavings)
	}
	if err := checkAccesses(prog, batch.Base); err != nil {
		return nil, err
	}
	s := &searcher{main: newWorkerVM(m), opts: opts, ctx: ctx}
	if opts.Guide != nil {
		s.guide = newGuideState(prog, opts)
	}
	s.best.Store(math.MaxInt64)
	p := &phaseRun{s: s, k: batch.Budget, base: sched.ImportAccessMap(batch.Base)}
	u := &unit{ordinal: w.Ordinal, group: w.Group, choice: w.Choice, initial: kvm.ThreadID(w.Initial)}
	s.runTask(p, u, s.main, -1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if u.err != nil {
		return nil, u.err
	}
	res := &BranchResult{
		Ordinal:     w.Ordinal,
		Accesses:    u.log.Export(),
		Leaves:      u.leaves,
		Schedules:   u.schedules,
		Pruned:      u.pruned,
		GuidePruned: u.guidePruned,
	}
	if u.cand != nil {
		res.Accepted = true
		res.Trace = exportTrace(prog, &u.cand.trace)
		res.BudgetLeft = u.cand.budgetLeft
	}
	return res, nil
}

// exportTrace converts a candidate's trace to its wire form.
func exportTrace(prog *kir.Program, tr *sched.Trace) []BranchStep {
	out := make([]BranchStep, tr.Len())
	for k, e := range tr.Steps {
		out[k] = BranchStep{
			Step:    int(e.Step),
			Thread:  kvm.ThreadID(e.Thread),
			Name:    tr.Name(k),
			Instr:   prog.InstrAt(e.Instr),
			Spawned: tr.Spawned(k),
		}
		if accs := tr.Accesses(k); len(accs) > 0 {
			out[k].Accesses = accs
		}
		if locks := tr.Lockset(k); len(locks) > 0 {
			out[k].Lockset = locks
		}
	}
	return out
}

// importTrace checks a wire trace against prog and converts it to a
// candidate's trace. Every step must sit at its own position and name an
// instruction of prog, and its thread must be one the machine would
// number that way: a declared thread by its declaration index, or a
// thread an earlier step spawned, numbered in spawn order. The trace
// keeps those IDs.
func importTrace(prog *kir.Program, steps []BranchStep) (sched.Trace, error) {
	names := make([]string, len(prog.Threads))
	for i, td := range prog.Threads {
		names[i] = td.Name
	}
	for k, st := range steps {
		switch {
		case st.Step != k:
			return sched.Trace{}, fmt.Errorf("%w: trace step %d stamped %d", ErrBranchTask, k, st.Step)
		case st.Instr == nil || st.Instr.ID < 0 || int(st.Instr.ID) >= prog.NumInstrs():
			return sched.Trace{}, fmt.Errorf("%w: trace step %d names no instruction of the program", ErrBranchTask, k)
		case st.Thread < 0 || int(st.Thread) >= len(names) || names[st.Thread] != st.Name:
			return sched.Trace{}, fmt.Errorf("%w: trace step %d runs thread %d %q, not a thread of the run", ErrBranchTask, k, st.Thread, st.Name)
		case st.Spawned != "" && slices.Contains(names, st.Spawned):
			return sched.Trace{}, fmt.Errorf("%w: trace step %d spawns %q twice", ErrBranchTask, k, st.Spawned)
		}
		if st.Spawned != "" {
			names = append(names, st.Spawned)
		}
	}
	// Interning against the checked table keeps the machine's IDs.
	tr := sched.Trace{Names: names}
	for k, st := range steps {
		tr.AddStep(st.Name, st.Instr.ID, st.Accesses)
		if st.Spawned != "" {
			tr.Steps[k].Spawned = tr.Intern(st.Spawned)
		}
	}
	return tr, nil
}

// exportBatch builds the phase's dispatchable batch from the live
// search state.
func (s *searcher) exportBatch(p *phaseRun, tasks []*unit) *BranchBatch {
	b := &BranchBatch{
		ProgHash: s.main.m.Prog().Hash(),
		InitSig:  s.initSig,
		Budget:   p.k,
		Base:     p.base.Export(),
		Opts: BranchOpts{
			StepBudget:       s.opts.StepBudget,
			MaxSchedules:     s.opts.MaxSchedules,
			LeakCheck:        s.opts.LeakCheck,
			RecordLeaves:     s.opts.RecordLeaves,
			NoPruning:        s.opts.NoPruning,
			WantKind:         s.opts.WantKind,
			WantInstr:        s.opts.WantInstr,
			MaxInterleavings: s.opts.MaxInterleavings,
		},
		Guide: s.opts.Guide,
	}
	for _, tu := range tasks {
		b.Work = append(b.Work, BranchWork{Ordinal: tu.ordinal, Group: tu.group, Choice: tu.choice, Initial: int(tu.initial)})
	}
	return b
}

// dispatchTasks runs the phase's parallel tasks through the fleet
// dispatcher and imports whatever the fleet executed; the phase's sweep
// runs the rest on the main machine, in ordinal order. The ordinal
// winner rule survives every outcome: the merge takes units in ordinal
// order up to the lowest candidate, and the sweep runs every unrun task
// below it.
func (s *searcher) dispatchTasks(p *phaseRun, tasks []*unit, d BranchDispatcher) {
	results, err := d.RunBranches(s.ctx, s.main.m.Prog(), s.exportBatch(p, tasks))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.setCtxErr(err)
		}
		return
	}
	prog := s.main.m.Prog()
	for _, res := range results {
		if res == nil || res.Ordinal < 0 || res.Ordinal >= len(p.units) {
			continue
		}
		if u := p.units[res.Ordinal]; !u.probe && !u.ran {
			// A result that fails its checks is dropped: the sweep runs
			// the unit locally.
			_ = importBranchResult(prog, u, res)
		}
	}
}

// importBranchResult checks a remotely executed unit's outcome against
// prog and installs it on the unit, as a local run would have left it.
// A result that fails the checks leaves the unit untouched.
func importBranchResult(prog *kir.Program, u *unit, res *BranchResult) error {
	if err := checkAccesses(prog, res.Accesses); err != nil {
		return err
	}
	var cand *candidate
	if res.Accepted {
		if len(res.Trace) == 0 {
			return fmt.Errorf("%w: accepted branch with an empty trace", ErrBranchTask)
		}
		trace, err := importTrace(prog, res.Trace)
		if err != nil {
			return err
		}
		cand = &candidate{trace: trace, budgetLeft: res.BudgetLeft}
	}
	u.ran = true
	u.tWorker = -2 // remote execution marker (obs Info arg only)
	u.log = sched.ImportAccessLog(res.Accesses)
	u.leaves = res.Leaves
	u.schedules, u.pruned, u.guidePruned = res.Schedules, res.Pruned, res.GuidePruned
	u.cand = cand
	return nil
}

// checkAccesses rejects access records that name no instruction of prog.
// The access map indexes sites by instruction ID, so records from a peer
// or a checkpoint are checked before they reach it.
func checkAccesses(prog *kir.Program, recs []sched.AccessExport) error {
	for _, r := range recs {
		if r.Instr < 0 || int(r.Instr) >= prog.NumInstrs() {
			return fmt.Errorf("%w: access record names instruction %d of %d", ErrBranchTask, r.Instr, prog.NumInstrs())
		}
	}
	return nil
}
