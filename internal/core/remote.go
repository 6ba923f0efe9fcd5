package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
	"aitia/internal/sched"
)

// This file is the fleet seam of LIFS: a deepening phase's parallel
// branch units — the same units the local worker pool shards — exported
// as a self-contained, serializable batch that any process holding the
// same program can execute. Branch exploration is a pure function of
// (initial machine state, phase budget, frozen base AccessMap, probe
// visited claims, unit identity, search options): everything in that
// tuple rides in the batch, so a remote execution returns byte-identical
// access records, leaves and candidate traces to a local one — which is
// what lets a fleet-wide diagnosis reproduce the serial diagnosis
// exactly, whichever node ran which branch, however many times a lost
// lease forced a branch to be re-executed.

// BranchUnitMeta is the pruning-relevant identity of one phase unit.
// Remote pruneCheck/exempt decisions consult the claimant unit's group
// and probe flag, so the whole ordinal-indexed unit table travels.
type BranchUnitMeta struct {
	Group int  `json:"g"`
	Probe bool `json:"p,omitempty"`
}

// BranchVisited is one probe visited-state claim (serializable twin of
// the internal visited-set entry).
type BranchVisited struct {
	Sig     uint64 `json:"sig"`
	Cur     int    `json:"cur"`
	Budget  int    `json:"budget"`
	Ordinal int    `json:"ordinal"`
}

// BranchOpts is the subset of LIFSOptions a branch execution depends on.
type BranchOpts struct {
	StepBudget   int            `json:"step_budget,omitempty"`
	MaxSchedules int            `json:"max_schedules,omitempty"`
	LeakCheck    bool           `json:"leak_check,omitempty"`
	RecordLeaves bool           `json:"record_leaves,omitempty"`
	NoPruning    bool           `json:"no_pruning,omitempty"`
	WantKind     sanitizer.Kind `json:"want_kind,omitempty"`
	WantInstr    kir.InstrID    `json:"want_instr,omitempty"`
}

// BranchWork names one branch unit to execute: a task unit's ordinal
// and branch choice within the batch's unit table.
type BranchWork struct {
	Ordinal int `json:"ordinal"`
	Group   int `json:"group"`
	Choice  int `json:"choice"`
	Initial int `json:"initial"`
}

// BranchBatch is one deepening phase's dispatchable branch work: the
// shared execution context (frozen base map, probe claims, unit table,
// options) plus the task units to run. The batch is pure data — JSON
// for a wire transport, shared by reference in process.
type BranchBatch struct {
	// ProgHash identifies (and, over a wire transport, validates) the
	// program; InitSig pins the machine's initial state signature.
	ProgHash string               `json:"prog_hash"`
	InitSig  uint64               `json:"init_sig"`
	Budget   int                  `json:"budget"` // the phase's preemption budget k
	Units    []BranchUnitMeta     `json:"units"`
	Visited  []BranchVisited      `json:"visited,omitempty"`
	Base     []sched.AccessExport `json:"base,omitempty"`
	Opts     BranchOpts           `json:"opts"`
	Work     []BranchWork         `json:"work"`
}

// BranchResult is one executed branch unit's complete outcome — exactly
// the state a local run leaves on its unit.
type BranchResult struct {
	Ordinal    int                  `json:"ordinal"`
	Accesses   []sched.AccessExport `json:"accesses,omitempty"`
	Leaves     []LeafTrace          `json:"leaves,omitempty"`
	Accepted   bool                 `json:"accepted,omitempty"`
	Trace      []sched.Exec         `json:"trace,omitempty"`
	BudgetLeft int                  `json:"budget_left,omitempty"`
	Schedules  int64                `json:"schedules,omitempty"`
	Pruned     int64                `json:"pruned,omitempty"`
	Replayed   uint64               `json:"replayed,omitempty"`
	Exhausted  bool                 `json:"exhausted,omitempty"`
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
// request (wrong program, foreign initial state, ordinal out of range).
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
	if w.Ordinal < 0 || w.Ordinal >= len(batch.Units) {
		return nil, fmt.Errorf("%w: ordinal %d outside unit table of %d", ErrBranchTask, w.Ordinal, len(batch.Units))
	}
	if h := prog.Hash(); batch.ProgHash != "" && batch.ProgHash != h {
		return nil, fmt.Errorf("%w: program hash %s, batch wants %s", ErrBranchTask, h, batch.ProgHash)
	}
	m, err := kvm.New(prog)
	if err != nil {
		return nil, err
	}
	if batch.InitSig != 0 && m.StateSignature() != batch.InitSig {
		return nil, fmt.Errorf("%w: initial state signature mismatch", ErrBranchTask)
	}
	maxSched := batch.Opts.MaxSchedules
	if maxSched <= 0 {
		maxSched = DefaultMaxSchedules
	}
	s := &searcher{
		m:  m,
		am: sched.ImportAccessMap(batch.Base),
		opts: LIFSOptions{
			StepBudget:   batch.Opts.StepBudget,
			MaxSchedules: maxSched,
			LeakCheck:    batch.Opts.LeakCheck,
			RecordLeaves: batch.Opts.RecordLeaves,
			NoPruning:    batch.Opts.NoPruning,
			WantKind:     batch.Opts.WantKind,
			WantInstr:    batch.Opts.WantInstr,
			// Workers > 1 selects the parallel-task explorer semantics
			// (read-only shared claims, own revisits in a local map) —
			// the semantics the batch's visited snapshot was built for.
			Workers: 2,
		},
		ctx: ctx,
	}
	s.initSig = m.StateSignature()
	s.init = m.Snapshot()
	s.best.Store(math.MaxInt64)
	p := &phaseRun{s: s, k: batch.Budget, base: s.am, vis: newVisitedSet()}
	for _, um := range batch.Units {
		p.addUnit(um.Group, um.Probe, 0, 0)
	}
	for _, ve := range batch.Visited {
		p.vis.insert(visKey{sig: ve.Sig, cur: kvm.ThreadID(ve.Cur), budget: ve.Budget}, ve.Ordinal)
	}
	u := p.units[w.Ordinal]
	u.group, u.probe, u.choice, u.initial = w.Group, false, w.Choice, kvm.ThreadID(w.Initial)
	s.runUnit(p, u, m, &s.buf, false, -1, batch.Budget)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &BranchResult{
		Ordinal:   w.Ordinal,
		Accesses:  u.log.Export(),
		Leaves:    u.leaves,
		Schedules: s.schedules.Load(),
		Pruned:    s.pruned.Load(),
		Replayed:  s.prefix.replayed.Load(),
		Exhausted: s.exhausted.Load(),
	}
	if u.cand != nil {
		res.Accepted = true
		res.Trace = u.cand.trace
		res.BudgetLeft = u.cand.budgetLeft
	}
	return res, nil
}

// exportBatch builds the phase's dispatchable batch from the live
// search state. Probes have all completed by dispatch time, so the
// visited set is exactly the probe claims a remote explorer must see.
func (s *searcher) exportBatch(p *phaseRun, k int, tasks []*unit) *BranchBatch {
	b := &BranchBatch{
		ProgHash: s.m.Prog().Hash(),
		InitSig:  s.initSig,
		Budget:   k,
		Base:     p.base.Export(),
		Opts: BranchOpts{
			StepBudget:   s.opts.StepBudget,
			MaxSchedules: s.opts.MaxSchedules,
			LeakCheck:    s.opts.LeakCheck,
			RecordLeaves: s.opts.RecordLeaves,
			NoPruning:    s.opts.NoPruning,
			WantKind:     s.opts.WantKind,
			WantInstr:    s.opts.WantInstr,
		},
	}
	for _, u := range p.units {
		b.Units = append(b.Units, BranchUnitMeta{Group: u.group, Probe: u.probe})
	}
	for _, ve := range exportVisited(p.vis) {
		b.Visited = append(b.Visited, BranchVisited{Sig: ve.Sig, Cur: ve.Cur, Budget: ve.Budget, Ordinal: ve.Ordinal})
	}
	for _, tu := range tasks {
		b.Work = append(b.Work, BranchWork{Ordinal: tu.ordinal, Group: tu.group, Choice: tu.choice, Initial: int(tu.initial)})
	}
	return b
}

// dispatchTasks runs the phase's parallel tasks through the fleet
// dispatcher, importing whatever the fleet executed and sweeping up the
// rest on the main machine — serially, in ordinal order, exactly the
// degradation path a failed local worker fleet takes. The ordinal
// winner rule survives every outcome: remote results are imported in
// ordinal order, units beyond an accepted candidate are skipped (as the
// serial search skips them), and unexecuted units run locally.
func (s *searcher) dispatchTasks(p *phaseRun, k int, tasks []*unit, d BranchDispatcher) {
	batch := s.exportBatch(p, k, tasks)
	results, err := d.RunBranches(s.ctx, s.m.Prog(), batch)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		s.setCtxErr(err)
		return
	}
	byOrdinal := make(map[int]*BranchResult, len(results))
	if err == nil {
		for _, res := range results {
			if res != nil {
				byOrdinal[res.Ordinal] = res
			}
		}
	}
	for _, tu := range tasks {
		if tu.ran || s.exhausted.Load() || s.ctxErr != nil {
			continue
		}
		if s.best.Load() < int64(tu.ordinal) {
			continue
		}
		if res, ok := byOrdinal[tu.ordinal]; ok {
			s.importBranchResult(tu, res)
			continue
		}
		s.m.Restore(s.init)
		s.runUnit(p, tu, s.m, &s.buf, false, -1, k)
	}
}

// importBranchResult installs a remotely executed unit's outcome as if
// the unit had run on a local worker.
func (s *searcher) importBranchResult(u *unit, res *BranchResult) {
	u.ran = true
	u.tWorker = -2 // remote execution marker (obs Info arg only)
	u.log = sched.ImportAccessLog(res.Accesses)
	u.leaves = res.Leaves
	s.pruned.Add(res.Pruned)
	s.prefix.replayed.Add(res.Replayed)
	if n := s.schedules.Add(res.Schedules); int(n) >= s.opts.MaxSchedules || res.Exhausted {
		s.exhausted.Store(true)
	}
	if res.Accepted {
		u.cand = &candidate{trace: res.Trace, budgetLeft: res.BudgetLeft}
		for {
			b := s.best.Load()
			if int64(u.ordinal) >= b || s.best.CompareAndSwap(b, int64(u.ordinal)) {
				break
			}
		}
	}
}
