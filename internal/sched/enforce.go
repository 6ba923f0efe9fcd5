package sched

import (
	"context"
	"fmt"

	"aitia/internal/faultinject"
	"aitia/internal/kvm"
)

// Options configure one enforced run.
type Options struct {
	// StepBudget bounds the number of executed instructions; exceeding it
	// ends the run with a watchdog (soft lockup) failure. Zero means
	// DefaultStepBudget.
	StepBudget int
	// LeakCheck runs the memory-leak check when all threads finish.
	LeakCheck bool

	// Prefix holds the schedule steps already executed before this run
	// started — non-empty when the caller brought the machine to a
	// prefix-cache position and enforces only a suffix schedule. The run
	// never copies or writes it: it returns Prefix by reference as
	// RunResult.Base and records only its own steps into RunResult.Seq,
	// numbering them, and accounting the watchdog/stall budgets, from
	// Prefix's length; the prefix's thread boundaries count as switches.
	// A suffix run thereby returns exactly the full run's sequence, split
	// into Base and Seq.
	Prefix Trace

	// Log holds the arrays the run records its own steps into: it
	// appends records, accesses and locks to Log's arrays from empty,
	// overwriting whatever they held, and RunResult.Seq shares them
	// while the run fits their capacity. A caller that knows about how
	// long the run is past Prefix passes arrays with that much capacity,
	// so RunResult.Seq does not grow from empty; the final LIFS replay
	// passes the winning candidate's own trace, which it rewrites in
	// place. Log's name table is not read.
	Log Trace

	// OnStep, when non-nil, is called after every executed step with the
	// cumulative schedule position (Prefix.Len() + steps executed so far).
	// The prefix cache uses it to pin snapshots along a replayed run
	// without re-stepping it.
	OnStep func(pos int)

	// Fault arms deterministic fault injection for this run: an
	// enforce-stall decision is drawn once at entry from (FaultOp,
	// FaultKey, FaultAttempt), and when it fires the run aborts with the
	// injected fault error after the drawn number of executed steps — as
	// if the VM had stopped making progress and the watchdog killed the
	// attempt. Nil (the default) disables injection entirely.
	Fault *faultinject.Plan
	// FaultOp labels the injection point (default "sched.enforce").
	FaultOp string
	// FaultKey is the operation's stable identity under the plan (e.g.
	// the flip-test index); FaultAttempt its retry ordinal.
	FaultKey     uint64
	FaultAttempt int

	// Ctx, when non-nil, is polled periodically during enforcement; once
	// it ends the run aborts with its error. This is how per-attempt
	// timeouts bound a stuck enforcement.
	Ctx context.Context
}

// ctxPollMask throttles Ctx polling to every 1024 loop iterations, off
// the per-step hot path.
const ctxPollMask = 1023

// DefaultStepBudget is the watchdog limit used when Options.StepBudget is
// zero. Scenario programs execute tens to hundreds of instructions; a run
// that needs more than this is stuck.
const DefaultStepBudget = 100000

// Enforcer drives one machine under schedules. It owns the machine between
// runs: Run resets nothing by itself — callers restore snapshots or Reset
// the machine. A typical loop is:
//
//	snap := m.Snapshot()
//	for _, sch := range schedules {
//	    res, err := enf.Run(sch)
//	    ...
//	    m.Restore(snap)
//	}
type Enforcer struct {
	m *kvm.Machine
}

// NewEnforcer wraps a machine.
func NewEnforcer(m *kvm.Machine) *Enforcer { return &Enforcer{m: m} }

// pick chooses the next thread when the schedule does not dictate one:
// first matching name in prefs, else the lowest-ID viable thread.
func (e *Enforcer) pick(prefs []string) kvm.ThreadID {
	for _, name := range prefs {
		if t := e.m.ThreadByName(name); t != nil && e.m.CanRun(t.ID) {
			return t.ID
		}
	}
	return e.m.FirstRunnable()
}

// Run executes the machine under the schedule until failure, completion,
// deadlock or watchdog. It returns the totally ordered executed sequence.
func (e *Enforcer) Run(sch Schedule, opts Options) (*RunResult, error) {
	budget := opts.StepBudget
	if budget <= 0 {
		budget = DefaultStepBudget
	}
	faultOp := opts.FaultOp
	if faultOp == "" {
		faultOp = "sched.enforce"
	}
	// Drawn once at entry: the whole run's stall fate is fixed by the
	// operation identity, never by execution order.
	stallAt := opts.Fault.StallStep(faultOp, opts.FaultKey, opts.FaultAttempt)
	var ticks uint
	res := &RunResult{Threads: make(map[string]kvm.ThreadState)}
	prefix := opts.Prefix.Steps
	if len(prefix) > 0 {
		res.Base = opts.Prefix
	}
	log := Trace{Steps: opts.Log.Steps[:0], Accs: opts.Log.Accs[:0], Locks: opts.Log.Locks[:0]}
	// A full run switches once per thread boundary of the replayed
	// prefix; so does a suffix run, which counts them up front.
	for i := 1; i < len(prefix); i++ {
		if prefix[i].Thread != prefix[i-1].Thread {
			res.Switches++
		}
	}
	prefixSwitches := res.Switches
	pending := append([]Point(nil), sch.Points...) // Skip counters are consumed
	var div Diversions

	cur := kvm.NoThread
	if t := e.m.ThreadByName(sch.Initial); t != nil {
		cur = t.ID
	} else {
		cur = e.pick(sch.Fallback)
	}

	finish := func() *RunResult {
		log.Names = ThreadNames(e.m)
		res.Seq = log
		res.Failure = e.m.Failure()
		res.Missed += len(pending)
		for i := 0; i < e.m.NumThreads(); i++ {
			t := e.m.Thread(kvm.ThreadID(i))
			res.Threads[t.Name] = t.State
		}
		return res
	}

	for {
		if ticks++; ticks&ctxPollMask == 0 && opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		if Ended(e.m, opts.LeakCheck) {
			return finish(), nil
		}

		// Drop points whose Run thread can never hit them anymore; a
		// missed breakpoint still performs its switch (the paper's
		// race-steered control flow makes breakpoints unreachable — the
		// schedule continues with the next thread regardless).
		progressed := true
		for progressed && len(pending) > 0 {
			progressed = false
			rt := e.m.ThreadByName(pending[0].Run)
			if rt != nil && (rt.State == kvm.Done || rt.State == kvm.Crashed) {
				to := e.m.ThreadByName(pending[0].To)
				pending = pending[1:]
				res.Missed++
				if to != nil && e.m.CanRun(to.ID) {
					cur = to.ID
				}
				progressed = true
			}
		}

		// Return from a lock diversion once the diverted-from thread can
		// run again; divert a thread blocked on a held lock to the owner.
		cur = div.Resume(e.m, cur)
		if !e.m.CanRun(cur) {
			if owner, ok := div.Divert(e.m, cur); ok {
				cur = owner
				res.Switches++
				continue
			}
			// Not Ended, so some thread can run.
			next := e.pick(sch.Fallback)
			if next != cur {
				res.Switches++
			}
			cur = next
			continue
		}

		// Pre-execution breakpoint.
		curT := e.m.Thread(cur)
		if len(pending) > 0 && !pending[0].After && pending[0].Run == curT.Name {
			if next, ok := e.m.NextInstr(cur); ok && next.ID == pending[0].At {
				if pending[0].Skip > 0 {
					pending[0].Skip--
				} else {
					to := e.m.ThreadByName(pending[0].To)
					pending = pending[1:]
					if to != nil && to.ID != cur && (e.m.CanRun(to.ID) || to.State == kvm.Blocked) {
						cur = to.ID
						res.Switches++
						continue
					}
					res.Missed++
					continue
				}
			}
		}

		ev, err := e.m.Step(cur)
		if err != nil {
			return nil, fmt.Errorf("sched: step thread %d: %w", cur, err)
		}
		if !ev.Executed {
			// Blocked on a held lock: divert to the owner (liveness).
			if owner, ok := div.Divert(e.m, cur); ok {
				cur = owner
				res.Switches++
			}
			continue
		}

		if n := len(prefix); n > 0 && len(log.Steps) == 0 && res.Switches == prefixSwitches && prefix[n-1].Thread != int32(cur) {
			// The seam: the full run switched from the prefix's last
			// thread to this one, which this run started on directly.
			// The machine reached the cut by replaying the prefix, so
			// its thread IDs are the prefix's.
			res.Switches++
		}
		log.Append(len(prefix)+len(log.Steps), cur, ev.Instr.ID, ev.Spawned, ev.Accesses, curT.Locks)
		pos := len(prefix) + len(log.Steps)
		if opts.OnStep != nil {
			opts.OnStep(pos)
		}

		if stallAt >= 0 && pos > stallAt {
			return nil, &faultinject.Fault{
				Kind:    faultinject.KindEnforceStall,
				Op:      faultOp,
				Key:     opts.FaultKey,
				Attempt: opts.FaultAttempt,
			}
		}
		if Watchdog(e.m, pos, budget, curT, ev.Instr.ID) {
			return finish(), nil
		}

		// Post-execution breakpoint (used to run a thread *through* an
		// instruction, e.g. "run B until it has executed Y, then resume").
		if len(pending) > 0 && pending[0].After && pending[0].Run == curT.Name && ev.Instr.ID == pending[0].At {
			if pending[0].Skip > 0 {
				pending[0].Skip--
			} else {
				to := e.m.ThreadByName(pending[0].To)
				pending = pending[1:]
				if to != nil && to.ID != cur && (e.m.CanRun(to.ID) || to.State == kvm.Blocked) {
					cur = to.ID
					res.Switches++
				}
			}
		}
	}
}
