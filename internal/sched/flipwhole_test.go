package sched

import "aitia/internal/kir"

// The whole-sequence flip planners: each flips race r over all of seq and
// plans from the initial state. The pipeline only ever plans a flip's
// suffix (PlanFlipCut); these are the references it is checked against.
// Being exported from a test file, they are visible to the external
// sched_test package too, whose corpus tests reproduce scenarios with
// internal/core.

// FlipSeq returns the desired total order for testing race r with its
// interleaving order flipped, per Causality Analysis (§3.4): the entries of
// First's thread from the First access onward are delayed until just after
// the Second access, preserving per-thread program order and every other
// cross-thread ordering. When either access runs under locks, the
// displaced region is widened to whole critical sections, flipping them as
// units. prog is the program seq executed.
//
// FlipSeq panics if the race is phantom (its Second access has no position
// in seq); phantom races are planned by PlanPhantomFlip.
func FlipSeq(prog *kir.Program, seq *Trace, r Race) Trace {
	return FlipSeqOpt(prog, seq, r, FlipOptions{})
}

// FlipSeqOpt is FlipSeq with ablation switches: seq up to the displaced
// region, followed by flipTail's tail, materialized as records. The
// result shares seq's arrays and name table.
func FlipSeqOpt(prog *kir.Program, seq *Trace, r Race, fo FlipOptions) Trace {
	o := flipOrder(prog, seq, r, fo)
	out := Trace{Steps: make([]Exec, o.len()), Accs: seq.Accs, Locks: seq.Locks, Names: seq.Names}
	for k := range out.Steps {
		out.Steps[k] = *o.at(k)
	}
	return out
}

// PlanFlip builds the schedule that re-executes the failing run with race
// r flipped and everything else preserved.
func PlanFlip(prog *kir.Program, seq *Trace, r Race, fallback []string) Schedule {
	return PlanFlipOpt(prog, seq, r, fallback, FlipOptions{})
}

// PlanFlipOpt is PlanFlip with ablation switches.
func PlanFlipOpt(prog *kir.Program, seq *Trace, r Race, fallback []string, fo FlipOptions) Schedule {
	if r.Phantom {
		return PlanPhantomFlip(seq, r, fallback)
	}
	return fromOrder(flipOrder(prog, seq, r, fo), fallback)
}

// FlipCut returns the cut PlanFlipCut returns, flipping the whole
// sequence on its own.
func FlipCut(prog *kir.Program, seq *Trace, r Race, fo FlipOptions) int {
	if !positionStamped(seq) {
		return 0
	}
	if r.Phantom {
		return r.FirstStep
	}
	i, tail := flipTail(prog, seq, r, fo)
	return i + firstMoved(tail, i)
}

// PlanFlipFrom builds the suffix of the flip plan for race r that starts
// at position n of the enforced order, where n must be at most
// FlipCut(prog, seq, r, fo). The suffix's first segment re-derives
// exactly the Skip count the full plan's pending head would have left
// unconsumed at n, and Initial names the thread the full run would be
// executing there.
func PlanFlipFrom(prog *kir.Program, seq *Trace, r Race, fallback []string, fo FlipOptions, n int) Schedule {
	if r.Phantom {
		return planPhantomFlipFrom(seq, r, fallback, n)
	}
	o := flipOrder(prog, seq, r, fo)
	o.pos = o.pos[n:]
	return fromOrder(o, fallback)
}
