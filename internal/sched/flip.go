package sched

import (
	"math"
	"slices"

	"aitia/internal/kir"
)

// seqOrder is an order of steps of seq named by their positions: the
// flipped orders flip plans are built from, which never copy a record.
// A nil pos is the identity order of the steps [lo, hi).
type seqOrder struct {
	seq    *Trace
	pos    []int32
	lo, hi int
}

// stretch is the identity order of seq's steps [lo, hi).
func stretch(seq *Trace, lo, hi int) seqOrder { return seqOrder{seq: seq, lo: lo, hi: hi} }

func (o seqOrder) len() int {
	if o.pos == nil {
		return o.hi - o.lo
	}
	return len(o.pos)
}

func (o seqOrder) at(k int) *Exec {
	if o.pos == nil {
		return &o.seq.Steps[o.lo+k]
	}
	return &o.seq.Steps[o.pos[k]]
}

// FromSeq builds the schedule that deterministically replays the given
// executed sequence (a desired total order of executed instructions): one
// post-execution switch point per thread-segment boundary. Occurrence
// counting (Point.Skip) handles instructions that repeat within a
// segment. The fallback order takes over after the last switch point (and
// whenever control flow diverges from the recorded sequence). It is
// fromOrder over the identity order.
func FromSeq(seq *Trace, fallback []string) Schedule {
	return fromOrder(stretch(seq, 0, seq.Len()), fallback)
}

// fromOrder builds the schedule that replays the entries of o in o's
// order (FromSeq).
func fromOrder(o seqOrder, fallback []string) Schedule {
	sch := Schedule{Fallback: fallback}
	n := o.len()
	if n == 0 {
		return sch
	}
	names := o.seq.Names
	sch.Initial = names[o.at(0).Thread]
	segStart := 0
	for i := 1; i <= n; i++ {
		if i < n && o.at(i).Thread == o.at(segStart).Thread {
			continue
		}
		// Segment [segStart, i) of one thread ends at i-1.
		if i < n {
			last := o.at(i - 1)
			skip := 0
			for j := segStart; j < i-1; j++ {
				if o.at(j).Instr == last.Instr {
					skip++
				}
			}
			sch.Points = append(sch.Points, Point{
				Run:   names[last.Thread],
				At:    last.Instr,
				After: true,
				Skip:  skip,
				To:    names[o.at(i).Thread],
			})
		}
		segStart = i
	}
	return sch
}

// FlipOptions tune flip-plan construction (ablation switches).
type FlipOptions struct {
	// NoCriticalSections disables the §3.4 liveness rule of flipping
	// whole critical sections as units. With it set, a flip may suspend a
	// thread inside a critical section; the enforcement engine then has
	// to divert through the lock owner and the intended reversal is often
	// not realized — the misclassification the rule exists to prevent.
	NoCriticalSections bool
}

// flipOrder returns race r's whole flipped order as positions of seq:
// the identity up to the displaced region, then flipTail's tail.
func flipOrder(prog *kir.Program, seq *Trace, r Race, fo FlipOptions) seqOrder {
	i, tail := flipTail(prog, seq, r, fo)
	pos := make([]int32, i, i+len(tail))
	for k := range pos {
		pos[k] = int32(k)
	}
	return seqOrder{seq: seq, pos: append(pos, tail...)}
}

// flipTail builds only the part of race r's flipped order that can
// differ from seq: it returns the displaced region's start i and the
// flipped order from position i on, as positions of seq, so the whole
// flipped order is seq's first i steps followed by the entries the tail
// names. seq must be an executed order — every entry of
// a spawned thread follows its spawn — so the spawn repair never moves
// an entry before i; it is told which threads those entries already
// spawned.
func flipTail(prog *kir.Program, seq *Trace, r Race, fo FlipOptions) (int, []int32) {
	if r.Phantom {
		panic("sched: flipTail on a phantom race")
	}
	i, j := r.FirstStep, r.SecondStep
	if !fo.NoCriticalSections {
		i, j = widenCriticalSections(prog, seq, r)
	}
	tX := seq.ID(r.First.Thread)
	steps := seq.Steps
	tail := make([]int32, 0, len(steps)-i)
	for k := i; k <= j; k++ {
		if steps[k].Thread != tX {
			tail = append(tail, int32(k))
		}
	}
	for k := i; k <= j; k++ {
		if steps[k].Thread == tX {
			tail = append(tail, int32(k))
		}
	}
	for k := j + 1; k < len(steps); k++ {
		tail = append(tail, int32(k))
	}
	return i, repairSpawnOrder(seq, tail, spawnedIn(seq, i))
}

// spawnedIn returns the IDs of the threads spawned in seq's first n
// steps, each once.
func spawnedIn(seq *Trace, n int) []int32 {
	var ids []int32
	for _, e := range seq.Steps[:n] {
		if e.Spawned >= 0 && !slices.Contains(ids, e.Spawned) {
			ids = append(ids, e.Spawned)
		}
	}
	return ids
}

// repairSpawnOrder restores spawn causality in order, a reordering of
// entries of seq given by their positions: a dynamically spawned thread
// (kworker, RCU callback) cannot execute before the step that spawned
// it, so any of its entries that drifted ahead of the spawn point are
// pushed back to just after it. Flips that would require breaking spawn
// causality (e.g. keeping a worker's step in place while delaying the
// syscall that queues the work) are thereby resolved the same way the
// hypervisor would resolve them: the worker simply runs later. Repair
// iterates because spawn chains nest (syscall -> kworker -> RCU
// callback). order may continue an executed prefix; spawned names the
// threads that prefix already spawned, whose entries are never held. An
// order that already respects spawn order is returned as is.
func repairSpawnOrder(seq *Trace, order []int32, spawned []int32) []int32 {
	steps := seq.Steps
	for pass := 0; pass < 8 && spawnOrderViolated(seq, order, spawned); pass++ {
		// spawnAt[t] is the order position of thread t's first spawn:
		// -1 when the prefix spawned it, notSpawned when nothing does.
		const notSpawned = math.MaxInt
		spawnAt := make([]int, len(seq.Names))
		for t := range spawnAt {
			spawnAt[t] = notSpawned
		}
		for _, t := range spawned {
			spawnAt[t] = -1
		}
		for k, p := range order {
			if t := steps[p].Spawned; t >= 0 && spawnAt[t] == notSpawned {
				spawnAt[t] = k
			}
		}
		out := make([]int32, 0, len(order))
		var held []int32 // entries waiting for their spawner
		heldOf := func(t int32) bool {
			for _, h := range held {
				if steps[h].Thread == t {
					return true
				}
			}
			return false
		}
		for k, p := range order {
			e := &steps[p]
			if sp := spawnAt[e.Thread]; (sp != notSpawned && sp > k) || heldOf(e.Thread) {
				// Runs before its spawner (or behind an earlier held entry
				// of the same thread): hold it back.
				held = append(held, p)
				continue
			}
			out = append(out, p)
			if e.Spawned >= 0 {
				// Release held entries of the thread just spawned.
				var rest []int32
				for _, h := range held {
					if steps[h].Thread == e.Spawned {
						out = append(out, h)
					} else {
						rest = append(rest, h)
					}
				}
				held = rest
			}
		}
		order = append(out, held...)
	}
	return order
}

// spawnOrderViolated reports whether some thread has an entry of order
// before the first entry that spawns it, where spawned names the threads
// an executed prefix before order already spawned. It allocates nothing:
// sequences hold few spawns, so each spawn scans the entries before it.
func spawnOrderViolated(seq *Trace, order []int32, spawned []int32) bool {
	steps := seq.Steps
	for k, p := range order {
		t := steps[p].Spawned
		if t < 0 || slices.Contains(spawned, t) {
			continue
		}
		first := true
		for _, q := range order[:k] {
			if steps[q].Spawned == t {
				first = false // an earlier spawn of the same thread decides
				break
			}
		}
		if !first {
			continue
		}
		for _, q := range order[:k] {
			if steps[q].Thread == t {
				return true
			}
		}
	}
	return false
}

// widenCriticalSections expands [FirstStep, SecondStep] to respect the
// paper's liveness rule (§3.4): a flip must not suspend a thread inside a
// critical section (the resumed thread could block on the held lock and
// the enforcement would have to run the suspended thread anyway), so
// critical sections are flipped as units. If the First access happens
// while its thread holds locks, the displaced region starts at the
// acquisition of the outermost held lock; if the Second access happens
// under locks, the region runs through the release of all of them.
func widenCriticalSections(prog *kir.Program, seq *Trace, r Race) (int, int) {
	i, j := r.FirstStep, r.SecondStep
	if held := seq.Lockset(r.FirstStep); len(held) > 0 {
		outer := held[0]
		tX := seq.ID(r.First.Thread)
		for k := r.FirstStep; k >= 0; k-- {
			if seq.Steps[k].Thread != tX {
				continue
			}
			i = k
			if ls := seq.Lockset(k); prog.InstrAt(seq.Steps[k].Instr).Op == kir.OpLock && len(ls) > 0 && ls[len(ls)-1] == outer {
				break
			}
		}
	}
	if len(seq.Lockset(r.SecondStep)) > 0 {
		tY := seq.ID(r.Second.Thread)
		for k := r.SecondStep; k < seq.Len(); k++ {
			if seq.Steps[k].Thread != tY {
				continue
			}
			j = k
			if len(seq.Lockset(k)) == 0 {
				break
			}
		}
	}
	return i, j
}

// PlanPhantomFlip builds the flip schedule for a race whose Second access
// never executed in the failing run (the failure truncated its thread
// first). The plan replays the original sequence up to just before the
// First access, then suspends First's thread, runs Second's thread until it
// has executed the Second instruction (a post-execution breakpoint — it may
// never fire if the access is unreachable, in which case the thread simply
// finishes), and then resumes the original order.
func PlanPhantomFlip(seq *Trace, r Race, fallback []string) Schedule {
	i := r.FirstStep

	prefix := fromOrder(stretch(seq, 0, i), fallback)
	suffix := fromOrder(stretch(seq, i, seq.Len()), fallback)

	sch := Schedule{Fallback: fallback}
	if i == 0 {
		// The First access is the very first step: start directly in
		// Second's thread instead of arming an unreachable breakpoint.
		sch.Initial = r.Second.Thread
	} else {
		sch.Initial = prefix.Initial
		sch.Points = append(sch.Points, prefix.Points...)
		// Suspend First's thread right before the First access, on the
		// correct occurrence (only occurrences in the thread's final
		// prefix segment can match while this point is the pending head;
		// earlier ones execute while the prefix's own points are pending).
		sch.Points = append(sch.Points, Point{
			Run:  r.First.Thread,
			At:   r.First.Instr,
			Skip: skipWithinFinalSegment(stretch(seq, 0, i), r.First.Thread, r.First.Instr),
			To:   r.Second.Thread,
		})
	}
	// Run Second's thread through the Second access, then hand control
	// back to First's thread.
	sch.Points = append(sch.Points, Point{
		Run:   r.Second.Thread,
		At:    r.Second.Instr,
		After: true,
		To:    r.First.Thread,
	})
	sch.Points = append(sch.Points, suffix.Points...)
	return sch
}

// PlanFlipCut plans the flip test of race r per Causality Analysis
// (§3.4): the entries of First's thread from the First access onward are
// delayed until just after the Second access, preserving per-thread
// program order and every other cross-thread ordering; when either access
// runs under locks, the displaced region is widened to whole critical
// sections, flipping them as units. prog is the program seq executed; a
// phantom race (its Second access has no position in seq) is planned as
// by PlanPhantomFlip.
//
// It returns both halves a prefix cache needs: the cut — the length of
// the verbatim prefix the flip plan shares with the recorded failing
// sequence — and the suffix of the flip plan that starts there. Enforcing
// the suffix with Options.Prefix = seq.Prefix(cut) on a machine brought
// to the state just before step cut returns exactly the result of
// enforcing the whole flip plan from the initial state. It builds only
// the flipped tail (flipTail), as positions of seq: it copies no record.
//
// For a displacement flip the cut is the first position whose entry moved
// (the flipped tail names entries by their positions in seq, so the cut
// is the first position mismatch). For a phantom race the
// plan replays the recorded order verbatim up to the First access, so the
// cut is FirstStep. A sequence without position stamps shares no provable
// prefix: its cut is 0, and the suffix is the whole flip plan.
func PlanFlipCut(prog *kir.Program, seq *Trace, r Race, fallback []string, fo FlipOptions) (int, Schedule) {
	stamped := positionStamped(seq)
	if r.Phantom {
		cut := 0
		if stamped {
			cut = r.FirstStep
		}
		return cut, planPhantomFlipFrom(seq, r, fallback, cut)
	}
	if !stamped {
		return 0, fromOrder(flipOrder(prog, seq, r, fo), fallback)
	}
	i, tail := flipTail(prog, seq, r, fo)
	moved := firstMoved(tail, i)
	return i + moved, fromOrder(seqOrder{seq: seq, pos: tail[moved:]}, fallback)
}

// CutPoints marks the positions of seq a flip of one of its races can
// cut at (PlanFlipCut): mark[k] reports whether a prefix cache should pin
// the state just before step k. A displaced region starts at its race's
// First access, a step with an access that conflicts per am, or at the
// lock acquire widenCriticalSections widens it back to; a phantom race's
// cut is its First access too. When the region holds a thread its own
// thread spawns, the spawn repair keeps the spawn in place and releases
// the spawned thread's entries right after it, so the cut moves to the
// step after a spawn. The rule marks exactly these: the steps with a
// conflicting access, the OpLock steps and the steps after a spawn. am
// must hold seq's own accesses. mark has seq.Len()+1 entries; the last,
// the end of the run, is never a cut.
func CutPoints(prog *kir.Program, seq *Trace, am *AccessMap) []bool {
	n := seq.Len()
	mark := make([]bool, n+1)
	for k, e := range seq.Steps {
		if e.Spawned >= 0 && k+1 < n {
			mark[k+1] = true
		}
		if prog.InstrAt(e.Instr).Op == kir.OpLock {
			mark[k] = true
			continue
		}
		for _, a := range seq.Accesses(k) {
			if am.ConflictsAt(seq.Names[e.Thread], a.Addr, a.Write) {
				mark[k] = true
				break
			}
		}
	}
	return mark
}

// positionStamped reports whether every entry's Step is its index — the
// stamps the cut detection relies on.
func positionStamped(seq *Trace) bool {
	for k, e := range seq.Steps {
		if int(e.Step) != k {
			return false
		}
	}
	return true
}

// firstMoved returns the first index k of flipped, a flipped order of
// positions that starts at position from, whose entry is not the
// recorded entry of position from+k (len(flipped) when none moved).
func firstMoved(flipped []int32, from int) int {
	for k, p := range flipped {
		if int(p) != from+k {
			return k
		}
	}
	return len(flipped)
}

// planPhantomFlipFrom is PlanPhantomFlip minus its first n steps, with
// n <= r.FirstStep. At n == FirstStep the recorded prefix is fully
// consumed: every matching occurrence the suspend point would have
// skipped lies inside the replayed prefix, so the remaining Skip is zero,
// and control sits with the thread that executed step n-1.
func planPhantomFlipFrom(seq *Trace, r Race, fallback []string, n int) Schedule {
	if n == 0 {
		return PlanPhantomFlip(seq, r, fallback)
	}
	i := r.FirstStep

	sch := Schedule{Fallback: fallback}
	if n < i {
		prefix := fromOrder(stretch(seq, n, i), fallback)
		sch.Initial = prefix.Initial
		sch.Points = append(sch.Points, prefix.Points...)
		sch.Points = append(sch.Points, Point{
			Run:  r.First.Thread,
			At:   r.First.Instr,
			Skip: skipWithinFinalSegment(stretch(seq, n, i), r.First.Thread, r.First.Instr),
			To:   r.Second.Thread,
		})
	} else {
		sch.Initial = seq.Name(n - 1)
		sch.Points = append(sch.Points, Point{
			Run: r.First.Thread,
			At:  r.First.Instr,
			To:  r.Second.Thread,
		})
	}
	sch.Points = append(sch.Points, Point{
		Run:   r.Second.Thread,
		At:    r.Second.Instr,
		After: true,
		To:    r.First.Thread,
	})
	sch.Points = append(sch.Points, fromOrder(stretch(seq, i, seq.Len()), fallback).Points...)
	return sch
}

// skipWithinFinalSegment computes how many matching occurrences the
// pre-exec flip point will see before its intended firing position: the
// occurrences of (thread, instr) inside the thread's final segment of the
// prefix o (earlier occurrences execute while earlier points are pending
// and therefore never match this point).
func skipWithinFinalSegment(o seqOrder, thread string, instr kir.InstrID) int {
	// Find the final contiguous segment of the thread at the end of the
	// prefix; if the prefix ends with another thread's segment, the flip
	// point becomes head only when control returns to the thread, which is
	// exactly at the boundary — no occurrences are consumed before it.
	n := o.len()
	if n == 0 {
		return 0
	}
	t := o.seq.ID(thread)
	skip := 0
	for k := n - 1; k >= 0 && o.at(k).Thread == t; k-- {
		if o.at(k).Instr == instr {
			skip++
		}
	}
	return skip
}
