package sched

import (
	"slices"

	"aitia/internal/kir"
)

// seqOrder is an order of entries of seq named by their positions: the
// flipped orders flip plans are built from, which never copy a record.
// A nil pos is the identity order, seq itself.
type seqOrder struct {
	seq []Exec
	pos []int32
}

func (o seqOrder) len() int {
	if o.pos == nil {
		return len(o.seq)
	}
	return len(o.pos)
}

func (o seqOrder) at(k int) *Exec {
	if o.pos == nil {
		return &o.seq[k]
	}
	return &o.seq[o.pos[k]]
}

// FromSeq builds the schedule that deterministically replays the given
// executed sequence (a desired total order of executed instructions): one
// post-execution switch point per thread-segment boundary. Occurrence
// counting (Point.Skip) handles instructions that repeat within a
// segment. The fallback order takes over after the last switch point (and
// whenever control flow diverges from the recorded sequence). It is
// fromOrder over the identity order.
func FromSeq(seq []Exec, fallback []string) Schedule {
	return fromOrder(seqOrder{seq: seq}, fallback)
}

// fromOrder builds the schedule that replays the entries of o in o's
// order (FromSeq).
func fromOrder(o seqOrder, fallback []string) Schedule {
	sch := Schedule{Fallback: fallback}
	n := o.len()
	if n == 0 {
		return sch
	}
	sch.Initial = o.at(0).Name
	segStart := 0
	for i := 1; i <= n; i++ {
		if i < n && o.at(i).Name == o.at(segStart).Name {
			continue
		}
		// Segment [segStart, i) of one thread ends at i-1.
		if i < n {
			last := o.at(i - 1)
			skip := 0
			for j := segStart; j < i-1; j++ {
				if o.at(j).Instr.ID == last.Instr.ID {
					skip++
				}
			}
			sch.Points = append(sch.Points, Point{
				Run:   last.Name,
				At:    last.Instr.ID,
				After: true,
				Skip:  skip,
				To:    o.at(i).Name,
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

// FlipSeq returns the desired total order for testing race r with its
// interleaving order flipped, per Causality Analysis (§3.4): the entries of
// First's thread from the First access onward are delayed until just after
// the Second access, preserving per-thread program order and every other
// cross-thread ordering. When either access runs under locks, the
// displaced region is widened to whole critical sections, flipping them as
// units.
//
// FlipSeq panics if the race is phantom (its Second access has no position
// in seq); phantom races are planned by PlanPhantomFlip.
func FlipSeq(seq []Exec, r Race) []Exec { return FlipSeqOpt(seq, r, FlipOptions{}) }

// FlipSeqOpt is FlipSeq with ablation switches: seq up to the displaced
// region, followed by flipTail's tail. It materializes the flipped order
// as records, which flip plans never need; it is the form the reference
// implementations are checked against.
func FlipSeqOpt(seq []Exec, r Race, fo FlipOptions) []Exec {
	o := flipOrder(seq, r, fo)
	out := make([]Exec, o.len())
	for k := range out {
		out[k] = *o.at(k)
	}
	return out
}

// flipOrder returns race r's whole flipped order as positions of seq:
// the identity up to the displaced region, then flipTail's tail.
func flipOrder(seq []Exec, r Race, fo FlipOptions) seqOrder {
	i, tail := flipTail(seq, r, fo)
	pos := make([]int32, i, i+len(tail))
	for k := range pos {
		pos[k] = int32(k)
	}
	return seqOrder{seq: seq, pos: append(pos, tail...)}
}

// flipTail builds only the part of race r's flipped order that can
// differ from seq: it returns the displaced region's start i and the
// flipped order from position i on, as positions of seq, so
// FlipSeqOpt(seq, r, fo) is seq[:i] followed by the entries the tail
// names. seq must be an executed order — every entry of a spawned
// thread follows its spawn — so the spawn repair never moves an entry of
// seq[:i]; it is told which threads seq[:i] already spawned.
func flipTail(seq []Exec, r Race, fo FlipOptions) (int, []int32) {
	if r.Phantom {
		panic("sched: FlipSeq on a phantom race")
	}
	i, j := r.FirstStep, r.SecondStep
	if !fo.NoCriticalSections {
		i, j = widenCriticalSections(seq, r)
	}
	tX := r.First.Thread
	tail := make([]int32, 0, len(seq)-i)
	for k := i; k <= j; k++ {
		if seq[k].Name != tX {
			tail = append(tail, int32(k))
		}
	}
	for k := i; k <= j; k++ {
		if seq[k].Name == tX {
			tail = append(tail, int32(k))
		}
	}
	for k := j + 1; k < len(seq); k++ {
		tail = append(tail, int32(k))
	}
	return i, repairSpawnOrder(seq, tail, spawnedIn(seq[:i]))
}

// spawnedIn returns the names of the threads spawned in seq, each once.
func spawnedIn(seq []Exec) []string {
	var names []string
	for k := range seq {
		if name := seq[k].Spawned; name != "" && !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	return names
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
func repairSpawnOrder(seq []Exec, order []int32, spawned []string) []int32 {
	for pass := 0; pass < 8 && spawnOrderViolated(seq, order, spawned); pass++ {
		spawnAt := make(map[string]int) // thread name -> spawn step position
		for _, name := range spawned {
			spawnAt[name] = -1
		}
		for k, p := range order {
			if name := seq[p].Spawned; name != "" {
				if _, dup := spawnAt[name]; !dup {
					spawnAt[name] = k
				}
			}
		}
		out := make([]int32, 0, len(order))
		var held []int32 // entries waiting for their spawner
		heldOf := func(name string) bool {
			for _, h := range held {
				if seq[h].Name == name {
					return true
				}
			}
			return false
		}
		for k, p := range order {
			e := &seq[p]
			sp, spawned := spawnAt[e.Name]
			if (spawned && sp > k) || heldOf(e.Name) {
				// Runs before its spawner (or behind an earlier held entry
				// of the same thread): hold it back.
				held = append(held, p)
				continue
			}
			out = append(out, p)
			if e.Spawned != "" {
				// Release held entries of the thread just spawned.
				var rest []int32
				for _, h := range held {
					if seq[h].Name == e.Spawned {
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
func spawnOrderViolated(seq []Exec, order []int32, spawned []string) bool {
	for k, p := range order {
		name := seq[p].Spawned
		if name == "" || slices.Contains(spawned, name) {
			continue
		}
		first := true
		for _, q := range order[:k] {
			if seq[q].Spawned == name {
				first = false // an earlier spawn of the same name decides
				break
			}
		}
		if !first {
			continue
		}
		for _, q := range order[:k] {
			if seq[q].Name == name {
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
func widenCriticalSections(seq []Exec, r Race) (int, int) {
	i, j := r.FirstStep, r.SecondStep
	if len(seq[i].Lockset) > 0 {
		outer := seq[i].Lockset[0]
		for k := r.FirstStep; k >= 0; k-- {
			e := seq[k]
			if e.Name != r.First.Thread {
				continue
			}
			i = k
			if e.Instr.Op == kir.OpLock && len(e.Lockset) > 0 && e.Lockset[len(e.Lockset)-1] == outer {
				break
			}
		}
	}
	if len(seq[r.SecondStep].Lockset) > 0 {
		for k := r.SecondStep; k < len(seq); k++ {
			e := seq[k]
			if e.Name != r.Second.Thread {
				continue
			}
			j = k
			if len(e.Lockset) == 0 {
				break
			}
		}
	}
	return i, j
}

// PlanFlip builds the schedule that re-executes the failing run with race
// r flipped and everything else preserved.
func PlanFlip(seq []Exec, r Race, fallback []string) Schedule {
	return PlanFlipOpt(seq, r, fallback, FlipOptions{})
}

// PlanFlipOpt is PlanFlip with ablation switches.
func PlanFlipOpt(seq []Exec, r Race, fallback []string, fo FlipOptions) Schedule {
	if r.Phantom {
		return PlanPhantomFlip(seq, r, fallback)
	}
	return fromOrder(flipOrder(seq, r, fo), fallback)
}

// PlanPhantomFlip builds the flip schedule for a race whose Second access
// never executed in the failing run (the failure truncated its thread
// first). The plan replays the original sequence up to just before the
// First access, then suspends First's thread, runs Second's thread until it
// has executed the Second instruction (a post-execution breakpoint — it may
// never fire if the access is unreachable, in which case the thread simply
// finishes), and then resumes the original order.
func PlanPhantomFlip(seq []Exec, r Race, fallback []string) Schedule {
	i := r.FirstStep

	prefix := FromSeq(seq[:i], fallback)
	suffix := FromSeq(seq[i:], fallback)

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
			Skip: skipWithinFinalSegment(seq[:i], r.First.Thread, r.First.Instr),
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

// PlanFlipCut flips race r once and returns both halves a prefix cache
// needs: the cut — the length of the verbatim prefix the flip plan shares
// with the recorded failing sequence — and the suffix of the flip plan
// that starts there. Enforcing the suffix with Options.Prefix = seq[:cut]
// on a machine brought to the state just before step cut returns exactly
// the result of enforcing the full PlanFlipOpt plan from the initial
// state. It equals FlipCut followed by PlanFlipFrom at that cut, but
// builds only the flipped tail (flipTail), as positions of seq: it copies
// no record.
//
// For a displacement flip the cut is the first position whose entry moved
// (the flipped tail names entries by their positions in seq, so the cut
// is the first position mismatch). For a phantom race the
// plan replays the recorded order verbatim up to the First access, so the
// cut is FirstStep. A sequence without position stamps shares no provable
// prefix: its cut is 0.
func PlanFlipCut(seq []Exec, r Race, fallback []string, fo FlipOptions) (int, Schedule) {
	stamped := positionStamped(seq)
	if r.Phantom {
		cut := 0
		if stamped {
			cut = r.FirstStep
		}
		return cut, planPhantomFlipFrom(seq, r, fallback, cut)
	}
	if !stamped {
		return 0, fromOrder(flipOrder(seq, r, fo), fallback)
	}
	i, tail := flipTail(seq, r, fo)
	moved := firstMoved(tail, i)
	return i + moved, fromOrder(seqOrder{seq: seq, pos: tail[moved:]}, fallback)
}

// CutPoints marks the positions of seq a flip of one of its races can
// cut at (PlanFlipCut): mark[k] reports whether a prefix cache should pin
// the state just before seq[k]. A displaced region starts at its race's
// First access, a step with an access that conflicts per am, or at the
// lock acquire widenCriticalSections widens it back to; a phantom race's
// cut is its First access too. When the region holds a thread its own
// thread spawns, the spawn repair keeps the spawn in place and releases
// the spawned thread's entries right after it, so the cut moves to the
// step after a spawn. The rule marks exactly these: the steps with a
// conflicting access, the OpLock steps and the steps after a spawn. am
// must hold seq's own accesses. mark has len(seq)+1 entries; the last,
// the end of the run, is never a cut.
func CutPoints(seq []Exec, am *AccessMap) []bool {
	mark := make([]bool, len(seq)+1)
	for k := range seq {
		e := &seq[k]
		if e.Spawned != "" && k+1 < len(seq) {
			mark[k+1] = true
		}
		if e.Instr.Op == kir.OpLock {
			mark[k] = true
			continue
		}
		for _, a := range e.Accesses {
			if am.ConflictsAt(e.Name, a.Addr, a.Write) {
				mark[k] = true
				break
			}
		}
	}
	return mark
}

// FlipCut returns the cut PlanFlipCut returns, flipping the whole
// sequence on its own; it is the reference PlanFlipCut is checked
// against.
func FlipCut(seq []Exec, r Race, fo FlipOptions) int {
	if !positionStamped(seq) {
		return 0
	}
	if r.Phantom {
		return r.FirstStep
	}
	i, tail := flipTail(seq, r, fo)
	return i + firstMoved(tail, i)
}

// PlanFlipFrom builds the suffix of the flip plan for race r that starts
// at position n of the enforced order, where n must be at most
// FlipCut(seq, r, fo). The suffix's first segment re-derives exactly the
// Skip count the full plan's pending head would have left unconsumed at
// n, and Initial names the thread the full run would be executing there.
func PlanFlipFrom(seq []Exec, r Race, fallback []string, fo FlipOptions, n int) Schedule {
	if r.Phantom {
		return planPhantomFlipFrom(seq, r, fallback, n)
	}
	o := flipOrder(seq, r, fo)
	o.pos = o.pos[n:]
	return fromOrder(o, fallback)
}

// positionStamped reports whether every entry's Step is its index — the
// stamps the cut detection relies on.
func positionStamped(seq []Exec) bool {
	for k := range seq {
		if seq[k].Step != k {
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
func planPhantomFlipFrom(seq []Exec, r Race, fallback []string, n int) Schedule {
	if n == 0 {
		return PlanPhantomFlip(seq, r, fallback)
	}
	i := r.FirstStep

	sch := Schedule{Fallback: fallback}
	if n < i {
		prefix := FromSeq(seq[n:i], fallback)
		sch.Initial = prefix.Initial
		sch.Points = append(sch.Points, prefix.Points...)
		sch.Points = append(sch.Points, Point{
			Run:  r.First.Thread,
			At:   r.First.Instr,
			Skip: skipWithinFinalSegment(seq[n:i], r.First.Thread, r.First.Instr),
			To:   r.Second.Thread,
		})
	} else {
		sch.Initial = seq[n-1].Name
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
	sch.Points = append(sch.Points, FromSeq(seq[i:], fallback).Points...)
	return sch
}

// skipWithinFinalSegment computes how many matching occurrences the
// pre-exec flip point will see before its intended firing position: the
// occurrences of (thread, instr) inside the thread's final segment of the
// prefix (earlier occurrences execute while earlier points are pending and
// therefore never match this point).
func skipWithinFinalSegment(seq []Exec, thread string, instr kir.InstrID) int {
	// Find the final contiguous segment of the thread at the end of the
	// prefix; if the prefix ends with another thread's segment, the flip
	// point becomes head only when control returns to the thread, which is
	// exactly at the boundary — no occurrences are consumed before it.
	n := len(seq)
	if n == 0 {
		return 0
	}
	skip := 0
	if seq[n-1].Name == thread {
		for k := n - 1; k >= 0 && seq[k].Name == thread; k-- {
			if seq[k].Instr.ID == instr {
				skip++
			}
		}
	}
	return skip
}
