package sched

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
)

// racyProg: two threads, two variables, one race-steered control flow.
func racyProg(t testing.TB) *kir.Program {
	t.Helper()
	b := kir.NewBuilder()
	b.Var("x", 0)
	b.Var("y", 0)
	fa := b.Func("fa")
	fa.Store(kir.G("x"), kir.Imm(1)).L("A1")
	fa.Load(kir.R1, kir.G("y")).L("A2")
	fa.Ret()
	fb := b.Func("fb")
	fb.Load(kir.R1, kir.G("x")).L("B1")
	fb.Beq(kir.R(kir.R1), kir.Imm(0), "out")
	fb.Store(kir.G("y"), kir.Imm(1)).L("B2")
	fb.At("out").Ret()
	b.Thread("A", "fa")
	b.Thread("B", "fb")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func machine(t testing.TB, prog *kir.Program) *kvm.Machine {
	t.Helper()
	m, err := kvm.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSerialSchedule(t *testing.T) {
	prog := racyProg(t)
	m := machine(t, prog)
	res, err := NewEnforcer(m).Run(Serial("B", "A"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
	// B first: B1 reads 0, B returns early, then A runs.
	if got := res.FormatSeq(prog, false); got != "B1 => A1 => A2" {
		t.Errorf("seq = %q", got)
	}
	if res.Threads["A"] != kvm.Done || res.Threads["B"] != kvm.Done {
		t.Errorf("final states: %v", res.Threads)
	}
}

func TestPreExecBreakpoint(t *testing.T) {
	prog := racyProg(t)
	m := machine(t, prog)
	a2, _ := prog.ByLabel("A2")
	// Run A until it is about to execute A2, then switch to B.
	sch := Schedule{
		Initial:  "A",
		Points:   []Point{{Run: "A", At: a2.ID, To: "B"}},
		Fallback: []string{"A", "B"},
	}
	res, err := NewEnforcer(m).Run(sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := "A1 => B1 => B2 => A2"
	if got := res.FormatSeq(prog, false); got != want {
		t.Errorf("seq = %q, want %q", got, want)
	}
	if res.Switches == 0 {
		t.Error("no switches recorded")
	}
}

func TestAfterExecBreakpointAndSkip(t *testing.T) {
	b := kir.NewBuilder()
	b.Var("n", 0)
	f := b.Func("loop")
	f.Mov(kir.R1, kir.Imm(0))
	f.At("top")
	f.Store(kir.G("n"), kir.R(kir.R1)).L("L1")
	f.Add(kir.R1, kir.Imm(1))
	f.Blt(kir.R(kir.R1), kir.Imm(3), "top")
	f.Ret()
	g := b.Func("other")
	g.Load(kir.R2, kir.G("n")).L("O1")
	g.Ret()
	b.Thread("A", "loop")
	b.Thread("B", "other")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := prog.ByLabel("L1")

	// Switch after the SECOND execution of L1 (Skip=1).
	m := machine(t, prog)
	sch := Schedule{
		Initial:  "A",
		Points:   []Point{{Run: "A", At: l1.ID, After: true, Skip: 1, To: "B"}},
		Fallback: []string{"A", "B"},
	}
	res, err := NewEnforcer(m).Run(sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// B's O1 must read n == 1 (after the second store, which wrote 1).
	for _, e := range res.Seq.Steps {
		if prog.InstrAt(e.Instr).Label == "O1" {
			// find B's position: the two L1 executions precede it
			count := 0
			for _, e2 := range res.Seq.Steps[:e.Step] {
				if prog.InstrAt(e2.Instr).Label == "L1" {
					count++
				}
			}
			if count != 2 {
				t.Errorf("O1 ran after %d L1 executions, want 2", count)
			}
		}
	}
}

func TestMissedBreakpointIsSkipped(t *testing.T) {
	prog := racyProg(t)
	m := machine(t, prog)
	b2, _ := prog.ByLabel("B2")
	// Start B: B1 reads x == 0, so B2 never executes — the breakpoint on
	// B2 is missed and the schedule continues.
	sch := Schedule{
		Initial:  "B",
		Points:   []Point{{Run: "B", At: b2.ID, To: "A"}},
		Fallback: []string{"B", "A"},
	}
	res, err := NewEnforcer(m).Run(sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed == 0 {
		t.Error("missed breakpoint not recorded")
	}
	if res.Failed() {
		t.Errorf("failure: %v", res.Failure)
	}
	if got := res.FormatSeq(prog, false); got != "B1 => A1 => A2" {
		t.Errorf("seq = %q", got)
	}
}

func TestLockDiversionKeepsLiveness(t *testing.T) {
	b := kir.NewBuilder()
	b.Var("mu", 0)
	b.Var("g", 0)
	f := b.Func("crit")
	f.Lock(kir.G("mu")).L("C0")
	f.Load(kir.R1, kir.G("g")).L("C1")
	f.Add(kir.R1, kir.Imm(1))
	f.Store(kir.G("g"), kir.R(kir.R1)).L("C2")
	f.Unlock(kir.G("mu")).L("C3")
	f.Ret()
	b.Thread("A", "crit")
	b.Thread("B", "crit")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := machine(t, prog)
	c1, _ := prog.ByLabel("C1")
	// Suspend A inside its critical section and switch to B; B blocks on
	// the lock, and the enforcer must divert back to A (the owner) and
	// then return to B.
	sch := Schedule{
		Initial:  "A",
		Points:   []Point{{Run: "A", At: c1.ID, To: "B"}},
		Fallback: []string{"A", "B"},
	}
	res, err := NewEnforcer(m).Run(sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("failure: %v", res.Failure)
	}
	addr, _ := m.Space().GlobalAddr("g")
	if v, _ := m.Space().Load(addr); v != 2 {
		t.Errorf("g = %d, want 2 (both critical sections ran)", v)
	}
}

func TestDeadlockDetection(t *testing.T) {
	b := kir.NewBuilder()
	b.Var("mu1", 0)
	b.Var("mu2", 0)
	fa := b.Func("fa")
	fa.Lock(kir.G("mu1"))
	fa.Lock(kir.G("mu2"))
	fa.Unlock(kir.G("mu2"))
	fa.Unlock(kir.G("mu1"))
	fa.Ret()
	fb := b.Func("fb")
	fb.Lock(kir.G("mu2"))
	fb.Lock(kir.G("mu1"))
	fb.Unlock(kir.G("mu1"))
	fb.Unlock(kir.G("mu2"))
	fb.Ret()
	b.Thread("A", "fa")
	b.Thread("B", "fb")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := machine(t, prog)
	// A takes mu1, switch to B (takes mu2, blocks on mu1), diversion back
	// to A which blocks on mu2: a real ABBA deadlock.
	fa2 := prog.Funcs["fa"].Instrs[1] // A's second lock
	sch := Schedule{
		Initial:  "A",
		Points:   []Point{{Run: "A", At: fa2.ID, To: "B"}},
		Fallback: []string{"A", "B"},
	}
	res, err := NewEnforcer(m).Run(sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() || res.Failure.Kind != sanitizer.KindDeadlock {
		t.Fatalf("failure = %v, want deadlock", res.Failure)
	}
	// Both threads are blocked; the failure blames the lowest-ID one, A,
	// at the lock it waits on.
	mu2, _ := m.Space().GlobalAddr("mu2")
	if f := res.Failure; f.Thread != "A" || f.Instr != fa2.ID || f.Addr != mu2 {
		t.Errorf("deadlock on thread %q at instr %d, lock %#x; want A at %d, lock %#x",
			f.Thread, f.Instr, f.Addr, fa2.ID, mu2)
	}
}

// TestLockCycleWithBystander: an ABBA deadlock between A and B while C
// still has work. Once A and B each wait on the other's lock, neither can
// release, so diverting between them makes no progress; the run must go
// on with C and then fail with the deadlock. The context bounds a run
// that diverts forever instead.
func TestLockCycleWithBystander(t *testing.T) {
	b := kir.NewBuilder()
	b.Var("mu1", 0)
	b.Var("mu2", 0)
	b.Var("g", 0)
	fa := b.Func("fa")
	fa.Lock(kir.G("mu1"))
	fa.Lock(kir.G("mu2")).L("A2")
	fa.Unlock(kir.G("mu2"))
	fa.Unlock(kir.G("mu1"))
	fa.Ret()
	fb := b.Func("fb")
	fb.Lock(kir.G("mu2"))
	fb.Lock(kir.G("mu1"))
	fb.Unlock(kir.G("mu1"))
	fb.Unlock(kir.G("mu2"))
	fb.Ret()
	fc := b.Func("fc")
	for i := 0; i < 5; i++ {
		fc.Store(kir.G("g"), kir.Imm(int64(i)))
	}
	fc.Ret()
	b.Thread("A", "fa")
	b.Thread("B", "fb")
	b.Thread("C", "fc")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := prog.ByLabel("A2")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := NewEnforcer(machine(t, prog)).Run(Schedule{
		Initial:  "A",
		Points:   []Point{{Run: "A", At: a2.ID, To: "B"}},
		Fallback: []string{"A", "B", "C"},
	}, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Failure; f == nil || f.Kind != sanitizer.KindDeadlock || f.Thread != "A" || f.Instr != a2.ID {
		t.Fatalf("failure = %v, want a deadlock on A at A2", f)
	}
	if res.Threads["C"] != kvm.Done {
		t.Errorf("C is %s at the deadlock, want done", res.Threads["C"])
	}
}

func TestWatchdog(t *testing.T) {
	b := kir.NewBuilder()
	b.Var("g", 0)
	f := b.Func("spin")
	f.At("top")
	f.Jmp("top")
	b.Thread("A", "spin")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := machine(t, prog)
	res, err := NewEnforcer(m).Run(Serial("A"), Options{StepBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() || res.Failure.Kind != sanitizer.KindWatchdog {
		t.Fatalf("failure = %v, want watchdog", res.Failure)
	}
	// The step that crosses the budget fails: 100 steps are allowed, the
	// 101st is the soft lockup.
	if n := res.Seq.Len(); n != 101 {
		t.Errorf("watchdog fired after %d steps, want 101", n)
	}
	if f := res.Failure; f.Thread != "A" || f.Instr != res.Seq.Steps[res.Seq.Len()-1].Instr {
		t.Errorf("watchdog on thread %q at instr %d, want A at the last executed step", f.Thread, f.Instr)
	}

	// A run of exactly the budget completes.
	b = kir.NewBuilder()
	f = b.Func("straight")
	for i := 0; i < 9; i++ {
		f.Nop()
	}
	f.Ret()
	b.Thread("A", "straight")
	prog, err = b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err = NewEnforcer(machine(t, prog)).Run(Serial("A"), Options{StepBudget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() || res.Seq.Len() != 10 {
		t.Errorf("a 10-step run under a 10-step budget: %d steps, failure %v", res.Seq.Len(), res.Failure)
	}
}

func TestExtractRacesOrderAndDedup(t *testing.T) {
	prog := racyProg(t)
	m := machine(t, prog)
	a2, _ := prog.ByLabel("A2")
	sch := Schedule{
		Initial:  "A",
		Points:   []Point{{Run: "A", At: a2.ID, To: "B"}},
		Fallback: []string{"A", "B"},
	}
	res, err := NewEnforcer(m).Run(sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	races := ExtractRaces(res)
	if len(races) != 2 {
		t.Fatalf("races = %d, want 2", len(races))
	}
	// Sorted by position of the later access.
	if prog.InstrName(races[0].First.Instr) != "A1" || prog.InstrName(races[0].Second.Instr) != "B1" {
		t.Errorf("race[0] = %s", races[0].Format(prog))
	}
	if prog.InstrName(races[1].First.Instr) != "B2" || prog.InstrName(races[1].Second.Instr) != "A2" {
		t.Errorf("race[1] = %s", races[1].Format(prog))
	}
	if races[0].LastStep() > races[1].LastStep() {
		t.Error("races not ordered by LastStep")
	}
}

func TestRaceOrderAndOccurrence(t *testing.T) {
	prog := racyProg(t)
	m := machine(t, prog)
	a2, _ := prog.ByLabel("A2")
	sch := Schedule{Initial: "A", Points: []Point{{Run: "A", At: a2.ID, To: "B"}}, Fallback: []string{"A", "B"}}
	res, _ := NewEnforcer(m).Run(sch, Options{})
	races := ExtractRaces(res)
	for _, r := range races {
		if !RaceOccurred(res, r) {
			t.Errorf("race %s did not occur in its own run", r.Format(prog))
		}
		if order, _, _ := RaceTrace(res, r); order != 1 {
			t.Errorf("race %s order = %d, want +1", r.Format(prog), order)
		}
	}
	// In the all-serial B-first run, the x race does not occur (B1 reads
	// before A1 writes — wait, that IS a conflicting pair; but B2 never
	// runs, so the y race vanishes).
	m2 := machine(t, prog)
	res2, _ := NewEnforcer(m2).Run(Serial("B", "A"), Options{})
	for _, r := range races {
		if prog.InstrName(r.Second.Instr) == "A2" && RaceOccurred(res2, r) {
			t.Error("y race should not occur when B returns early")
		}
	}
}

// TestFromSeqReplayProperty: replaying FromSeq(seq) under the enforcer
// reproduces exactly the same sequence, for arbitrary random schedules —
// the determinism Causality Analysis depends on.
func TestFromSeqReplayProperty(t *testing.T) {
	prog := racyProg(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := machine(t, prog)
		// Produce a random interleaving directly.
		var seq Trace
		for !m.AllDone() && m.Failure() == nil {
			run := m.Runnable()
			if len(run) == 0 {
				break
			}
			tid := run[rng.Intn(len(run))]
			ev, err := m.Step(tid)
			if err != nil {
				return false
			}
			if !ev.Executed {
				continue
			}
			seq.Append(seq.Len(), tid, ev.Instr.ID, ev.Spawned, ev.Accesses, m.Thread(tid).Locks)
		}
		seq.Names = ThreadNames(m)
		sch := FromSeq(&seq, []string{"A", "B"})
		m2 := machine(t, prog)
		res, err := NewEnforcer(m2).Run(sch, Options{})
		if err != nil {
			return false
		}
		if res.Seq.Len() != seq.Len() {
			return false
		}
		for i := range seq.Steps {
			if res.Seq.Name(i) != seq.Name(i) || res.Seq.Steps[i].Instr != seq.Steps[i].Instr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFlipSeqProperties: for every race in a run, FlipSeq preserves
// per-thread program order, keeps the same multiset of entries, and
// reverses the race pair.
func TestFlipSeqProperties(t *testing.T) {
	prog := racyProg(t)
	m := machine(t, prog)
	a2, _ := prog.ByLabel("A2")
	sch := Schedule{Initial: "A", Points: []Point{{Run: "A", At: a2.ID, To: "B"}}, Fallback: []string{"A", "B"}}
	res, _ := NewEnforcer(m).Run(sch, Options{})
	for _, r := range ExtractRaces(res) {
		flipped := FlipSeq(prog, &res.Seq, r)
		if flipped.Len() != res.Seq.Len() {
			t.Fatalf("flip changed length: %d vs %d", flipped.Len(), res.Seq.Len())
		}
		// Per-thread subsequences unchanged.
		perThread := func(seq *Trace) map[string][]kir.InstrID {
			out := make(map[string][]kir.InstrID)
			for k, e := range seq.Steps {
				out[seq.Name(k)] = append(out[seq.Name(k)], e.Instr)
			}
			return out
		}
		want, got := perThread(&res.Seq), perThread(&flipped)
		for name := range want {
			if len(want[name]) != len(got[name]) {
				t.Fatalf("thread %s length changed", name)
			}
			for i := range want[name] {
				if want[name][i] != got[name][i] {
					t.Fatalf("thread %s program order changed", name)
				}
			}
		}
		// The pair is reversed: Second's position precedes First's.
		posFirst, posSecond := -1, -1
		for i := range flipped.Steps {
			if flipped.Site(i) == r.First && posFirst < 0 {
				posFirst = i
			}
			if flipped.Site(i) == r.Second && posSecond < 0 {
				posSecond = i
			}
		}
		if posFirst < 0 || posSecond < 0 || posSecond > posFirst {
			t.Errorf("flip of %s: First at %d, Second at %d", r.Format(prog), posFirst, posSecond)
		}
	}
}

func TestRepairSpawnOrder(t *testing.T) {
	// A spawns K at step 1; a reordering put K's step before the spawn.
	seq := &Trace{}
	seq.AddStep("kworker:S", 10, nil) // violates: spawned at step 2
	seq.AddStep("A", 1, nil)
	seq.AddStep("A", 2, nil)
	seq.AddStep("A", 3, nil)
	seq.Steps[2].Spawned = seq.ID("kworker:S")
	fixed := repairSpawnOrder(seq, []int32{0, 1, 2, 3}, nil)
	order := []string{}
	for _, p := range fixed {
		order = append(order, seq.Name(int(p)))
	}
	want := []string{"A", "A", "kworker:S", "A"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}

	// A sequence that already respects spawn order comes back as is,
	// without a copy.
	if again := repairSpawnOrder(seq, fixed, nil); &again[0] != &fixed[0] || len(again) != len(fixed) {
		t.Error("repair of a spawn-ordered sequence copied it")
	}
}

func TestAccessMapConflicts(t *testing.T) {
	am := NewAccessMap()
	a := Site{Thread: "A", Instr: 1}
	b := Site{Thread: "B", Instr: 2}
	c := Site{Thread: "B", Instr: 3}
	am.Record(a, 100, false)
	am.Record(b, 100, true)
	am.Record(c, 200, false)

	// a and b conflict at 100 only: a reads it, b writes it, and neither
	// touches the other's other address.
	if !am.Has(a, 100, false) || !am.Has(b, 100, true) || am.Has(a, 200, false) || am.Has(a, 200, true) {
		t.Errorf("a/b conflict addresses: %v", am.Export())
	}
	// a and c share no address, so a read-read pair never arises.
	if am.Has(c, 100, false) || am.Has(c, 100, true) {
		t.Errorf("read-read conflict: %v", am.Export())
	}
	if !am.ConflictsAt("A", 100, false) {
		t.Error("A's read of 100 conflicts with B's write")
	}
	if !am.ConflictsAt("B", 100, true) {
		t.Error("B's write of 100 conflicts with A's read")
	}
	if am.ConflictsAt("B", 200, false) {
		t.Error("B's own accesses never self-conflict")
	}
	if am.ConflictsAt("A", 200, false) {
		t.Error("read-read is not a conflict")
	}
	if !am.ConflictsAt("A", 200, true) {
		t.Error("a write against a read is a conflict")
	}
	want := []AccessExport{
		{Thread: "A", Instr: 1, Addr: 100, Read: true},
		{Thread: "B", Instr: 2, Addr: 100, Write: true},
		{Thread: "B", Instr: 3, Addr: 200, Read: true},
	}
	if got := am.Export(); !reflect.DeepEqual(got, want) || am.NumSites() != 3 {
		t.Errorf("sites = %v (%d), want %v", got, am.NumSites(), want)
	}
}
