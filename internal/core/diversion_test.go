package core

import (
	"context"
	"testing"
	"time"

	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/sanitizer"
	"aitia/internal/sched"
)

// nestedDiversion builds three threads whose lock waits nest two deep: A
// waits on m1, held by B, which waits on m2, held by C. B and C each
// raise a flag inside their critical section and clear it before
// unlocking; B clears its flag once it holds m2. A hits BUG_ON when it
// saw both flags raised, which needs A to run while C holds m2 and B
// holds m1 but not yet m2 — so A's lock diverts to B, whose lock diverts
// to C. Every section adds one to
// g, and B and C each store once after unlocking, so the executed order
// shows where each diversion returned.
func nestedDiversion(t testing.TB) *kir.Program {
	b := kir.NewBuilder()
	for _, v := range []string{"m1", "m2", "bflag", "cflag", "g", "bdone", "cdone"} {
		b.Var(v, 0)
	}
	inc := func(f *kir.FuncBuilder, load, store string) {
		f.Load(kir.R3, kir.G("g")).L(load)
		f.Add(kir.R3, kir.Imm(1))
		f.Store(kir.G("g"), kir.R(kir.R3)).L(store)
	}

	fa := b.Func("fa")
	fa.Load(kir.R1, kir.G("bflag")).L("A1")
	fa.Load(kir.R2, kir.G("cflag")).L("A2")
	fa.And(kir.R1, kir.R(kir.R2))
	fa.Lock(kir.G("m1")).L("A3")
	fa.BugOn(kir.R(kir.R1)).L("A4")
	inc(fa, "A5", "A6")
	fa.Unlock(kir.G("m1")).L("A7")
	fa.Ret()

	fb := b.Func("fb")
	fb.Lock(kir.G("m1")).L("B1")
	fb.Store(kir.G("bflag"), kir.Imm(1)).L("B2")
	fb.Lock(kir.G("m2")).L("B3")
	fb.Store(kir.G("bflag"), kir.Imm(0)).L("B4")
	inc(fb, "B5", "B6")
	fb.Unlock(kir.G("m2")).L("B7")
	fb.Unlock(kir.G("m1")).L("B8")
	fb.Store(kir.G("bdone"), kir.Imm(1)).L("B9")
	fb.Ret()

	fc := b.Func("fc")
	fc.Lock(kir.G("m2")).L("C1")
	fc.Store(kir.G("cflag"), kir.Imm(1)).L("C2")
	inc(fc, "C3", "C4")
	fc.Store(kir.G("cflag"), kir.Imm(0)).L("C5")
	fc.Unlock(kir.G("m2")).L("C6")
	fc.Store(kir.G("cdone"), kir.Imm(1)).L("C7")
	fc.Ret()

	b.Thread("A", "fa")
	b.Thread("B", "fb")
	b.Thread("C", "fc")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build nestedDiversion: %v", err)
	}
	return prog
}

// TestNestedLockDiversion drives a two-deep lock diversion through both
// step loops. The enforcer: A reads the flags early and is switched out
// before its lock, B before its second lock, C inside its section; A's
// lock then diverts to B and B's to C. Each return must come as soon as
// the lock is released — B right after C6, A right after B8 — and all
// three sections run. LIFS: the failure needs the same nesting, and the
// enforcer must replay the explorer's winning path.
func TestNestedLockDiversion(t *testing.T) {
	prog := nestedDiversion(t)
	at := func(label string) kir.InstrID { return prog.MustByLabel(label).ID }

	m := mustMachine(t, prog)
	res, err := sched.NewEnforcer(m).Run(sched.Schedule{
		Initial: "A",
		Points: []sched.Point{
			{Run: "A", At: at("A3"), To: "B"},
			{Run: "B", At: at("B3"), To: "C"},
			{Run: "C", At: at("C3"), To: "A"},
		},
		Fallback: []string{"A", "B", "C"},
	}, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("enforced run failed: %v", res.Failure)
	}
	const want = "A1 => A2 => B1 => B2 => C1 => C2 => C3 => C4 => C5 => C6 => " +
		"B3 => B4 => B5 => B6 => B7 => B8 => A3 => A4 => A5 => A6 => A7 => B9 => C7"
	if got := res.FormatSeq(prog, false); got != want {
		t.Errorf("enforced sequence\n got %s\nwant %s", got, want)
	}
	addr, _ := m.Space().GlobalAddr("g")
	if v, _ := m.Space().Load(addr); v != 3 {
		t.Errorf("g = %d, want 3 (all three critical sections ran)", v)
	}

	rep, err := Reproduce(mustMachine(t, prog), LIFSOptions{})
	if err != nil {
		t.Fatalf("Reproduce: %v", err)
	}
	if f := rep.Run.Failure; f == nil || f.Kind != sanitizer.KindBugOn || f.Instr != at("A4") {
		t.Fatalf("failure = %v, want BUG_ON at A4", f)
	}
	if rep.Stats.Interleavings != 2 {
		t.Errorf("interleavings = %d, want 2", rep.Stats.Interleavings)
	}
	// C takes m2 and B blocks on it (depth 1); C is preempted for A, whose
	// lock diverts to B and B's to C (depth 3, B twice). C6 returns to B,
	// B8 to A, and A's lock to the first B.
	const wantLIFS = "C1 => B1 => B2 => C2 => A1 => A2 => C3 => C4 => C5 => C6 => " +
		"B3 => B4 => B5 => B6 => B7 => B8 => A3 => B9 => A4"
	if got := rep.Run.FormatSeq(prog, false); got != wantLIFS {
		t.Errorf("LIFS sequence\n got %s\nwant %s", got, wantLIFS)
	}
}

// TestLockCycleWithBystander: an ABBA deadlock while a third thread still
// has work. Once A and B wait on each other, diverting between them makes
// no progress, so the search must run C to its end and find the
// deadlock — and the enforcer must replay it. The context bounds a
// search that diverts forever instead.
func TestLockCycleWithBystander(t *testing.T) {
	prog, err := kasm.Parse(`global mu1 = 0
global mu2 = 0
global g = 0
thread A fa
thread B fb
thread C fc
func fa
lock [mu1]
store [g], 1
@A2 lock [mu2]
unlock [mu2]
unlock [mu1]
end
func fb
lock [mu2]
store [g], 2
@B2 lock [mu1]
unlock [mu1]
unlock [mu2]
end
func fc
store [g], 3
store [g], 4
end
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := ReproduceContext(ctx, mustMachine(t, prog), LIFSOptions{WantKind: sanitizer.KindDeadlock})
	if err != nil {
		t.Fatalf("Reproduce: %v", err)
	}
	if f := rep.Run.Failure; f.Thread != "A" || f.Instr != prog.MustByLabel("A2").ID {
		t.Errorf("deadlock on %q at %s, want A at A2", f.Thread, prog.InstrName(f.Instr))
	}
	if rep.Stats.Interleavings != 1 {
		t.Errorf("interleavings = %d, want 1", rep.Stats.Interleavings)
	}
}
