package core

import (
	"testing"

	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
	"aitia/internal/sched"
)

// figure1 builds the paper's Figure 1 example:
//
//	Thread A: A1: ptr_valid = 1;           A2: local = *ptr
//	Thread B: B1: if (ptr_valid == 0) ret; B2: ptr = NULL
//
// with ptr initially pointing at a valid object and ptr_valid = 0. The
// NULL dereference needs A1 => B1 (so B2 executes) and B2 => A2.
func figure1(t testing.TB) *kir.Program {
	b := kir.NewBuilder()
	b.Var("ptr_valid", 0)
	b.VarAddrOf("ptr", "obj")
	b.Global("obj", 1, 42)

	a := b.Func("thread_a")
	a.Store(kir.G("ptr_valid"), kir.Imm(1)).L("A1")
	a.Load(kir.R1, kir.G("ptr")).L("A2")
	a.Load(kir.R2, kir.Ind(kir.R1, 0)).L("A2d")
	a.Ret()

	fb := b.Func("thread_b")
	fb.Load(kir.R1, kir.G("ptr_valid")).L("B1")
	fb.Beq(kir.R(kir.R1), kir.Imm(0), "out")
	fb.Store(kir.G("ptr"), kir.Imm(0)).L("B2")
	fb.At("out").Ret()

	b.Thread("A", "thread_a")
	b.Thread("B", "thread_b")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build figure1: %v", err)
	}
	return prog
}

func mustMachine(t testing.TB, prog *kir.Program) *kvm.Machine {
	t.Helper()
	m, err := kvm.New(prog)
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	return m
}

func TestReproduceFigure1(t *testing.T) {
	prog := figure1(t)
	m := mustMachine(t, prog)

	rep, err := Reproduce(m, LIFSOptions{})
	if err != nil {
		t.Fatalf("Reproduce: %v", err)
	}
	if rep.Run.Failure == nil || rep.Run.Failure.Kind != sanitizer.KindNullDeref {
		t.Fatalf("want NULL deref, got %v", rep.Run.Failure)
	}
	if rep.Stats.Interleavings != 1 {
		t.Errorf("want 1 interleaving, got %d", rep.Stats.Interleavings)
	}
	seq := rep.Run.FormatSeq(prog, false)
	want := "A1 => B1 => B2 => A2 => A2d"
	if seq != want {
		t.Errorf("failure-causing sequence = %q, want %q", seq, want)
	}

	// Both data races must be in the extracted set, in observed order.
	var sawValid, sawPtr bool
	for _, r := range rep.Races {
		switch {
		case prog.InstrName(r.First.Instr) == "A1" && prog.InstrName(r.Second.Instr) == "B1":
			sawValid = true
		case prog.InstrName(r.First.Instr) == "B2" && prog.InstrName(r.Second.Instr) == "A2":
			sawPtr = true
		}
	}
	if !sawValid || !sawPtr {
		var got []string
		for _, r := range rep.Races {
			got = append(got, r.Format(prog))
		}
		t.Errorf("races missing: sawValid=%v sawPtr=%v; got %v", sawValid, sawPtr, got)
	}
}

// TestReplayDeterminism re-runs the reproduced schedule and checks that the
// same sequence and failure come back — the property Causality Analysis
// relies on when perturbing single races.
func TestReplayDeterminism(t *testing.T) {
	prog := figure1(t)
	m := mustMachine(t, prog)
	rep, err := Reproduce(m, LIFSOptions{})
	if err != nil {
		t.Fatalf("Reproduce: %v", err)
	}
	first := rep.Run.FormatSeq(prog, true)

	m2 := mustMachine(t, prog)
	res, err := sched.NewEnforcer(m2).Run(rep.Schedule, sched.Options{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := res.FormatSeq(prog, true); got != first {
		t.Errorf("replay diverged:\n got %q\nwant %q", got, first)
	}
	if !res.Failed() || !res.Failure.SameSymptom(rep.Run.Failure) {
		t.Errorf("replay failure = %v, want %v", res.Failure, rep.Run.Failure)
	}
}

// spinWaitSrc needs one preemption: B must publish ready and null p,
// and A must then run past its spin and dereference p before B restores
// it. Every turn of A's spin revisits the same machine state, so the
// search terminates only because a unit prunes its own revisits.
const spinWaitSrc = `
global ready = 0
global obj = 42
ptr p -> obj
ptr q -> obj

thread A waiter
thread B publisher

func waiter
spin:
        load r1, [ready]
        beq r1, 0, spin
        load r2, [p]
@Ad     load r3, [r2]
        ret
end

func publisher
        store [ready], 1
        store [p], 0
        load r1, [q]
        store [p], r1
        ret
end
`

// TestSpinWaitLoopGuard: a spin-wait must not explode the search. With
// per-unit pruning it reproduces in a handful of schedules, serially and
// in parallel; without any pruning, every spin turn is a fresh
// preemption point and the search runs tens of thousands of schedules.
func TestSpinWaitLoopGuard(t *testing.T) {
	prog := kasm.MustParse(spinWaitSrc)
	for _, workers := range []int{0, 4} {
		rep, err := Reproduce(mustMachine(t, prog), LIFSOptions{WantKind: sanitizer.KindNullDeref, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Stats.Schedules > 10 {
			t.Errorf("workers=%d schedules = %d, want <= 10", workers, rep.Stats.Schedules)
		}
		if rep.Stats.Interleavings != 1 {
			t.Errorf("workers=%d interleavings = %d, want 1", workers, rep.Stats.Interleavings)
		}
	}
}
