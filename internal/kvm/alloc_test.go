package kvm

import (
	"testing"

	"aitia/internal/kir"
)

// loopProg builds a program whose thread L loops forever over a load, an
// add, a store and a branch, and whose thread F allocates and frees a
// four-word object.
func loopProg(t *testing.T) *kir.Program {
	t.Helper()
	b := kir.NewBuilder()
	b.Var("g", 0)
	l := b.Func("loop")
	l.At("top")
	l.Load(kir.R1, kir.G("g"))
	l.Add(kir.R1, kir.Imm(1))
	l.Store(kir.G("g"), kir.R(kir.R1))
	l.Bne(kir.R(kir.R1), kir.Imm(0), "top")
	l.Ret()
	f := b.Func("freer")
	f.Alloc(kir.R1, 4)
	f.Free(kir.R(kir.R1))
	f.Ret()
	b.Thread("L", "loop")
	b.Thread("F", "freer")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// TestStepAllocatesNothing: with journaling off, stepping loads, stores,
// arithmetic and branches allocates nothing — the event's accesses live
// in a buffer the machine reuses.
func TestStepAllocatesNothing(t *testing.T) {
	m, err := New(loopProg(t))
	if err != nil {
		t.Fatal(err)
	}
	l := m.ThreadByName("L").ID
	var accesses int
	// One run is one loop iteration: AllocsPerRun's average is an integer
	// division, so a run must hold every kind of step.
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 4; i++ {
			ev, err := m.Step(l)
			if err != nil || !ev.Executed {
				t.Fatalf("step: executed=%v err=%v", ev.Executed, err)
			}
			accesses += len(ev.Accesses)
		}
	})
	if allocs != 0 {
		t.Errorf("Step: %.0f allocations per loop iteration, want 0", allocs)
	}
	if accesses == 0 {
		t.Error("no step reported an access")
	}
}

// TestDeadlockedAndPeekAllocateNothing: Deadlocked (through
// FirstRunnable) and PeekAccesses answer without allocating, whether the
// answer is yes or no.
func TestDeadlockedAndPeekAllocateNothing(t *testing.T) {
	m, err := New(loopProg(t))
	if err != nil {
		t.Fatal(err)
	}
	l, f := m.ThreadByName("L").ID, m.ThreadByName("F").ID
	if _, err := m.Step(f); err != nil { // alloc: F's next step frees
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if m.Deadlocked() {
			t.Fatal("runnable machine reported deadlocked")
		}
	}); a != 0 {
		t.Errorf("Deadlocked: %.2f allocations, want 0", a)
	}
	for _, c := range []struct {
		tid  ThreadID
		want int // accesses the next instruction performs
	}{{l, 1}, {f, 4}} {
		if a := testing.AllocsPerRun(100, func() {
			if got := len(m.PeekAccesses(c.tid)); got != c.want {
				t.Fatalf("PeekAccesses(%d): %d accesses, want %d", c.tid, got, c.want)
			}
		}); a != 0 {
			t.Errorf("PeekAccesses(%d): %.2f allocations, want 0", c.tid, a)
		}
	}

	dl := deadlockMachine(t)
	if a := testing.AllocsPerRun(100, func() {
		if !dl.Deadlocked() {
			t.Fatal("lock cycle not reported deadlocked")
		}
	}); a != 0 {
		t.Errorf("Deadlocked (deadlocked machine): %.2f allocations, want 0", a)
	}
}

// deadlockMachine drives two threads into an ABBA lock cycle.
func deadlockMachine(t *testing.T) *Machine {
	t.Helper()
	b := kir.NewBuilder()
	b.Var("a", 0)
	b.Var("b", 0)
	for _, th := range []struct{ name, first, second string }{{"X", "a", "b"}, {"Y", "b", "a"}} {
		fb := b.Func(th.name)
		fb.Lock(kir.G(th.first))
		fb.Lock(kir.G(th.second))
		fb.Ret()
		b.Thread(th.name, th.name)
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	x, y := m.ThreadByName("X").ID, m.ThreadByName("Y").ID
	for _, tid := range []ThreadID{x, y, x, y} {
		if _, err := m.Step(tid); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestStepReusesAccessBuffer: a second Step overwrites the first event's
// Accesses — the documented lifetime callers must copy within.
func TestStepReusesAccessBuffer(t *testing.T) {
	m, err := New(loopProg(t))
	if err != nil {
		t.Fatal(err)
	}
	l := m.ThreadByName("L").ID
	load, err := m.Step(l) // load [g]
	if err != nil || len(load.Accesses) != 1 || load.Accesses[0].Write {
		t.Fatalf("load event: %+v, %v", load, err)
	}
	if _, err := m.Step(l); err != nil { // add
		t.Fatal(err)
	}
	store, err := m.Step(l) // store [g]
	if err != nil || len(store.Accesses) != 1 || !store.Accesses[0].Write {
		t.Fatalf("store event: %+v, %v", store, err)
	}
	if !load.Accesses[0].Write {
		t.Error("the store did not overwrite the load event's access buffer")
	}
}
