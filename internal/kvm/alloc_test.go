package kvm

import (
	"reflect"
	"runtime"
	"strconv"
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

// journalProg builds two threads that between them store, lock, call,
// allocate and free: A locks a, stores g through a helper and unlocks;
// B allocates, stores into and frees a two-word object, then locks and
// unlocks a.
func journalProg(t *testing.T) *kir.Program {
	t.Helper()
	b := kir.NewBuilder()
	b.Var("g", 0)
	b.Var("a", 0)
	h := b.Func("set")
	h.Store(kir.G("g"), kir.Imm(7))
	h.Ret()
	fa := b.Func("fa")
	fa.Lock(kir.G("a"))
	fa.Call("set")
	fa.Unlock(kir.G("a"))
	fa.Ret()
	fb := b.Func("fb")
	fb.Alloc(kir.R1, 2)
	fb.Store(kir.Ind(kir.R1, 0), kir.Imm(1))
	fb.Free(kir.R(kir.R1))
	fb.Lock(kir.G("a"))
	fb.Unlock(kir.G("a"))
	fb.Ret()
	b.Thread("A", "fa")
	b.Thread("B", "fb")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// runAll steps thread tid until it is done.
func runAll(t *testing.T, m *Machine, tid ThreadID) {
	t.Helper()
	for m.Thread(tid).State != Done {
		if _, err := m.Step(tid); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotRestoreAllocatesNothing: once the journals have grown, a
// Snapshot, both threads' steps (lock, call, store, unlock, alloc, free)
// and the Restore that undoes them allocate nothing, and the Restore
// lands on the snapshot's state.
func TestSnapshotRestoreAllocatesNothing(t *testing.T) {
	m, err := New(journalProg(t))
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.ThreadByName("A").ID, m.ThreadByName("B").ID
	sig := m.StateSignature()
	allocs := testing.AllocsPerRun(100, func() {
		sn := m.Snapshot()
		runAll(t, m, a)
		runAll(t, m, b)
		m.Restore(sn)
	})
	if allocs != 0 {
		t.Errorf("Snapshot, steps and Restore: %.2f allocations per cycle, want 0", allocs)
	}
	if got := m.StateSignature(); got != sig {
		t.Errorf("state signature after the cycles %#x, want the initial %#x", got, sig)
	}
}

// TestRestoreRewindsThreadInPlace: Restore writes a saved thread's state
// back into the same *Thread, locks and call stack included, so a
// pointer held across the Restore sees the restored state.
func TestRestoreRewindsThreadInPlace(t *testing.T) {
	m, err := New(journalProg(t))
	if err != nil {
		t.Fatal(err)
	}
	a := m.ThreadByName("A")
	outer := m.Snapshot()
	if _, err := m.Step(a.ID); err != nil { // lock a
		t.Fatal(err)
	}
	if _, err := m.Step(a.ID); err != nil { // call set
		t.Fatal(err)
	}
	held := m.Snapshot() // A holds a, inside set
	runAll(t, m, a.ID)
	if len(a.Locks) != 0 || len(a.frames) != 0 {
		t.Fatalf("after A ran: locks %v, depth %d", a.Locks, len(a.frames))
	}
	m.Restore(held)
	if m.Thread(a.ID) != a {
		t.Fatal("Restore replaced the thread object")
	}
	lockA, _ := m.Space().GlobalAddr("a")
	if len(a.Locks) != 1 || !a.HoldsLock(lockA) || len(a.frames) != 2 || a.State != Runnable {
		t.Errorf("restored to the inner snapshot: locks %v, depth %d, state %v; want a held, depth 2, runnable",
			a.Locks, len(a.frames), a.State)
	}
	m.Restore(outer)
	if len(a.Locks) != 0 || len(a.frames) != 1 {
		t.Errorf("restored to the outer snapshot: locks %v, depth %d; want none, depth 1", a.Locks, len(a.frames))
	}
}

// TestJournalIsPointerFree: the machine journal's records and the saved
// threads of its slab hold no pointer (a saved thread's frames, which
// name their functions, sit in their own arena).
func TestJournalIsPointerFree(t *testing.T) {
	var scalar func(reflect.Type) bool
	scalar = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Array:
			return scalar(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if !scalar(t.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			return false
		default:
			return true
		}
	}
	for _, v := range []any{mundo{}, savedThread{}} {
		if typ := reflect.TypeOf(v); !scalar(typ) {
			t.Errorf("%v holds pointers", typ)
		}
	}
	if scalar(reflect.TypeOf(frame{})) {
		t.Error("the check misses the pointer of frame")
	}
}

// TestHostileMemoryBounded: memory grows with the words a program
// writes, not with those it declares or allocates. The program declares
// 64 globals of kir.MaxObjectWords and writes one word of each, then
// makes 100 allocations of kir.MaxObjectWords and writes one word of
// each: 10.8M words, which a flat array of words would hold in more than
// 80 MB. New, the run and a Restore of its snapshot together allocate
// less than 4 MB, and the Restore lands on the initial state.
func TestHostileMemoryBounded(t *testing.T) {
	const globals, allocs, last = 64, 100, kir.MaxObjectWords - 1
	b := kir.NewBuilder()
	fb := b.Func("main")
	for i := 0; i < globals; i++ {
		name := "g" + strconv.Itoa(i)
		b.Global(name, kir.MaxObjectWords)
		fb.Store(kir.GOff(name, last), kir.Imm(1))
	}
	fb.At("top")
	fb.Alloc(kir.R2, kir.MaxObjectWords)
	fb.Store(kir.Ind(kir.R2, last), kir.Imm(1))
	fb.Add(kir.R1, kir.Imm(1))
	fb.Blt(kir.R(kir.R1), kir.Imm(allocs), "top")
	fb.Ret()
	b.Thread("T", "main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	init := m.StateSignature()
	sn := m.Snapshot()
	for !m.AllDone() {
		if _, err := m.Step(0); err != nil {
			t.Fatal(err)
		}
		if f := m.Failure(); f != nil {
			t.Fatalf("run failed: %v", f)
		}
	}
	if got, want := m.Space().StateBytes(), uint64(16*(globals+allocs)+24*allocs); got != want {
		t.Errorf("StateBytes %d after the run, want %d", got, want)
	}
	m.Restore(sn)
	runtime.ReadMemStats(&after)

	if got := m.StateSignature(); got != init {
		t.Errorf("signature %#x after the restore, want the initial %#x", got, init)
	}
	const bound = 4 << 20
	n := after.TotalAlloc - before.TotalAlloc
	if n > bound {
		t.Errorf("New, the run and the restore allocated %d bytes, want at most %d", n, bound)
	}
	t.Logf("New, the run and the restore allocated %d bytes", n)
}
