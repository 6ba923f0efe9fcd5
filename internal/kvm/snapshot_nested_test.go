package kvm

import (
	"testing"

	"aitia/internal/kir"
)

// storeProg builds a single-thread program performing n successive stores
// to g (g takes the values 1..n), so tests can step a known number of
// instructions between snapshots and read the progress back.
func storeProg(t *testing.T, n int) *kir.Program {
	t.Helper()
	return simpleProg(t, func(f *kir.FuncBuilder) {
		for i := 1; i <= n; i++ {
			f.Store(kir.G("g"), kir.Imm(int64(i)))
		}
		f.Ret()
	})
}

func stepN(t *testing.T, m *Machine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ev, err := m.Step(0)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !ev.Executed {
			t.Fatalf("step %d did not execute", i)
		}
	}
}

func wantStale(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("restore of a stale snapshot did not panic")
		}
	}()
	f()
}

// TestNestedSnapshotRestore exercises the snapshot stack the prefix cache
// leans on: restore to an interior snapshot, mutate divergently, restore
// to its ancestor — each restore lands on the exact captured state, stales
// everything deeper, and keeps shallower snapshots restorable repeatedly.
func TestNestedSnapshotRestore(t *testing.T) {
	m, err := New(storeProg(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := m.Space().GlobalAddr("g")
	load := func() int64 {
		v, _ := m.Space().Load(g)
		return v
	}

	a := m.Snapshot() // g=0
	stepN(t, m, 2)    // g=2
	b := m.Snapshot()
	stepN(t, m, 2) // g=4
	c := m.Snapshot()
	stepN(t, m, 2) // g=6
	execPeak := m.Executed()
	if load() != 6 {
		t.Fatalf("g = %d, want 6", load())
	}

	// LIFO restores land on the exact captured states.
	m.Restore(c)
	if load() != 4 {
		t.Errorf("after Restore(c): g = %d, want 4", load())
	}
	m.Restore(b)
	if load() != 2 {
		t.Errorf("after Restore(b): g = %d, want 2", load())
	}

	// Restoring b staled c...
	if m.SnapshotLive(c) {
		t.Error("c reports live after its ancestor was restored")
	}
	if !m.SnapshotLive(a) || !m.SnapshotLive(b) {
		t.Error("a and b must stay live across the interior restore")
	}
	// ...and stays stale even after the journal regrows past c's position.
	stepN(t, m, 3) // g=5, diverged from the original run
	if m.SnapshotLive(c) {
		t.Error("c reports live after divergent re-execution past its position")
	}
	wantStale(t, func() { m.Restore(c) })

	// The ancestor restores across the divergent mutation, repeatedly.
	m.Restore(a)
	if load() != 0 {
		t.Errorf("after Restore(a): g = %d, want 0", load())
	}
	stepN(t, m, 5)
	m.Restore(a)
	if load() != 0 {
		t.Errorf("second Restore(a): g = %d, want 0", load())
	}

	// Executed is monotonic: restores rewind the logical clock (Steps),
	// never the work counter the prefix-cache stats are built from.
	if m.Executed() < execPeak {
		t.Errorf("Executed() = %d rewound below %d", m.Executed(), execPeak)
	}
	if m.Steps() != 0 {
		t.Errorf("Steps() = %d after restoring the initial snapshot, want 0", m.Steps())
	}
}

// TestSnapshotStaleAcrossReset pins the generation check: Reset
// bypasses the undo journal, so every journal-based snapshot taken
// before it — including position-0 snapshots, which a purely positional
// check would wrongly accept — must die.
func TestSnapshotStaleAcrossReset(t *testing.T) {
	m, err := New(storeProg(t, 8))
	if err != nil {
		t.Fatal(err)
	}

	sn := m.Snapshot() // position 0: the positional staleness check alone passes
	stepN(t, m, 2)
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if m.SnapshotLive(sn) {
		t.Error("pre-Reset snapshot reports live")
	}
	wantStale(t, func() { m.Restore(sn) })

	// A snapshot taken in the new generation works normally.
	g, _ := m.Space().GlobalAddr("g")
	sn2 := m.Snapshot()
	stepN(t, m, 2)
	m.Restore(sn2)
	if v, _ := m.Space().Load(g); v != 0 {
		t.Errorf("g = %d after post-reset snapshot round trip, want 0", v)
	}
}

// TestSnapshotBytesAccounting checks the two byte meters the prefix cache
// budgets with: LiveBytes tracks the journal exactly (restores release the
// truncated entries), SnapshotBytes is the monotonic total CoW cost.
func TestSnapshotBytesAccounting(t *testing.T) {
	m, err := New(storeProg(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if m.LiveBytes() != 0 {
		t.Fatalf("LiveBytes = %d before any snapshot, want 0", m.LiveBytes())
	}

	a := m.Snapshot()
	stepN(t, m, 3)
	lbAtB := m.LiveBytes()
	if lbAtB == 0 {
		t.Fatal("LiveBytes = 0 after journaled steps")
	}
	copied := m.SnapshotBytes()
	if copied == 0 {
		t.Fatal("SnapshotBytes = 0 after journaled steps")
	}

	b := m.Snapshot()
	stepN(t, m, 2)
	if m.LiveBytes() <= lbAtB {
		t.Errorf("LiveBytes = %d did not grow past %d", m.LiveBytes(), lbAtB)
	}
	m.Restore(b)
	if got := m.LiveBytes(); got != lbAtB {
		t.Errorf("LiveBytes = %d after Restore(b), want %d (journal above b released)", got, lbAtB)
	}
	m.Restore(a)
	if got := m.LiveBytes(); got != 0 {
		t.Errorf("LiveBytes = %d after restoring the oldest snapshot, want 0", got)
	}
	if m.SnapshotBytes() < copied {
		t.Errorf("SnapshotBytes = %d rewound below %d", m.SnapshotBytes(), copied)
	}
}
