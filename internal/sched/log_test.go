package sched

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"aitia/internal/kir"
	"aitia/internal/kvm"
)

// TestExecSize guards the step record's footprint: the instruction is a
// pointer into the program, not a copy.
func TestExecSize(t *testing.T) {
	if n := unsafe.Sizeof(Exec{}); n > 112 {
		t.Errorf("sizeof(Exec) = %d bytes, want at most 112", n)
	}
}

// stepCopies steps the machine under a serial order, copying every event's
// accesses before the next Step reuses the buffer.
func stepCopies(t *testing.T, m *kvm.Machine, order ...string) [][]AccessRec {
	t.Helper()
	var out [][]AccessRec
	for _, name := range order {
		th := m.ThreadByName(name)
		for th.State == kvm.Runnable && m.Failure() == nil {
			ev, err := m.Step(th.ID)
			if err != nil {
				t.Fatal(err)
			}
			var accs []AccessRec
			for _, a := range ev.Accesses {
				accs = append(accs, AccessRec{Addr: a.Addr, Write: a.Write})
			}
			out = append(out, accs)
		}
	}
	return out
}

// TestRecordedAccessesSurviveLaterSteps: the machine reuses its event
// access buffer on every Step, but the accesses the enforcer and a step
// log recorded stay intact through later steps, rewinds and reuse.
func TestRecordedAccessesSurviveLaterSteps(t *testing.T) {
	prog := phantomProg(t)
	m := machine(t, prog)
	init := m.Snapshot()
	want := stepCopies(t, m, "A", "B")

	m.Restore(init)
	res, err := NewEnforcer(m).Run(Serial("A", "B"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the machine's buffer many times over.
	m.Restore(init)
	stepCopies(t, m, "B", "A")
	if len(res.Seq) != len(want) {
		t.Fatalf("enforced %d steps, stepped %d", len(res.Seq), len(want))
	}
	for i, e := range res.Seq {
		if !reflect.DeepEqual(e.Accesses, want[i]) {
			t.Fatalf("enforcer step %d: accesses %v, want %v", i, e.Accesses, want[i])
		}
	}

	// The explorer's step log: records survive later appends; a rewind
	// reuses the space, and only CloneSeq copies survive that.
	m.Restore(init)
	var log StepLog
	a := m.ThreadByName("A")
	for a.State == kvm.Runnable {
		ev, err := m.Step(a.ID)
		if err != nil {
			t.Fatal(err)
		}
		log.Append(m, a, ev)
	}
	mark := log.Mark()
	snap := m.Snapshot()
	b := m.ThreadByName("B")
	for b.State == kvm.Runnable && m.Failure() == nil {
		ev, err := m.Step(b.ID)
		if err != nil {
			t.Fatal(err)
		}
		log.Append(m, b, ev)
	}
	kept := CloneSeq(log.Seq)
	if !reflect.DeepEqual(kept, log.Seq) {
		t.Fatal("CloneSeq differs from its source")
	}
	wantAB := make([][]AccessRec, len(log.Seq))
	for i, e := range log.Seq {
		if len(e.Accesses) > 0 {
			wantAB[i] = e.Accesses
		}
	}
	if !reflect.DeepEqual(wantAB, want[:len(log.Seq)]) {
		t.Fatalf("step log accesses %v, want %v", wantAB, want[:len(log.Seq)])
	}
	log.Rewind(mark)
	m.Restore(snap)
	// Re-run the tail with other accesses: overwrite B's records.
	for b.State == kvm.Runnable && m.Failure() == nil {
		ev, err := m.Step(b.ID)
		if err != nil {
			t.Fatal(err)
		}
		ev.Accesses = append(ev.Accesses[:0], kvm.Access{Addr: 0xdead, Write: true})
		log.Append(m, b, ev)
	}
	for i, e := range kept {
		if len(e.Accesses) > 0 && !reflect.DeepEqual(e.Accesses, want[i]) {
			t.Fatalf("cloned step %d: accesses %v, want %v", i, e.Accesses, want[i])
		}
	}
}

// TestAccessLogMatchesAccessMap: folding a log into a map equals recording
// its accesses one by one, its Export equals the map's, and Import
// round-trips it.
func TestAccessLogMatchesAccessMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	threads := []string{"A", "B", "kworker:x"}
	var log AccessLog
	am := NewAccessMap()
	for i := 0; i < 500; i++ {
		s := Site{Thread: threads[rng.Intn(len(threads))], Instr: kir.InstrID(rng.Intn(6))}
		addr, write := uint64(rng.Intn(8)), rng.Intn(3) == 0
		log.Add(s, addr, write)
		am.Record(s, addr, write)
	}
	folded := NewAccessMap()
	folded.Fold(log)
	if !reflect.DeepEqual(folded.Export(), am.Export()) {
		t.Fatal("Fold differs from Record")
	}
	if !reflect.DeepEqual(log.Export(), am.Export()) {
		t.Fatalf("log export differs from map export\nlog: %v\nmap: %v", log.Export(), am.Export())
	}
	if !reflect.DeepEqual(ImportAccessLog(am.Export()).Export(), am.Export()) {
		t.Fatal("ImportAccessLog does not round-trip")
	}
}
