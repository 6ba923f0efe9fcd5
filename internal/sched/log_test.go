package sched

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"aitia/internal/kir"
	"aitia/internal/kvm"
)

// TestExecSize guards the step record's footprint: IDs and ranges of
// the run's arrays, no copy of the instruction or its accesses.
func TestExecSize(t *testing.T) {
	if n := unsafe.Sizeof(Exec{}); n > 32 {
		t.Errorf("sizeof(Exec) = %d bytes, want at most 32", n)
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
	if res.Seq.Len() != len(want) {
		t.Fatalf("enforced %d steps, stepped %d", res.Seq.Len(), len(want))
	}
	for i := range res.Seq.Steps {
		if got := res.Seq.Accesses(i); !reflect.DeepEqual(got, want[i]) && len(got)+len(want[i]) > 0 {
			t.Fatalf("enforcer step %d: accesses %v, want %v", i, got, want[i])
		}
	}

	// A run that records into a caller's arrays (Options.Log) overwrites
	// them in place: the run's records share the arrays and match a run
	// into fresh ones.
	m.Restore(init)
	into := Trace{
		Steps: make([]Exec, res.Seq.Len()),
		Accs:  make([]AccessRec, len(res.Seq.Accs)),
		Locks: []uint64{1, 2},
		Names: []string{"stale"},
	}
	for i := range into.Steps {
		into.Steps[i] = Exec{Step: -1, Thread: 7, Instr: 99, Spawned: 3, accs: span{0, 1}, locks: span{0, 2}}
	}
	for i := range into.Accs {
		into.Accs[i] = AccessRec{Addr: 0xdead}
	}
	again, err := NewEnforcer(m).Run(Serial("A", "B"), Options{Log: into})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Seq.Steps, res.Seq.Steps) || !reflect.DeepEqual(again.Seq.Accs, res.Seq.Accs) ||
		!reflect.DeepEqual(again.Seq.Names, res.Seq.Names) || len(again.Seq.Locks) != len(res.Seq.Locks) {
		t.Fatalf("run into a caller's log:\n%+v\nwant\n%+v", again.Seq, res.Seq)
	}
	if again.Seq.Len() > 0 && &again.Seq.Steps[0] != &into.Steps[0] {
		t.Fatal("the run did not record into the caller's log")
	}
	if len(again.Seq.Accs) > 0 && &again.Seq.Accs[0] != &into.Accs[0] {
		t.Fatal("the run did not record into the caller's access array")
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
