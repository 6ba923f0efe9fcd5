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

	// A log that records into a caller's array (Options.Log) overwrites
	// it in place: the run's records share the array and match a run
	// into a fresh log.
	m.Restore(init)
	into := make([]Exec, len(res.Seq))
	for i := range into {
		into[i] = Exec{Step: -1, Name: "stale", Accesses: []AccessRec{{Addr: 0xdead}}, Lockset: []uint64{1}, Spawned: "stale"}
	}
	again, err := NewEnforcer(m).Run(Serial("A", "B"), Options{Log: into})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Seq, res.Seq) {
		t.Fatalf("run into a caller's log:\n%+v\nwant\n%+v", again.Seq, res.Seq)
	}
	if len(again.Seq) > 0 && &again.Seq[0] != &into[0] {
		t.Fatal("the run did not record into the caller's log")
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
