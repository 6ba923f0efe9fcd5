package core

import (
	"reflect"
	"testing"

	"aitia/internal/faultinject"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

// replayRetryPlan returns a fault plan under which the final replay's
// first enforcement stalls within its first steps and its second runs
// clean, so the replay retries exactly once; every other kind is off.
func replayRetryPlan(t *testing.T) *faultinject.Plan {
	t.Helper()
	for seed := int64(1); seed < 10000; seed++ {
		probe := faultinject.NewPlan(seed, 0).SetRate(faultinject.KindEnforceStall, 0.5)
		if at := probe.StallStep("lifs.replay", 0, 0); at >= 0 && at < 4 && probe.StallStep("lifs.replay", 0, 1) < 0 {
			return faultinject.NewPlan(seed, 0).SetRate(faultinject.KindEnforceStall, 0.5)
		}
	}
	t.Fatal("no seed stalls only the replay's first attempt")
	return nil
}

// TestReplayReusesWinnerTrace: the final replay records the canonical run
// into the winning candidate's own records. On every corpus scenario —
// serially, on 4 workers and through a loopback dispatcher, with and
// without a stall that forces one replay retry — rep.Run.Seq deep-equals
// a fresh enforcement of rep.Schedule from the initial state (steps,
// names, accesses, locksets and spawns), and shares its backing array
// with the winner's records.
func TestReplayReusesWinnerTrace(t *testing.T) {
	var winner sched.Trace
	testHookWinner = func(trace *sched.Trace) { winner = *trace }
	defer func() { testHookWinner = nil }()
	modes := []struct {
		name string
		set  func(*LIFSOptions)
	}{
		{"serial", func(o *LIFSOptions) { o.Workers = 1 }},
		{"workers=4", func(o *LIFSOptions) { o.Workers = 4 }},
		{"dispatch", func(o *LIFSOptions) { o.Workers = 4; o.Dispatch = &loopbackDispatcher{} }},
	}
	for _, faulted := range []bool{false, true} {
		for _, mode := range modes {
			for _, sc := range scenarios.All() {
				prog := sc.MustProgram()
				opts := LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr(), LeakCheck: sc.NeedsLeakCheck()}
				mode.set(&opts)
				if faulted {
					opts.Fault = replayRetryPlan(t)
				}
				winner = sched.Trace{}
				rep, err := Reproduce(mustMachine(t, prog), opts)
				if err != nil {
					t.Fatalf("%s %s faulted=%v: %v", sc.Name, mode.name, faulted, err)
				}
				if faulted {
					if st := opts.Fault.Stats(); st.Retries == 0 {
						t.Fatalf("%s %s: the replay did not retry", sc.Name, mode.name)
					}
				}
				fresh, err := sched.NewEnforcer(mustMachine(t, prog)).Run(rep.Schedule, sched.Options{LeakCheck: sc.NeedsLeakCheck()})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rep.Run.Seq, fresh.Seq) || rep.Run.Base.Len() != 0 {
					t.Fatalf("%s %s faulted=%v: the canonical run differs from a fresh enforcement of its schedule\n got %+v\nwant %+v",
						sc.Name, mode.name, faulted, rep.Run.Seq, fresh.Seq)
				}
				if winner.Len() == 0 || &rep.Run.Seq.Steps[0] != &winner.Steps[0] || &rep.Run.Seq.Accs[0] != &winner.Accs[0] {
					t.Fatalf("%s %s faulted=%v: the canonical run does not share the winner's records", sc.Name, mode.name, faulted)
				}
			}
		}
	}
}

// hasPointers reports whether values of type t hold any pointer the
// garbage collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default:
		return true
	}
}

// TestPathIsPointerFree guards the explorer's path, its access log and
// the run records a path becomes: the path's step record, the element
// type of its access arena, a logged access (sched.LoggedAccess) and a
// run's step record (sched.Exec) hold no pointers, so the arrays the
// explorer writes on every step and every run's records are never
// scanned by the garbage collector. A path step stays 16 bytes, a logged
// access at most 16 and a run record at most 32.
func TestPathIsPointerFree(t *testing.T) {
	step := reflect.TypeOf(pathStep{})
	acc := reflect.TypeOf(path{}.accs).Elem()
	logged := reflect.TypeOf(sched.LoggedAccess{})
	exec := reflect.TypeOf(sched.Exec{})
	for _, typ := range []reflect.Type{step, acc, logged, exec} {
		if hasPointers(typ) {
			t.Errorf("%v holds pointers", typ)
		}
	}
	if step.Size() != 16 {
		t.Errorf("sizeof(pathStep) = %d, want 16", step.Size())
	}
	if logged.Size() > 16 {
		t.Errorf("sizeof(sched.LoggedAccess) = %d, want at most 16", logged.Size())
	}
	if exec.Size() > 32 {
		t.Errorf("sizeof(sched.Exec) = %d, want at most 32", exec.Size())
	}
	if !hasPointers(reflect.TypeOf(sched.Site{})) {
		t.Error("hasPointers misses the pointer of sched.Site's thread name")
	}
}

// TestFailingRunAccessesAlreadyKnown: every access of the canonical
// failing run is already in the reproduction's access knowledge when the
// search ends, so folding the final replay into it would add nothing.
// Checked on every corpus scenario serially, on 4 workers, through a
// loopback dispatcher, in guided report mode, and on a resume from a
// terminal checkpoint (whose knowledge was exported by the cold search).
func TestFailingRunAccessesAlreadyKnown(t *testing.T) {
	modes := []struct {
		name string
		set  func(o *LIFSOptions, blind *Reproduction)
	}{
		{"workers=4", func(o *LIFSOptions, _ *Reproduction) { o.Workers = 4 }},
		{"dispatch", func(o *LIFSOptions, _ *Reproduction) { o.Workers = 4; o.Dispatch = &loopbackDispatcher{} }},
		{"guided", func(o *LIFSOptions, blind *Reproduction) { o.Guide = guideFor(blind) }},
	}
	check := func(name, mode string, rep *Reproduction) {
		t.Helper()
		seq := &rep.Run.Seq
		for k, e := range seq.Steps {
			for _, a := range seq.Accesses(k) {
				if !rep.Accesses.Has(seq.Site(k), a.Addr, a.Write) {
					t.Fatalf("%s %s: step %d (%s/instr %d) access %#x write=%v is missing from the access map",
						name, mode, e.Step, seq.Name(k), e.Instr, a.Addr, a.Write)
				}
			}
		}
	}
	for _, sc := range scenarios.All() {
		prog := sc.MustProgram()
		opts := LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr(), LeakCheck: sc.NeedsLeakCheck(), Workers: 1}
		blind, err := Reproduce(mustMachine(t, prog), opts)
		if err != nil {
			t.Fatalf("%s serial: %v", sc.Name, err)
		}
		check(sc.Name, "serial", blind)
		for _, mode := range modes {
			o := opts
			mode.set(&o, blind)
			rep, err := Reproduce(mustMachine(t, prog), o)
			if err != nil {
				t.Fatalf("%s %s: %v", sc.Name, mode.name, err)
			}
			check(sc.Name, mode.name, rep)
		}
		o := opts
		o.Checkpoint = &CheckpointConfig{Store: testCheckpointStore(t)}
		if _, err := Reproduce(mustMachine(t, prog), o); err != nil {
			t.Fatalf("%s cold checkpointed: %v", sc.Name, err)
		}
		warm, err := Reproduce(mustMachine(t, prog), o)
		if err != nil {
			t.Fatalf("%s terminal resume: %v", sc.Name, err)
		}
		if !warm.Stats.Resumed || warm.Stats.Schedules != 0 {
			t.Fatalf("%s: resumed=%t schedules=%d, want a terminal replay", sc.Name, warm.Stats.Resumed, warm.Stats.Schedules)
		}
		check(sc.Name, "terminal-resume", warm)
	}
}
