package history

import (
	"strings"
	"testing"
	"testing/quick"

	"aitia/internal/sanitizer"
	"aitia/internal/sched"
)

// trace builds a synthetic trace: per thread (name, enter, exit) windows
// plus a crash.
func trace(crashTS uint64, crashThread string, wins ...[3]interface{}) *Trace {
	tr := &Trace{FDs: map[string]int{}}
	for _, w := range wins {
		name := w[0].(string)
		tr.Events = append(tr.Events,
			Event{TS: uint64(w[1].(int)), Kind: SyscallEnter, Thread: name},
			Event{TS: uint64(w[2].(int)), Kind: SyscallExit, Thread: name},
		)
	}
	tr.Crash = &sanitizer.Failure{Kind: sanitizer.KindBugOn, Thread: crashThread}
	tr.Events = append(tr.Events, Event{TS: crashTS, Kind: CrashEvent, Thread: crashThread})
	return tr
}

func TestModelGroupsOverlappingWindows(t *testing.T) {
	tr := trace(100, "c",
		[3]interface{}{"a", 0, 50},
		[3]interface{}{"b", 40, 90},
		[3]interface{}{"c", 80, 100},
		[3]interface{}{"far", 0, 10},
	)
	slices := Model(tr)
	if len(slices) == 0 {
		t.Fatal("no slices")
	}
	// The nearest-to-failure slice contains c and its overlap b.
	first := slices[0]
	if !contains(first.Threads, "c") || !contains(first.Threads, "b") {
		t.Errorf("first slice = %v, want {b, c}", first.Threads)
	}
	// Distances are non-decreasing.
	for i := 1; i < len(slices); i++ {
		if slices[i].Distance < slices[i-1].Distance {
			t.Errorf("slice %d closer than %d", i, i-1)
		}
	}
}

func TestModelSplitsLargeGroups(t *testing.T) {
	tr := trace(100, "e",
		[3]interface{}{"a", 0, 100},
		[3]interface{}{"b", 0, 100},
		[3]interface{}{"c", 0, 100},
		[3]interface{}{"d", 0, 100},
		[3]interface{}{"e", 0, 100},
	)
	for _, sl := range Model(tr) {
		if len(sl.Threads) > MaxSliceThreads {
			t.Errorf("slice too large: %v", sl.Threads)
		}
	}
}

func TestModelFDClosure(t *testing.T) {
	tr := trace(100, "write",
		[3]interface{}{"open", 0, 10},
		[3]interface{}{"write", 80, 100},
		[3]interface{}{"close", 20, 30},
	)
	tr.FDs = map[string]int{"open": 3, "write": 3, "close": 3}
	slices := Model(tr)
	// The write slice must pull in open and close of the same fd even
	// though their windows do not overlap.
	found := false
	for _, sl := range slices {
		if contains(sl.Threads, "write") && contains(sl.Threads, "open") && contains(sl.Threads, "close") {
			found = true
		}
	}
	if !found {
		t.Errorf("fd closure missing: %v", slices)
	}
}

func TestModelSkipsSpawnedThreads(t *testing.T) {
	tr := trace(50, "a", [3]interface{}{"a", 0, 50})
	tr.Events = append(tr.Events, Event{TS: 20, Kind: ThreadInvoke, Thread: "kworker:X", Source: "a"})
	tr.Events = append(tr.Events,
		Event{TS: 21, Kind: SyscallEnter, Thread: "kworker:X"},
		Event{TS: 30, Kind: SyscallExit, Thread: "kworker:X"})
	for _, sl := range Model(tr) {
		if contains(sl.Threads, "kworker:X") {
			t.Errorf("spawned thread in slice: %v", sl.Threads)
		}
	}
}

func TestFromRun(t *testing.T) {
	res := &sched.RunResult{
		Failure: &sanitizer.Failure{Kind: sanitizer.KindBugOn, Thread: "B"},
	}
	add := func(name string, spawned string) {
		res.Seq.AddStep(name, 0, nil)
		if spawned != "" {
			res.Seq.Steps[res.Seq.Len()-1].Spawned = res.Seq.Intern(spawned)
		}
	}
	add("A", "")
	add("A", "kworker:S")
	add("B", "")
	add("A", "")
	add("B", "")
	tr := FromRun(res, map[string]int{"A": 4})
	var kinds []string
	for _, e := range tr.Events {
		kinds = append(kinds, e.Kind.String()+":"+e.Thread)
	}
	text := strings.Join(kinds, " ")
	for _, want := range []string{"sys_enter:A", "invoke:kworker:S", "sys_exit:A", "sys_enter:B", "sys_exit:B", "crash:B"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in %q", want, text)
		}
	}
	if !strings.Contains(tr.Format(), "crash") {
		t.Error("Format misses the crash")
	}
}

// TestModelProperties: for arbitrary window sets, every produced slice is
// within the size cap, mentions only known threads, and slice sets are
// deduplicated.
func TestModelProperties(t *testing.T) {
	f := func(spans []uint8) bool {
		if len(spans) == 0 {
			return true
		}
		if len(spans) > 8 {
			spans = spans[:8]
		}
		tr := &Trace{}
		names := map[string]bool{}
		for i, s := range spans {
			name := string(rune('a' + i))
			start := uint64(s % 50)
			end := start + uint64(s%20) + 1
			tr.Events = append(tr.Events,
				Event{TS: start, Kind: SyscallEnter, Thread: name},
				Event{TS: end, Kind: SyscallExit, Thread: name})
			names[name] = true
		}
		tr.Events = append(tr.Events, Event{TS: 100, Kind: CrashEvent, Thread: "a"})
		seen := map[string]bool{}
		for _, sl := range Model(tr) {
			if len(sl.Threads) == 0 || len(sl.Threads) > MaxSliceThreads {
				return false
			}
			for _, th := range sl.Threads {
				if !names[th] {
					return false
				}
			}
			key := strings.Join(sl.Threads, ",")
			if seen[key] {
				return false // duplicates
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
