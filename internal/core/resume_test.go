package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aitia/internal/durable"
	"aitia/internal/kir"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

// pipelineOut is everything a resumed diagnosis must reproduce
// byte-for-byte against an uninterrupted golden run.
type pipelineOut struct {
	Schedule      sched.Schedule
	Races         []sched.Race
	Interleavings int
	Chain         string
	Verdicts      []Verdict
	Realized      []bool
	RootCause     []sched.Race
	Benign        []sched.Race
	Ambiguous     []sched.Race
	// Schedules is the total complete runs this process executed across
	// both pipeline legs — the work a resume is supposed to skip.
	Schedules  int
	RepResumed bool
	CAResumed  bool
}

func testCheckpointStore(t testing.TB) *durable.CheckpointStore {
	t.Helper()
	st, err := durable.OpenCheckpointStore(t.TempDir(), false)
	if err != nil {
		t.Fatalf("open checkpoint store: %v", err)
	}
	return st
}

// runPipeline runs Reproduce+Analyze for the scenario. When killAfter > 0
// the context is canceled right after the killAfter-th durable save —
// the closest in-process approximation of a SIGKILL at a checkpoint
// cadence point. It returns (nil, true) when the kill fired and aborted
// the run, (out, false) when the run outlived the kill point.
func runPipeline(t *testing.T, sc *scenarios.Scenario, cfg *CheckpointConfig, workers, killAfter int) (*pipelineOut, bool) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cfg != nil && killAfter > 0 {
		saves := 0
		cfg.OnSave = func(string) {
			saves++
			if saves == killAfter {
				cancel()
			}
		}
	} else if cfg != nil {
		cfg.OnSave = nil
	}

	prog := sc.MustProgram()
	m := mustMachine(t, prog)
	lifs := LIFSOptions{
		WantKind:   sc.WantKind,
		WantInstr:  sc.WantInstr(),
		LeakCheck:  sc.NeedsLeakCheck(),
		Workers:    workers,
		Checkpoint: cfg,
	}
	rep, err := ReproduceContext(ctx, m, lifs)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return nil, true
		}
		t.Fatalf("Reproduce(%s): %v", sc.Name, err)
	}
	d, err := AnalyzeContext(ctx, m, rep, AnalysisOptions{
		LeakCheck:  sc.NeedsLeakCheck(),
		Workers:    workers,
		Checkpoint: cfg,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return nil, true
		}
		t.Fatalf("Analyze(%s): %v", sc.Name, err)
	}
	out := &pipelineOut{
		Schedule:      rep.Schedule,
		Races:         rep.Races,
		Interleavings: rep.Stats.Interleavings,
		Chain:         d.Chain.Format(prog),
		RootCause:     d.RootCause,
		Benign:        d.Benign,
		Ambiguous:     d.Ambiguous,
		Schedules:     rep.Stats.Schedules + d.Stats.Schedules,
		RepResumed:    rep.Stats.Resumed,
		CAResumed:     d.Stats.Resumed,
	}
	for _, tr := range d.Tested {
		out.Verdicts = append(out.Verdicts, tr.Verdict)
		out.Realized = append(out.Realized, tr.FlipRealized)
	}
	return out, false
}

// assertSameDiagnosis fails unless got matches the golden run on every
// externally observable dimension of the diagnosis.
func assertSameDiagnosis(t *testing.T, label string, got, golden *pipelineOut) {
	t.Helper()
	if !reflect.DeepEqual(got.Schedule, golden.Schedule) {
		t.Errorf("%s: schedule = %+v, want %+v", label, got.Schedule, golden.Schedule)
	}
	if !reflect.DeepEqual(got.Races, golden.Races) {
		t.Errorf("%s: races = %+v, want %+v", label, got.Races, golden.Races)
	}
	if got.Interleavings != golden.Interleavings {
		t.Errorf("%s: interleavings = %d, want %d", label, got.Interleavings, golden.Interleavings)
	}
	if got.Chain != golden.Chain {
		t.Errorf("%s: chain = %q, want %q", label, got.Chain, golden.Chain)
	}
	if !reflect.DeepEqual(got.Verdicts, golden.Verdicts) {
		t.Errorf("%s: verdicts = %v, want %v", label, got.Verdicts, golden.Verdicts)
	}
	if !reflect.DeepEqual(got.Realized, golden.Realized) {
		t.Errorf("%s: flip realization = %v, want %v", label, got.Realized, golden.Realized)
	}
	if !reflect.DeepEqual(got.RootCause, golden.RootCause) {
		t.Errorf("%s: root causes = %+v, want %+v", label, got.RootCause, golden.RootCause)
	}
	if !reflect.DeepEqual(got.Benign, golden.Benign) {
		t.Errorf("%s: benign = %+v, want %+v", label, got.Benign, golden.Benign)
	}
	if !reflect.DeepEqual(got.Ambiguous, golden.Ambiguous) {
		t.Errorf("%s: ambiguous = %+v, want %+v", label, got.Ambiguous, golden.Ambiguous)
	}
}

// TestResumeAfterEveryCheckpoint is the crash-determinism matrix: kill
// the diagnosis right after every durable save point in turn (phase
// boundaries, intra-phase cuts, the terminal snapshot, each settled
// flip), resume from the on-disk state, and require the causality chain
// and verdicts byte-identical to the uninterrupted golden run — with
// strictly fewer schedules executed by the resumed process. Run serial
// (with intra-phase cadence saves armed) and with an 8-worker fleet.
func TestResumeAfterEveryCheckpoint(t *testing.T) {
	sc, ok := scenarios.ByName("cve-2017-15649")
	if !ok {
		t.Fatal("scenario cve-2017-15649 missing")
	}
	for _, tc := range []struct {
		name    string
		workers int
		every   int
	}{
		{"serial", 1, 2},
		{"parallel8", 8, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden, killed := runPipeline(t, sc, nil, tc.workers, 0)
			if killed {
				t.Fatal("golden run reported a kill with no checkpointing armed")
			}

			resumes := 0
			for killAfter := 1; ; killAfter++ {
				store := testCheckpointStore(t)
				cfg := &CheckpointConfig{Store: store, Every: tc.every}
				if _, wasKilled := runPipeline(t, sc, cfg, tc.workers, killAfter); !wasKilled {
					// The run outlived the last save point: the kill
					// matrix is exhausted.
					if killAfter == 1 {
						t.Fatal("no checkpoint was ever saved")
					}
					break
				}
				resumed, wasKilled := runPipeline(t, sc, cfg, tc.workers, 0)
				if wasKilled {
					t.Fatalf("kill %d: resumed run aborted", killAfter)
				}
				if !resumed.RepResumed && !resumed.CAResumed {
					t.Errorf("kill %d: resume did not use the checkpoint", killAfter)
				}
				if resumed.Schedules >= golden.Schedules {
					t.Errorf("kill %d: resumed run executed %d schedules, want strictly fewer than cold %d",
						killAfter, resumed.Schedules, golden.Schedules)
				}
				assertSameDiagnosis(t, tc.name, resumed, golden)
				resumes++
			}
			if resumes < 3 {
				t.Errorf("kill matrix covered only %d save points, expected at least 3", resumes)
			}
			t.Logf("%s: %d kill points resumed identically (golden %d schedules)", tc.name, resumes, golden.Schedules)
		})
	}
}

// TestResumeAfterExhaustedBudget is the -crash-resume contract: a search
// truncated by a small MaxSchedules leaves checkpoints behind, and a
// rerun with the full budget resumes from them instead of starting over
// — same reproduction, strictly fewer schedules than a cold full-budget
// run. MaxSchedules is deliberately excluded from the checkpoint key to
// make exactly this legal.
func TestResumeAfterExhaustedBudget(t *testing.T) {
	sc, ok := scenarios.ByName("cve-2017-15649")
	if !ok {
		t.Fatal("scenario cve-2017-15649 missing")
	}
	prog := sc.MustProgram()
	base := LIFSOptions{
		WantKind:  sc.WantKind,
		WantInstr: sc.WantInstr(),
		LeakCheck: sc.NeedsLeakCheck(),
	}

	cold, err := Reproduce(mustMachine(t, prog), base)
	if err != nil {
		t.Fatalf("cold Reproduce: %v", err)
	}
	if cold.Stats.Schedules < 8 {
		t.Skipf("scenario reproduces in only %d schedules; truncation has nothing to cut", cold.Stats.Schedules)
	}

	store := testCheckpointStore(t)
	truncated := base
	truncated.Checkpoint = &CheckpointConfig{Store: store, Every: 2}
	truncated.MaxSchedules = cold.Stats.Schedules / 2
	if _, err := Reproduce(mustMachine(t, prog), truncated); !IsNotReproduced(err) {
		t.Fatalf("truncated Reproduce: err = %v, want ErrNotReproduced", err)
	}

	full := base
	full.Checkpoint = &CheckpointConfig{Store: store, Every: 2}
	resumed, err := Reproduce(mustMachine(t, prog), full)
	if err != nil {
		t.Fatalf("resumed Reproduce: %v", err)
	}
	if !resumed.Stats.Resumed {
		t.Error("resumed run did not pick up the truncated run's checkpoint")
	}
	if resumed.Stats.CheckpointAge < 0 {
		t.Errorf("checkpoint age = %v, want >= 0", resumed.Stats.CheckpointAge)
	}
	if resumed.Stats.Schedules >= cold.Stats.Schedules {
		t.Errorf("resumed run executed %d schedules, want strictly fewer than cold %d",
			resumed.Stats.Schedules, cold.Stats.Schedules)
	}
	if !reflect.DeepEqual(resumed.Schedule, cold.Schedule) {
		t.Errorf("resumed schedule = %+v, want %+v", resumed.Schedule, cold.Schedule)
	}
	if !reflect.DeepEqual(resumed.Races, cold.Races) {
		t.Errorf("resumed races = %+v, want %+v", resumed.Races, cold.Races)
	}
	if resumed.Stats.Interleavings != cold.Stats.Interleavings {
		t.Errorf("resumed interleavings = %d, want %d", resumed.Stats.Interleavings, cold.Stats.Interleavings)
	}
}

// TestResumeIgnoresForeignCheckpoints covers the fall-back-fresh
// contract: a checkpoint written under the wrong version, for a
// different program, or plain corrupted on disk must be treated exactly
// like an absent one. That includes a version-1 snapshot, whose partial
// phase carried the cross-unit visited-state claims version 2 dropped.
func TestResumeIgnoresForeignCheckpoints(t *testing.T) {
	sc, ok := scenarios.ByName("fig1")
	if !ok {
		t.Fatal("scenario fig1 missing")
	}
	prog := sc.MustProgram()
	opts := LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr()}
	// The search normalizes defaulted limits before deriving the key.
	keyOpts := opts
	keyOpts.MaxInterleavings = DefaultMaxInterleavings
	key := lifsCheckpointKey(prog, keyOpts)

	golden, err := Reproduce(mustMachine(t, prog), opts)
	if err != nil {
		t.Fatalf("golden Reproduce: %v", err)
	}
	initSig := mustMachine(t, prog).StateSignature()

	poison := map[string]func(t *testing.T, store *durable.CheckpointStore){
		"version-1 claims": func(t *testing.T, store *durable.CheckpointStore) {
			payload := fmt.Sprintf(`{"init_sig":%d,"round":0,"next_phase":1,"partial":{"budget":1,"groups_done":1,`+
				`"units":[{"group":0,"probe":true,"choice":-1,"ran":true}],`+
				`"visited":[{"sig":1,"cur":0,"budget":1,"ordinal":0}]}}`, initSig)
			if err := store.Save(key, 1, []byte(payload)); err != nil {
				t.Fatalf("save: %v", err)
			}
		},
		"wrong version": func(t *testing.T, store *durable.CheckpointStore) {
			if err := store.Save(key, lifsCheckpointVersion+7, []byte(`{"round":9}`)); err != nil {
				t.Fatalf("save: %v", err)
			}
		},
		"garbage payload": func(t *testing.T, store *durable.CheckpointStore) {
			if err := store.Save(key, lifsCheckpointVersion, []byte("not json")); err != nil {
				t.Fatalf("save: %v", err)
			}
		},
		"access past the program": func(t *testing.T, store *durable.CheckpointStore) {
			payload, err := json.Marshal(&lifsCheckpoint{InitSig: initSig, Round: 0, NextPhase: 1,
				Accesses: []sched.AccessExport{{Thread: "A", Instr: kir.InstrID(1 << 30), Addr: 1, Write: true}}})
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if err := store.Save(key, lifsCheckpointVersion, payload); err != nil {
				t.Fatalf("save: %v", err)
			}
		},
		"foreign initial state": func(t *testing.T, store *durable.CheckpointStore) {
			payload, err := json.Marshal(&lifsCheckpoint{InitSig: 0xdeadbeef, Round: 1, NextPhase: 2})
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if err := store.Save(key, lifsCheckpointVersion, payload); err != nil {
				t.Fatalf("save: %v", err)
			}
		},
	}
	for name, plant := range poison {
		t.Run(name, func(t *testing.T) {
			store := testCheckpointStore(t)
			plant(t, store)
			rep, err := Reproduce(mustMachine(t, prog), LIFSOptions{
				WantKind:   sc.WantKind,
				WantInstr:  sc.WantInstr(),
				Checkpoint: &CheckpointConfig{Store: store},
			})
			if err != nil {
				t.Fatalf("Reproduce with poisoned checkpoint: %v", err)
			}
			if rep.Stats.Resumed {
				t.Error("search claims to have resumed from an invalid checkpoint")
			}
			if !reflect.DeepEqual(rep.Schedule, golden.Schedule) {
				t.Errorf("schedule = %+v, want %+v", rep.Schedule, golden.Schedule)
			}
			if rep.Stats.Schedules != golden.Stats.Schedules {
				t.Errorf("schedules = %d, want the cold run's %d", rep.Stats.Schedules, golden.Stats.Schedules)
			}
		})
	}
}

// TestAnalysisIgnoresCorruptFlipCheckpoint: an analysis checkpoint whose
// flip run names an instruction outside the program is corrupt. It
// loads as absent, and the analysis runs every flip fresh to the same
// chain, where the intact checkpoint resumes.
func TestAnalysisIgnoresCorruptFlipCheckpoint(t *testing.T) {
	sc, _ := scenarios.ByName("fig1")
	prog := sc.MustProgram()
	store := testCheckpointStore(t)
	var caKey string
	cfg := &CheckpointConfig{Store: store, OnSave: func(key string) {
		if strings.Contains(key, ".ca.") {
			caKey = key
		}
	}}
	diagnose := func() *Diagnosis {
		t.Helper()
		m := mustMachine(t, prog)
		rep, err := Reproduce(m, LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr(), Checkpoint: cfg})
		if err != nil {
			t.Fatal(err)
		}
		d, err := Analyze(m, rep, AnalysisOptions{Checkpoint: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cold := diagnose()
	if caKey == "" || cold.Stats.Schedules == 0 {
		t.Fatalf("the analysis saved no checkpoint (key %q) or ran no flip", caKey)
	}
	if warm := diagnose(); !warm.Stats.Resumed || warm.Stats.Schedules != 0 {
		t.Fatalf("intact checkpoint: resumed=%v schedules=%d, want a resume that runs nothing", warm.Stats.Resumed, warm.Stats.Schedules)
	}
	payload, err := store.Load(caKey, caCheckpointVersion)
	if err != nil {
		t.Fatal(err)
	}
	var ck caCheckpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for i := range ck.Flips {
		if len(ck.Flips[i].Seq) > 0 {
			ck.Flips[i].Seq[0].Instr = kir.InstrID(prog.NumInstrs())
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no checkpointed flip carries a run")
	}
	if payload, err = json.Marshal(&ck); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(caKey, caCheckpointVersion, payload); err != nil {
		t.Fatal(err)
	}
	got := diagnose()
	if got.Stats.Resumed || got.Stats.Schedules != cold.Stats.Schedules {
		t.Errorf("corrupt checkpoint: resumed=%v schedules=%d, want a fresh analysis of %d", got.Stats.Resumed, got.Stats.Schedules, cold.Stats.Schedules)
	}
	if g, w := got.Chain.Format(prog), cold.Chain.Format(prog); g != w {
		t.Errorf("chain %q, want %q", g, w)
	}
}

// TestResumeCheckpointsDeterministic: two identical checkpointed runs
// save identical frontiers, mid-phase cuts included. A partial phase
// holds only ordered unit outcomes, so nothing in it depends on map
// iteration order.
func TestResumeCheckpointsDeterministic(t *testing.T) {
	sc, ok := scenarios.ByName("syz08-j1939-refcount")
	if !ok {
		t.Fatal("scenario syz08-j1939-refcount missing")
	}
	prog := sc.MustProgram()
	saves := func() []string {
		store := testCheckpointStore(t)
		var out []string
		cfg := &CheckpointConfig{Store: store, Every: 2}
		cfg.OnSave = func(key string) {
			payload, err := store.Load(key, lifsCheckpointVersion)
			if err != nil {
				t.Fatalf("load %s: %v", key, err)
			}
			var ck lifsCheckpoint
			if err := json.Unmarshal(payload, &ck); err != nil {
				t.Fatalf("unmarshal %s: %v", key, err)
			}
			if ck.Partial == nil {
				return
			}
			partial, err := json.Marshal(ck.Partial)
			if err != nil {
				t.Fatalf("marshal partial: %v", err)
			}
			out = append(out, string(partial))
		}
		if _, err := Reproduce(mustMachine(t, prog), LIFSOptions{
			WantKind:   sc.WantKind,
			WantInstr:  sc.WantInstr(),
			LeakCheck:  sc.NeedsLeakCheck(),
			Checkpoint: cfg,
		}); err != nil {
			t.Fatalf("Reproduce: %v", err)
		}
		return out
	}
	first, second := saves(), saves()
	if len(first) == 0 {
		t.Fatal("no mid-phase checkpoint was saved")
	}
	if len(first) != len(second) {
		t.Fatalf("runs saved %d and %d partial phases", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("partial save %d differs between identical runs:\n%s\n%s", i, first[i], second[i])
		}
	}
}

// TestStaleTerminalCheckpointFallsBack plants a terminal checkpoint
// whose schedule no longer reproduces the failure (valid envelope,
// matching initial state — the replay itself must catch it). The search
// must delete it and fall back to a fresh search, once.
func TestStaleTerminalCheckpointFallsBack(t *testing.T) {
	sc, ok := scenarios.ByName("fig1")
	if !ok {
		t.Fatal("scenario fig1 missing")
	}
	prog := sc.MustProgram()
	opts := LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr()}

	store := testCheckpointStore(t)
	ckOpts := opts
	ckOpts.Checkpoint = &CheckpointConfig{Store: store}
	golden, err := Reproduce(mustMachine(t, prog), ckOpts)
	if err != nil {
		t.Fatalf("golden Reproduce: %v", err)
	}

	// Rewrite the terminal checkpoint's schedule to the natural serial
	// run, which does not fail. Everything else (version, key, InitSig)
	// stays valid, so only the acceptance check can reject it.
	keyOpts := opts
	keyOpts.MaxInterleavings = DefaultMaxInterleavings
	key := lifsCheckpointKey(prog, keyOpts)
	payload, err := store.Load(key, lifsCheckpointVersion)
	if err != nil {
		t.Fatalf("load terminal checkpoint: %v", err)
	}
	var ck lifsCheckpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		t.Fatalf("unmarshal terminal checkpoint: %v", err)
	}
	if !ck.Done {
		t.Fatalf("expected a terminal checkpoint at %s", key)
	}
	ck.Schedule = &sched.Schedule{Initial: ck.Schedule.Initial, Fallback: ck.Schedule.Fallback}
	payload, err = json.Marshal(&ck)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := store.Save(key, lifsCheckpointVersion, payload); err != nil {
		t.Fatalf("save: %v", err)
	}

	rep, err := Reproduce(mustMachine(t, prog), ckOpts)
	if err != nil {
		t.Fatalf("Reproduce with stale terminal checkpoint: %v", err)
	}
	if rep.Stats.Resumed {
		t.Error("fallback search still reports Resumed")
	}
	if !reflect.DeepEqual(rep.Schedule, golden.Schedule) {
		t.Errorf("schedule = %+v, want %+v", rep.Schedule, golden.Schedule)
	}
	// The fallback rewrote a fresh terminal checkpoint; a third run must
	// replay it in O(1).
	third, err := Reproduce(mustMachine(t, prog), ckOpts)
	if err != nil {
		t.Fatalf("third Reproduce: %v", err)
	}
	if !third.Stats.Resumed || third.Stats.Schedules != 0 {
		t.Errorf("third run: resumed=%t schedules=%d, want a pure terminal replay", third.Stats.Resumed, third.Stats.Schedules)
	}
	if !reflect.DeepEqual(third.Schedule, golden.Schedule) {
		t.Errorf("third schedule = %+v, want %+v", third.Schedule, golden.Schedule)
	}
}

// TestTerminalReplayAcrossScenarios runs every reproducible scenario
// twice against one store and requires the second run to be a zero-
// search terminal replay with identical races and schedule. Scoped to
// the hand-built subset so factory growth does not swell the sweep.
func TestTerminalReplayAcrossScenarios(t *testing.T) {
	for _, sc := range scenarios.HandBuilt() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			prog := sc.MustProgram()
			store := testCheckpointStore(t)
			opts := LIFSOptions{
				WantKind:   sc.WantKind,
				WantInstr:  sc.WantInstr(),
				LeakCheck:  sc.NeedsLeakCheck(),
				Checkpoint: &CheckpointConfig{Store: store},
			}
			cold, err := Reproduce(mustMachine(t, prog), opts)
			if IsNotReproduced(err) {
				t.Skipf("scenario does not reproduce: %v", err)
			}
			if err != nil {
				t.Fatalf("cold Reproduce: %v", err)
			}
			warm, err := Reproduce(mustMachine(t, prog), opts)
			if err != nil {
				t.Fatalf("warm Reproduce: %v", err)
			}
			if !warm.Stats.Resumed || warm.Stats.Schedules != 0 {
				t.Errorf("warm run: resumed=%t schedules=%d, want terminal replay", warm.Stats.Resumed, warm.Stats.Schedules)
			}
			if !reflect.DeepEqual(warm.Schedule, cold.Schedule) {
				t.Errorf("warm schedule = %+v, want %+v", warm.Schedule, cold.Schedule)
			}
			if !reflect.DeepEqual(warm.Races, cold.Races) {
				t.Errorf("warm races = %+v, want %+v", warm.Races, cold.Races)
			}
		})
	}
}
