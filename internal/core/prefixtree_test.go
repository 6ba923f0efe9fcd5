package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aitia/internal/faultinject"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

// prefixPipeline runs the serial Reproduce+Analyze pipeline on a fresh
// machine under the given prefix config and fault plan.
func prefixPipeline(t *testing.T, sc *scenarios.Scenario, cfg PrefixConfig, plan *faultinject.Plan) (*Reproduction, *Diagnosis) {
	t.Helper()
	m := mustMachine(t, sc.MustProgram())
	rep, err := Reproduce(m, LIFSOptions{
		WantKind:  sc.WantKind,
		WantInstr: sc.WantInstr(),
		LeakCheck: sc.NeedsLeakCheck(),
		Prefix:    cfg,
		Fault:     plan,
		Retry:     quickRetry,
	})
	if err != nil {
		if IsNotReproduced(err) {
			t.Skipf("scenario does not reproduce: %v", err)
		}
		t.Fatalf("Reproduce: %v", err)
	}
	d, err := Analyze(m, rep, AnalysisOptions{Prefix: cfg, Fault: plan, Retry: quickRetry})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return rep, d
}

// comparePipelines asserts that two pipeline runs explored the same tree
// and reached the same diagnosis — the budget and fault variants must
// differ only in work, never in results.
func comparePipelines(t *testing.T, sc *scenarios.Scenario, repA, repB *Reproduction, dA, dB *Diagnosis) {
	t.Helper()
	prog := sc.MustProgram()
	if !reflect.DeepEqual(repA.Schedule, repB.Schedule) {
		t.Errorf("schedules differ:\n  a: %v\n  b: %v", repA.Schedule, repB.Schedule)
	}
	if !reflect.DeepEqual(repA.Races, repB.Races) {
		t.Errorf("race sets differ")
	}
	if repA.Stats.Schedules != repB.Stats.Schedules {
		t.Errorf("search schedules differ: %d vs %d", repA.Stats.Schedules, repB.Stats.Schedules)
	}
	if repA.Stats.Interleavings != repB.Stats.Interleavings {
		t.Errorf("interleavings differ: %d vs %d", repA.Stats.Interleavings, repB.Stats.Interleavings)
	}
	if dA.Stats.Schedules != dB.Stats.Schedules {
		t.Errorf("analysis schedules differ: %d vs %d", dA.Stats.Schedules, dB.Stats.Schedules)
	}
	if len(dA.Tested) != len(dB.Tested) {
		t.Fatalf("test-set sizes differ: %d vs %d", len(dA.Tested), len(dB.Tested))
	}
	for i := range dA.Tested {
		if dA.Tested[i].Verdict != dB.Tested[i].Verdict {
			t.Errorf("verdict %d differs: %v vs %v", i, dA.Tested[i].Verdict, dB.Tested[i].Verdict)
		}
		ra, rb := dA.Tested[i].FlipRun, dB.Tested[i].FlipRun
		if (ra == nil) != (rb == nil) {
			t.Errorf("flip run %d present in one pipeline only", i)
		} else if ra != nil && !reflect.DeepEqual(ra.Joined().Seq, rb.Joined().Seq) {
			t.Errorf("flip run %d differs step for step", i)
		}
	}
	if ca, cb := dA.Chain.Format(prog), dB.Chain.Format(prog); ca != cb {
		t.Errorf("chains differ:\n  a: %q\n  b: %q", ca, cb)
	}
}

// pinNothing is a budget only a zero-byte pin fits in. Every machine a
// run uses journals from its initial snapshot on, and every step
// journals at least its thread, so only an initial state pins zero
// bytes and restoring it skips nothing: the pipeline runs without the
// prefix cache's savings.
var pinNothing = PrefixConfig{BudgetBytes: 1}

// fullFlipRuns enforces the whole flip plan of every race d tested with
// a run, from the initial state of a fresh machine and with the
// analysis's run options: the reference the cached flip runs are checked
// against, independent of the prefix cache. On a sequence without
// position stamps PlanFlipCut shares no prefix, so its cut is 0 and its
// suffix is the whole plan. The result is indexed like d.Tested.
func fullFlipRuns(t *testing.T, prog *kir.Program, rep *Reproduction, d *Diagnosis) []*sched.RunResult {
	t.Helper()
	var fallback []string
	for _, td := range prog.Threads {
		fallback = append(fallback, td.Name)
	}
	unstamped := rep.Run.Seq
	unstamped.Steps = slices.Clone(unstamped.Steps)
	for k := range unstamped.Steps {
		unstamped.Steps[k].Step = -1
	}
	m := mustMachine(t, prog)
	init := m.Snapshot()
	runs := make([]*sched.RunResult, len(d.Tested))
	for i, tr := range d.Tested {
		if tr.FlipRun == nil {
			continue
		}
		cut, plan := sched.PlanFlipCut(prog, &unstamped, tr.Race, fallback, sched.FlipOptions{})
		if cut != 0 {
			t.Fatalf("flip %d: an unstamped sequence planned a cut at %d", i, cut)
		}
		m.Restore(init)
		res, err := sched.NewEnforcer(m).Run(plan, sched.Options{})
		if err != nil {
			t.Fatalf("flip %d: full plan: %v", i, err)
		}
		runs[i] = res
	}
	return runs
}

// TestPrefixCacheOnOffIdentical: across the corpus, the prefix cache is a
// pure work optimization — the explored tree, the schedule counts, every
// flip run and the chain are byte-identical under the default budget and
// one that pins nothing (TestFlipRunSharesFailingPrefix checks the flip
// runs against the whole flip plan's). Scoped to the hand-built subset so
// factory growth does not swell the sweep.
func TestPrefixCacheOnOffIdentical(t *testing.T) {
	for _, sc := range scenarios.HandBuilt() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			repOn, dOn := prefixPipeline(t, sc, PrefixConfig{}, nil)
			repOff, dOff := prefixPipeline(t, sc, pinNothing, nil)
			comparePipelines(t, sc, repOn, repOff, dOn, dOff)
			// No pins: nothing pinned, no replay skipped. Hits may be
			// nonzero: restoring a zero-byte pin is a hit that saves
			// nothing.
			for name, st := range map[string][2]uint64{
				"search":   {repOff.Stats.SavedInstrs, repOff.Stats.PinnedBytes},
				"analysis": {dOff.Stats.SavedInstrs, dOff.Stats.PinnedBytes},
			} {
				if st[0] != 0 || st[1] != 0 {
					t.Errorf("%s pin-nothing stats nonzero: saved=%d pinned=%d", name, st[0], st[1])
				}
			}
			if repOn.Stats.PinnedBytes > DefaultPinBudget || dOn.Stats.PinnedBytes > DefaultPinBudget {
				t.Errorf("pinned bytes exceed the default budget: %d / %d",
					repOn.Stats.PinnedBytes, dOn.Stats.PinnedBytes)
			}
		})
	}
}

// TestFlipRunSharesFailingPrefix: with the cache on, every executed flip
// run holds the failing run's first cut records by reference — its Base
// is rep.Run.Seq[:cut] itself, not a copy — and Base followed by its own
// steps is exactly the whole flip plan's run enforced from the initial
// state, enforcement metadata included.
func TestFlipRunSharesFailingPrefix(t *testing.T) {
	flips := 0
	for _, sc := range scenarios.HandBuilt() {
		prog := sc.MustProgram()
		var fallback []string
		for _, td := range prog.Threads {
			fallback = append(fallback, td.Name)
		}
		rep, dOn := prefixPipeline(t, sc, PrefixConfig{}, nil)
		full := fullFlipRuns(t, prog, rep, dOn)
		failSeq := &rep.Run.Seq
		for i, tr := range dOn.Tested {
			if tr.FlipRun == nil {
				continue
			}
			flips++
			cut, _ := sched.PlanFlipCut(prog, failSeq, tr.Race, fallback, sched.FlipOptions{})
			base := &tr.FlipRun.Base
			if base.Len() != cut || (cut > 0 && (&base.Steps[0] != &failSeq.Steps[0] || &base.Accs[0] != &failSeq.Accs[0])) {
				t.Errorf("%s flip %d: Base has %d records, want failing run's first %d shared", sc.Name, i, base.Len(), cut)
			}
			if full[i].Base.Len() != 0 {
				t.Errorf("%s flip %d: the whole plan's run has a Base of %d records", sc.Name, i, full[i].Base.Len())
			}
			if !reflect.DeepEqual(tr.FlipRun.Joined(), full[i]) {
				t.Errorf("%s flip %d (cut %d): Base followed by Seq differs from the whole flip plan's run", sc.Name, i, cut)
			}
		}
	}
	if flips == 0 {
		t.Fatal("no executed flip")
	}
	t.Logf("%d executed flips", flips)
}

// TestPrefixBudgetExhaustionKeepsResults: a 1-byte budget refuses every
// pin, so the pipeline degrades to from-scratch replays — zero pins, zero
// hits, zero saved work — with the exact default-config diagnosis.
func TestPrefixBudgetExhaustionKeepsResults(t *testing.T) {
	sc, _ := scenarios.ByName("syz08-j1939-refcount")
	repDef, dDef := prefixPipeline(t, sc, PrefixConfig{}, nil)
	repTiny, dTiny := prefixPipeline(t, sc, PrefixConfig{BudgetBytes: 1}, nil)
	comparePipelines(t, sc, repDef, repTiny, dDef, dTiny)

	for name, st := range map[string][3]uint64{
		"search":   {repTiny.Stats.SavedInstrs, uint64(repTiny.Stats.PrefixHits), repTiny.Stats.PinnedBytes},
		"analysis": {dTiny.Stats.SavedInstrs, uint64(dTiny.Stats.PrefixHits), dTiny.Stats.PinnedBytes},
	} {
		if st[0] != 0 || st[1] != 0 || st[2] != 0 {
			t.Errorf("%s pinned past an exhausted budget: saved=%d hits=%d pinned=%d", name, st[0], st[1], st[2])
		}
	}
	// Sanity: the default config does exercise the cache on this scenario.
	if repDef.Stats.PrefixHits == 0 || dDef.Stats.PrefixHits == 0 {
		t.Errorf("default config never hit the cache (search=%d analysis=%d hits)",
			repDef.Stats.PrefixHits, dDef.Stats.PrefixHits)
	}
	if dDef.Stats.SavedInstrs == 0 {
		t.Error("default config saved no replay work")
	}
}

// TestPrefixRestoreFaultDegradesToFullReplay: rate-1 prefix-restore
// faults corrupt every pinned node at restore time; the pipeline must
// degrade to from-scratch replays (zero cache hits) and still produce the
// exact fault-free diagnosis — degradation costs work, never correctness.
func TestPrefixRestoreFaultDegradesToFullReplay(t *testing.T) {
	sc, _ := scenarios.ByName("syz08-j1939-refcount")
	repClean, dClean := prefixPipeline(t, sc, PrefixConfig{}, nil)
	plan := faultinject.NewPlan(5, 0).SetRate(faultinject.KindPrefixRestore, 1)
	repFaulted, dFaulted := prefixPipeline(t, sc, PrefixConfig{}, plan)
	comparePipelines(t, sc, repClean, repFaulted, dClean, dFaulted)

	if repFaulted.Stats.PrefixHits != 0 || dFaulted.Stats.PrefixHits != 0 {
		t.Errorf("corrupt pins were still restored: search=%d analysis=%d hits",
			repFaulted.Stats.PrefixHits, dFaulted.Stats.PrefixHits)
	}
	if repFaulted.Stats.SavedInstrs != 0 || dFaulted.Stats.SavedInstrs != 0 {
		t.Errorf("corrupt pins still credited saved work: search=%d analysis=%d",
			repFaulted.Stats.SavedInstrs, dFaulted.Stats.SavedInstrs)
	}
	if st := plan.Stats(); st.Fired[faultinject.KindPrefixRestore] == 0 {
		t.Error("the prefix-restore fault never fired; the degradation path went untested")
	}
}

// TestAnalyzeWarmHandoff: an Analyze handed the machine Reproduce just
// left in the failing state adopts the final replay's pins, so the whole
// failing sequence is cached before the first flip — the analysis replays
// (almost) nothing. A Reset between the stages stales the seed and falls
// back to the cold path with the same diagnosis.
func TestAnalyzeWarmHandoff(t *testing.T) {
	sc, _ := scenarios.ByName("syz08-j1939-refcount")
	prog := sc.MustProgram()
	opts := LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr(), LeakCheck: sc.NeedsLeakCheck()}

	m := mustMachine(t, prog)
	rep, err := Reproduce(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Analyze(m, rep, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}

	m2 := mustMachine(t, prog)
	rep2, err := Reproduce(m2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Reset(); err != nil { // stales the seed pins (generation bump)
		t.Fatal(err)
	}
	cold, err := Analyze(m2, rep2, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if cw, cc := warm.Chain.Format(prog), cold.Chain.Format(prog); cw != cc {
		t.Fatalf("warm and cold chains differ:\n  warm: %q\n  cold: %q", cw, cc)
	}
	if len(warm.Tested) == 0 {
		t.Fatal("expected a non-empty test set")
	}
	if warm.Stats.PrefixHits == 0 {
		t.Error("warm analysis never hit a pinned snapshot")
	}
	if warm.Stats.ReplayedInstrs >= cold.Stats.ReplayedInstrs {
		t.Errorf("warm replay %d >= cold replay %d: the handoff saved nothing",
			warm.Stats.ReplayedInstrs, cold.Stats.ReplayedInstrs)
	}
	// The whole point: with the failing sequence pre-cached, analysis-side
	// replay is far below even one pass over the sequence.
	if seq := uint64(rep.Run.Seq.Len()); warm.Stats.ReplayedInstrs >= seq {
		t.Errorf("warm replay %d >= failing-sequence length %d", warm.Stats.ReplayedInstrs, seq)
	}
}

// TestTraceBufLogDedupes: a trace buffer's access log, cache and all,
// folds to the same map as every access it was handed, logs a repeated
// stream far fewer times than it was handed, and a new unit logs again
// what an earlier unit on the buffer logged.
func TestTraceBufLogDedupes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	threads := []string{"a", "ab", "abc", "b"}
	for _, distinct := range []int{8, 300} {
		var buf traceBuf
		buf.startUnit()
		var raw sched.AccessLog
		for n := 0; n < 5000; n++ {
			k := rng.Intn(distinct)
			s := sched.Site{Thread: threads[k%len(threads)], Instr: kir.InstrID(k % 13)}
			addr, write := uint64(0x100+k%29), k%3 == 0
			raw.Add(s, addr, write)
			buf.logAccess(sched.Logged(buf.log.Intern(s.Thread), s.Instr, addr, write))
		}
		if got, want := buf.log.Export(), raw.Export(); !reflect.DeepEqual(got, want) {
			t.Errorf("%d distinct accesses: log folds to %v, want %v", distinct, got, want)
		}
		if distinct == 8 && len(buf.log.Accs) > 2*distinct {
			t.Errorf("%d distinct accesses logged %d times", distinct, len(buf.log.Accs))
		}
		lo := buf.startUnit()
		a := raw.Accs[0]
		name := raw.Names[a.Thread()]
		buf.logAccess(sched.Logged(buf.log.Intern(name), a.Instr, a.Addr, a.Write()))
		if n := len(buf.log.Accs) - lo; n != 1 {
			t.Errorf("in a new unit, logging a seen access left %d records, want 1", n)
		}
		if got := buf.log.From(lo); got.Names[got.Accs[0].Thread()] != name {
			t.Errorf("the new unit's range names thread %q, want %q", got.Names[got.Accs[0].Thread()], name)
		}
	}
}

// TestTraceBufThreadFollowsNames: a thread ID names different threads in
// different schedules (a spawned thread's ID is its spawn order), so a
// machine's thread resolution follows the name behind the ID: each name
// gets its own log index and its own index in the base, and a new unit
// resolves against its own base.
func TestTraceBufThreadFollowsNames(t *testing.T) {
	base := sched.NewAccessMap()
	base.Record(sched.Site{Thread: "kworker:Y", Instr: 1}, 0x100, true)
	var buf traceBuf
	buf.startUnit()
	x := buf.thread(&kvm.Thread{ID: 2, Name: "kworker:X"}, base)
	y := buf.thread(&kvm.Thread{ID: 2, Name: "kworker:Y"}, base)
	if got := []string{buf.log.Names[x.log], buf.log.Names[y.log]}; got[0] != "kworker:X" || got[1] != "kworker:Y" {
		t.Fatalf("ID 2 resolves in the log to %q, want kworker:X then kworker:Y", got)
	}
	if x.base != -1 || y.base != base.ThreadIndex("kworker:Y") {
		t.Fatalf("base indices %d, %d, want -1, %d", x.base, y.base, base.ThreadIndex("kworker:Y"))
	}
	next := sched.NewAccessMap()
	next.Record(sched.Site{Thread: "A", Instr: 0}, 0x100, true)
	next.Record(sched.Site{Thread: "kworker:X", Instr: 1}, 0x100, true)
	buf.startUnit()
	if got := buf.thread(&kvm.Thread{ID: 2, Name: "kworker:X"}, next); got.base != 1 || got.log != x.log {
		t.Fatalf("in a new unit, kworker:X resolves to log %d, base %d, want log %d, base 1", got.log, got.base, x.log)
	}
}
