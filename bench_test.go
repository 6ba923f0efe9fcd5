// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Run them all with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the real pipeline on the scenario corpus and
// reports the paper's metrics (schedules, interleavings, chain races) via
// b.ReportMetric, so the "shape" columns of Tables 2-3 appear directly in
// the benchmark output.
package aitia_test

import (
	"fmt"
	"math/rand"
	"testing"

	"aitia"
	"aitia/internal/baselines/coopbl"
	"aitia/internal/baselines/kairux"
	"aitia/internal/baselines/muvi"
	"aitia/internal/core"
	"aitia/internal/eval"
	"aitia/internal/fuzz"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

// benchScenario runs the full diagnosis pipeline on one scenario.
func benchScenario(b *testing.B, sc *scenarios.Scenario) {
	b.Helper()
	prog := sc.MustProgram()
	var lifsScheds, caScheds, inter, chain float64
	for i := 0; i < b.N; i++ {
		m, err := kvm.New(prog)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := core.Reproduce(m, core.LIFSOptions{
			WantKind:  sc.WantKind,
			WantInstr: sc.WantInstr(),
			LeakCheck: sc.NeedsLeakCheck(),
		})
		if err != nil {
			b.Fatal(err)
		}
		d, err := core.Analyze(m, rep, core.AnalysisOptions{LeakCheck: sc.NeedsLeakCheck()})
		if err != nil {
			b.Fatal(err)
		}
		lifsScheds = float64(rep.Stats.Schedules)
		caScheds = float64(d.Stats.Schedules)
		inter = float64(rep.Stats.Interleavings)
		chain = float64(d.Chain.Len())
	}
	b.ReportMetric(lifsScheds, "LIFS-scheds")
	b.ReportMetric(caScheds, "CA-scheds")
	b.ReportMetric(inter, "interleavings")
	b.ReportMetric(chain, "chain-races")
}

// BenchmarkTable2CVEs regenerates Table 2: one sub-benchmark per CVE,
// reporting LIFS/CA schedule counts and the interleaving count.
func BenchmarkTable2CVEs(b *testing.B) {
	for _, sc := range scenarios.Table2() {
		b.Run(sc.Title, func(b *testing.B) { benchScenario(b, sc) })
	}
}

// BenchmarkTable3Syzkaller regenerates Table 3: one sub-benchmark per
// Syzkaller bug, reporting the same metrics plus the chain size.
func BenchmarkTable3Syzkaller(b *testing.B) {
	for _, sc := range scenarios.Table3() {
		b.Run(sc.Name, func(b *testing.B) { benchScenario(b, sc) })
	}
}

// BenchmarkTable1Baselines regenerates the Table 1 requirements matrix:
// the three reimplemented prior approaches run against the full Syzkaller
// corpus and their completeness is measured.
func BenchmarkTable1Baselines(b *testing.B) {
	var coopComplete, muviReaches, kairComplete float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunBaselines(scenarios.GroupSyzkaller, 1)
		if err != nil {
			b.Fatal(err)
		}
		coopComplete, muviReaches, kairComplete = 0, 0, 0
		for _, r := range rows {
			if r.CoopBLComplete {
				coopComplete++
			}
			if r.MUVIReaches {
				muviReaches++
			}
			if r.KairuxComplete {
				kairComplete++
			}
		}
	}
	b.ReportMetric(coopComplete, "coopbl-complete")
	b.ReportMetric(muviReaches, "muvi-reaches")
	b.ReportMetric(kairComplete, "kairux-complete")
}

// BenchmarkConciseness regenerates the §5.2 conciseness statistics over
// the Syzkaller corpus: accesses vs. races vs. chain races.
func BenchmarkConciseness(b *testing.B) {
	var c eval.Conciseness
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunGroup(scenarios.GroupSyzkaller)
		if err != nil {
			b.Fatal(err)
		}
		c = eval.Concise(rows)
	}
	b.ReportMetric(c.AvgMemAccesses, "avg-accesses")
	b.ReportMetric(c.AvgRaces, "avg-races")
	b.ReportMetric(c.AvgChainRaces, "avg-chain-races")
}

// BenchmarkFigure1Quickstart regenerates Figure 1's diagnosis through the
// public API.
func BenchmarkFigure1Quickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := aitia.DiagnoseScenario("fig1", aitia.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Chain == "" {
			b.Fatal("empty chain")
		}
	}
}

// BenchmarkFigure4Patterns regenerates the three complex concurrency
// patterns of Figure 4 (kworker, RCU chain, three objects).
func BenchmarkFigure4Patterns(b *testing.B) {
	for _, name := range []string{"fig4a", "fig4b", "fig4c"} {
		sc, _ := scenarios.ByName(name)
		b.Run(name, func(b *testing.B) { benchScenario(b, sc) })
	}
}

// BenchmarkFigure5LIFS regenerates the Figure 5 search tree: the LIFS
// exploration with leaf recording, reporting the leaf and pruning counts.
func BenchmarkFigure5LIFS(b *testing.B) {
	var leaves, pruned float64
	for i := 0; i < b.N; i++ {
		ls, rep, err := eval.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		leaves = float64(len(ls))
		pruned = float64(rep.Stats.Pruned)
	}
	b.ReportMetric(leaves, "search-leaves")
	b.ReportMetric(pruned, "pruned")
}

// BenchmarkFigure6CausalitySteps regenerates the Figure 6 walkthrough:
// Causality Analysis on CVE-2017-15649, reporting the test-set size
// (the four races of the paper plus the planted benign one).
func BenchmarkFigure6CausalitySteps(b *testing.B) {
	sc, _ := scenarios.ByName("cve-2017-15649")
	prog := sc.MustProgram()
	m, err := kvm.New(prog)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.Reproduce(m, core.LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var testSet float64
	for i := 0; i < b.N; i++ {
		d, err := core.Analyze(m, rep, core.AnalysisOptions{})
		if err != nil {
			b.Fatal(err)
		}
		testSet = float64(d.Stats.TestSet)
	}
	b.ReportMetric(testSet, "test-set")
}

// BenchmarkFigure7Ambiguity regenerates the §3.4 nested-race ambiguity
// case.
func BenchmarkFigure7Ambiguity(b *testing.B) {
	sc, _ := scenarios.ByName("fig7")
	benchScenario(b, sc)
}

// BenchmarkFigure9Irqfd regenerates the Figure 9 case study, including the
// Kairux comparison of §5.3.
func BenchmarkFigure9Irqfd(b *testing.B) {
	sc, _ := scenarios.ByName("syz04-kvm-irqfd")
	prog := sc.MustProgram()
	fz, err := fuzz.New(prog, fuzz.Options{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	runs, err := fz.CollectRuns(200)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		m, err := kvm.New(prog)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := core.Reproduce(m, core.LIFSOptions{WantKind: sc.WantKind})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Analyze(m, rep, core.AnalysisOptions{}); err != nil {
			b.Fatal(err)
		}
		if _, err := kairux.Analyze(rep.Run, runs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the four design-choice ablations of DESIGN.md
// (pruning, least-interleaving-first, phantom races, critical-section
// units).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunAblations()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("ablations = %d", len(rows))
		}
	}
}

// BenchmarkReproductionComparison measures LIFS vs random scheduling on
// the hardest bug (#8 CAN, the only 2-interleaving reproduction in the
// corpus), reporting both schedule counts.
func BenchmarkReproductionComparison(b *testing.B) {
	sc, _ := scenarios.ByName("syz08-j1939-refcount")
	prog := sc.MustProgram()
	var lifsN, randN float64
	for i := 0; i < b.N; i++ {
		m, err := kvm.New(prog)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := core.Reproduce(m, core.LIFSOptions{WantKind: sc.WantKind})
		if err != nil {
			b.Fatal(err)
		}
		lifsN = float64(rep.Stats.Schedules)
		fz, err := fuzz.New(prog, fuzz.Options{Seed: int64(i + 1), WantKind: sc.WantKind, MaxRuns: 100000})
		if err != nil {
			b.Fatal(err)
		}
		finding, err := fz.Campaign()
		if err != nil || finding == nil {
			b.Fatalf("random campaign: %v, %v", finding, err)
		}
		randN = float64(finding.Runs)
	}
	b.ReportMetric(lifsN, "LIFS-scheds")
	b.ReportMetric(randN, "random-runs")
}

// BenchmarkLIFSScaling measures how the search grows with the number of
// benign races surrounding one real bug — the situation the paper's
// conciseness argument targets (§2.3: benign races inflate the space a
// diagnosis has to consider). Each extra shared statistics counter adds a
// conflicting instruction pair to every thread.
func BenchmarkLIFSScaling(b *testing.B) {
	build := func(counters int) *kir.Program {
		kb := kir.NewBuilder()
		kb.Var("ptr_valid", 0)
		kb.VarAddrOf("ptr", "obj")
		kb.Global("obj", 1, 42)
		for i := 0; i < counters; i++ {
			kb.Var(fmt.Sprintf("stat%d", i), 1)
		}
		a := kb.Func("fa")
		for i := 0; i < counters; i++ {
			a.RefGet(kir.R9, kir.G(fmt.Sprintf("stat%d", i)))
		}
		a.Store(kir.G("ptr_valid"), kir.Imm(1)).L("A1")
		a.Load(kir.R1, kir.G("ptr")).L("A2")
		a.Load(kir.R2, kir.Ind(kir.R1, 0))
		a.Ret()
		fb := kb.Func("fb")
		for i := 0; i < counters; i++ {
			fb.RefGet(kir.R9, kir.G(fmt.Sprintf("stat%d", i)))
		}
		fb.Load(kir.R1, kir.G("ptr_valid")).L("B1")
		fb.Beq(kir.R(kir.R1), kir.Imm(0), "out")
		fb.Store(kir.G("ptr"), kir.Imm(0)).L("B2")
		fb.At("out").Ret()
		kb.Thread("A", "fa")
		kb.Thread("B", "fb")
		prog, err := kb.Build()
		if err != nil {
			b.Fatal(err)
		}
		return prog
	}
	for _, counters := range []int{0, 2, 4, 8} {
		prog := build(counters)
		b.Run(fmt.Sprintf("benign-races=%d", counters), func(b *testing.B) {
			var scheds float64
			for i := 0; i < b.N; i++ {
				m, err := kvm.New(prog)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := core.Reproduce(m, core.LIFSOptions{
					WantKind: sanitizer.KindNullDeref,
				})
				if err != nil {
					b.Fatal(err)
				}
				scheds = float64(rep.Stats.Schedules)
			}
			b.ReportMetric(scheds, "LIFS-scheds")
		})
	}
}

// BenchmarkLIFSParallel measures the sharded search (LIFSOptions.Workers)
// against the serial one: on a permutation-heavy synthetic stress scenario
// whose top-level branches carry equal subtree mass, and on the hardest
// corpus reproduction (#8 CAN, the only 2-interleaving bug). Parallel and
// serial searches return identical reproductions (core's
// TestParallelReproduceMatchesSerial proves it); this benchmark isolates
// the wall-clock effect of the sharding. Speedup requires spare CPUs — on
// a single-core runner the workers serialize and the numbers bound the
// sharding overhead instead.
func BenchmarkLIFSParallel(b *testing.B) {
	stress, err := eval.ParallelStressProgram(7, 40)
	if err != nil {
		b.Fatal(err)
	}
	syz, _ := scenarios.ByName("syz08-j1939-refcount")
	cases := []struct {
		name string
		prog *kir.Program
		opts core.LIFSOptions
	}{
		{"stress", stress, core.LIFSOptions{WantKind: sanitizer.KindNullDeref, MaxSchedules: 1 << 30}},
		{"syz08-j1939-refcount", syz.MustProgram(), core.LIFSOptions{WantKind: syz.WantKind, WantInstr: syz.WantInstr()}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				var scheds, bytes float64
				for i := 0; i < b.N; i++ {
					m, err := kvm.New(c.prog)
					if err != nil {
						b.Fatal(err)
					}
					opts := c.opts
					opts.Workers = workers
					rep, err := core.Reproduce(m, opts)
					if err != nil {
						b.Fatal(err)
					}
					scheds = float64(rep.Stats.Schedules)
					bytes = float64(rep.Stats.SnapshotBytes)
				}
				b.ReportMetric(scheds, "schedules")
				b.ReportMetric(bytes, "snap-bytes")
			})
		}
	}
}

// BenchmarkSnapshotCoWVsDeep times the copy-on-write Snapshot/Restore
// pair under the searcher's usage pattern — checkpoint, execute a burst
// of steps, revert — and counts its restore work against a deep copy's:
// cow-words is what each Restore rewinds (kvm.Machine.RestoredBytes),
// deep-words what restoring the checkpoint by a full copy would write
// (kvm.Machine.StateBytes). A deep copy's work scales with total state
// width; the journal's only with what the burst touches. The two
// sub-cases span that axis: a small corpus scenario (where the two are
// comparable) and a kernel-scale wide state with 4096 globals (where CoW
// wins by the width ratio).
func BenchmarkSnapshotCoWVsDeep(b *testing.B) {
	sc, _ := scenarios.ByName("syz08-j1939-refcount")
	wide, err := eval.WideStateProgram(4096)
	if err != nil {
		b.Fatal(err)
	}
	const burst = 32
	step := func(m *kvm.Machine) {
		for s := 0; s < burst; s++ {
			if m.Failure() != nil {
				return
			}
			run := m.Runnable()
			if len(run) == 0 {
				return
			}
			if _, err := m.Step(run[0]); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name string
		prog *kir.Program
	}{
		{"syz08-j1939-refcount", sc.MustProgram()},
		{"wide-4096", wide},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, err := kvm.New(c.prog)
			if err != nil {
				b.Fatal(err)
			}
			deep := m.StateBytes() / 8
			restored := m.RestoredBytes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := m.Snapshot()
				step(m)
				m.Restore(snap)
			}
			b.ReportMetric(float64(m.RestoredBytes()-restored)/8/float64(b.N), "cow-words/op")
			b.ReportMetric(float64(deep), "deep-words/op")
		})
	}
}

// --- substrate micro-benchmarks (the simulator itself) ---

// BenchmarkMachineStep measures raw instruction throughput of the kernel
// VM over the whole corpus. One op runs every corpus program once from
// its initial snapshot, always stepping the lowest runnable thread, until
// it fails, finishes, deadlocks or reaches 1000 steps; it reports the
// time per step, the Restore that rewinds each run included (journaling
// is on, as under LIFS).
func BenchmarkMachineStep(b *testing.B) {
	type run struct {
		m    *kvm.Machine
		init *kvm.Snapshot
	}
	var runs []run
	for _, sc := range scenarios.All() {
		m, err := kvm.New(sc.MustProgram())
		if err != nil {
			b.Fatal(err)
		}
		runs = append(runs, run{m, m.Snapshot()})
	}
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			r.m.Restore(r.init)
			for n := 0; n < 1000 && r.m.Failure() == nil; n++ {
				tid := r.m.FirstRunnable()
				if tid == kvm.NoThread {
					break
				}
				if _, err := r.m.Step(tid); err != nil {
					b.Fatal(err)
				}
				steps++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(steps, 1)), "ns/step")
}

// BenchmarkStateSignature hashes the state of every corpus machine once
// per op, after a seeded 30-step random walk from its initial state: the
// hash LIFS takes at every prune check. It reports the time per
// signature.
func BenchmarkStateSignature(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var ms []*kvm.Machine
	for _, sc := range scenarios.All() {
		m, err := kvm.New(sc.MustProgram())
		if err != nil {
			b.Fatal(err)
		}
		for step := 0; step < 30 && m.Failure() == nil; step++ {
			run := m.Runnable()
			if len(run) == 0 {
				break
			}
			if _, err := m.Step(run[rng.Intn(len(run))]); err != nil {
				b.Fatal(err)
			}
		}
		ms = append(ms, m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			sum += m.StateSignature()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ms)), "ns/signature")
	_ = sum
}

// BenchmarkSnapshotRestore measures the VM-revert cost that dominates
// LIFS's depth-first search.
func BenchmarkSnapshotRestore(b *testing.B) {
	sc, _ := scenarios.ByName("syz08-j1939-refcount")
	m, err := kvm.New(sc.MustProgram())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := m.Snapshot()
		m.Restore(snap)
	}
}

// BenchmarkEnforcedRun measures one schedule enforcement (the unit of
// both LIFS and Causality Analysis).
func BenchmarkEnforcedRun(b *testing.B) {
	sc, _ := scenarios.ByName("cve-2017-15649")
	prog := sc.MustProgram()
	m, err := kvm.New(prog)
	if err != nil {
		b.Fatal(err)
	}
	init := m.Snapshot()
	enf := sched.NewEnforcer(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Restore(init)
		if _, err := enf.Run(sched.Serial("setsockopt", "bind"), sched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRaceExtraction measures test-set construction as the
// pipeline makes it: sched.Races over the failing run of every corpus
// scenario, with the search's access knowledge for the phantom races. One
// iteration is one pass over the corpus; races/op counts the races a
// pass extracts.
func BenchmarkRaceExtraction(b *testing.B) {
	var reps []*core.Reproduction
	races := 0
	for _, sc := range scenarios.All() {
		m, err := kvm.New(sc.MustProgram())
		if err != nil {
			b.Fatal(err)
		}
		rep, err := core.Reproduce(m, core.LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr(), LeakCheck: sc.NeedsLeakCheck()})
		if err != nil {
			b.Fatalf("%s: %v", sc.Name, err)
		}
		reps = append(reps, rep)
		races += len(rep.Races)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rep := range reps {
			sched.Races(rep.Run, rep.Accesses)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reps))/1e3, "us/run")
	b.ReportMetric(float64(races), "races/op")
}

// BenchmarkAnalyze measures one cold Causality Analysis: every flip test
// of a reproduction, run on a machine other than the one that reproduced
// it, so no prefix snapshot carries over from the search.
func BenchmarkAnalyze(b *testing.B) {
	sc, _ := scenarios.ByName("cve-2017-15649")
	prog := sc.MustProgram()
	m, err := kvm.New(prog)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.Reproduce(m, core.LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr()})
	if err != nil {
		b.Fatal(err)
	}
	am, err := kvm.New(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(am, rep, core.AnalysisOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiagnoseCorpus runs one serial DiagnoseScenario of every
// corpus scenario per iteration — the corpus workload's loop — and
// reports allocations and the time per diagnosis, so a CPU profile of
// the diagnosis pipeline is one -cpuprofile away:
//
//	go test -bench=DiagnoseCorpus -run='^$' -cpuprofile cpu.out .
func BenchmarkDiagnoseCorpus(b *testing.B) {
	all := scenarios.All()
	opts := aitia.Options{Workers: 1, LIFSWorkers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, sc := range all {
			if _, err := aitia.DiagnoseScenario(sc.Name, opts); err != nil {
				b.Fatalf("%s: %v", sc.Name, err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(all)), "us/diagnosis")
}

// BenchmarkParseHash assembles every corpus scenario's kasm text and
// hashes the program per iteration: what aitia-serve does to admit a
// submitted program before anything is queued. It reports the time per
// program; allocations per op cover the whole corpus.
func BenchmarkParseHash(b *testing.B) {
	var srcs []string
	for _, sc := range scenarios.All() {
		srcs = append(srcs, kasm.Disassemble(sc.MustProgram()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			prog, err := kasm.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			_ = prog.Hash()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(srcs)), "us/program")
	b.ReportMetric(float64(len(srcs)), "programs/op")
}

// BenchmarkPlanFlipCut plans one flip of every race of every corpus
// scenario's failing run per iteration, as Causality Analysis does before
// each flip test, and reports the planning time and allocations per plan.
// Plans name the flipped order by positions of the failing run, so they
// copy no step record.
func BenchmarkPlanFlipCut(b *testing.B) {
	type flip struct {
		prog     *kir.Program
		seq      *sched.Trace
		race     sched.Race
		fallback []string
	}
	var flips []flip
	for _, sc := range scenarios.All() {
		prog := sc.MustProgram()
		m, err := kvm.New(prog)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := core.Reproduce(m, core.LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr(), LeakCheck: sc.NeedsLeakCheck()})
		if err != nil {
			b.Fatalf("%s: %v", sc.Name, err)
		}
		var fallback []string
		for _, td := range prog.Threads {
			fallback = append(fallback, td.Name)
		}
		for _, r := range rep.Races {
			flips = append(flips, flip{prog: prog, seq: &rep.Run.Seq, race: r, fallback: fallback})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range flips {
			sched.PlanFlipCut(f.prog, f.seq, f.race, f.fallback, sched.FlipOptions{})
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(flips)), "ns/plan")
	b.ReportMetric(float64(len(flips)), "plans/op")
}

// BenchmarkFuzzerRun measures the bug finder's per-run cost.
func BenchmarkFuzzerRun(b *testing.B) {
	sc, _ := scenarios.ByName("fig5")
	fz, err := fuzz.New(sc.MustProgram(), fuzz.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fz.CollectRuns(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMUVIMining measures correlation mining over a 400-run corpus.
func BenchmarkMUVIMining(b *testing.B) {
	sc, _ := scenarios.ByName("syz03-l2tp-uaf")
	corpusProg, err := sc.CorpusProgram()
	if err != nil {
		b.Fatal(err)
	}
	fz, err := fuzz.New(corpusProg, fuzz.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	runs, err := fz.CollectRuns(eval.CorpusRuns)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		muvi.Mine(runs, muvi.Options{})
	}
}

// BenchmarkCoopBLRanking measures pattern extraction and ranking over a
// 400-run corpus.
func BenchmarkCoopBLRanking(b *testing.B) {
	sc, _ := scenarios.ByName("syz05-rxrpc-local")
	fz, err := fuzz.New(sc.MustProgram(), fuzz.Options{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	runs, err := fz.CollectRuns(eval.CorpusRuns)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coopbl.Analyze(runs); err != nil {
			b.Fatal(err)
		}
	}
}
