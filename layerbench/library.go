package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"aitia"
	"aitia/internal/core"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/obs"
	"aitia/internal/sanitizer"
	"aitia/internal/scenarios"
)

// corpus is the closed-loop library workload: one client diagnosing
// every scenario in a seed-shuffled order, over and over, through
// aitia.DiagnoseScenario with serial LIFS and analysis.
type corpus struct {
	items []item
	progs []*kir.Program // each item's program, for the traced path and micro-loops
	want  []string       // each item's golden chain
	ref   []counts       // each item's serial reference counts
	flags []string       // failed self-checks
}

// counts are the machine-portable counts of one serial diagnosis.
// Schedules, flips and instructions must repeat exactly across runs of
// the same program. Heap allocations repeat only to within
// mallocTolerance: the Go runtime seeds map hashing per map, so map
// growth — and with it the allocation count — varies by a few
// allocations from run to run.
type counts struct {
	Schedules int
	Flips     int
	Instrs    uint64
	Mallocs   uint64
}

// mallocTolerance is the relative allocation-count difference two runs
// of the same serial diagnosis may show (seen: under 0.5%).
const mallocTolerance = 0.02

// same reports whether c repeats ref: exactly for the search and
// analysis counts, within mallocTolerance for allocations.
func (c counts) same(ref counts) bool {
	d := math.Abs(float64(c.Mallocs) - float64(ref.Mallocs))
	return c.Schedules == ref.Schedules && c.Flips == ref.Flips && c.Instrs == ref.Instrs &&
		d <= mallocTolerance*float64(ref.Mallocs)
}

// corpusLimitMS is corpus's verdict-time limit of slo_met_frac: about
// two and a half times its p99 at the reference host speed (12-13 ms).
// It is a coarse guard: the share within it moves only when the tail
// grows a lot.
const corpusLimitMS = 30.0

// flag records a failed self-check.
func (w *corpus) flag(format string, args ...any) {
	w.flags = append(w.flags, fmt.Sprintf(format, args...))
}

// diagnose runs item k through the public API, serially.
func (w *corpus) diagnose(k int) (*aitia.Result, error) {
	return aitia.DiagnoseScenario(w.items[k].Scenario, aitia.Options{Workers: 1, LIFSWorkers: 1})
}

// setup generates the items and makes one serial reference diagnosis
// of each, checking its chain against the golden one and recording its
// exact counts.
func (w *corpus) setup(seed int64) error {
	w.items = corpusItems(seed)
	n := len(w.items)
	w.progs = make([]*kir.Program, n)
	w.want = make([]string, n)
	w.ref = make([]counts, n)
	for k := range w.items {
		it := &w.items[k]
		sc, _ := scenarios.ByName(it.Scenario)
		it.FailureKind, it.FailureLabel, it.LeakCheck = sc.WantKind.String(), sc.WantLabel, sc.NeedsLeakCheck()
		want, ok := scenarios.GoldenChains[it.Scenario]
		if !ok {
			return fmt.Errorf("%s: no golden chain", it.Scenario)
		}
		w.want[k] = want
		var err error
		if w.progs[k], err = sc.Program(); err != nil {
			return fmt.Errorf("%s: %w", it.Name, err)
		}
	}
	for k, it := range w.items {
		a0 := mallocs()
		res, err := w.diagnose(k)
		allocs := mallocs() - a0
		if err != nil {
			return fmt.Errorf("%s: reference diagnosis: %w", it.Name, err)
		}
		if res.Chain != w.want[k] {
			return fmt.Errorf("%s: reference chain %q, golden %q", it.Name, res.Chain, w.want[k])
		}
		w.ref[k] = counts{res.LIFSSchedules, res.FlipsExecuted, res.ExecutedInstrs, allocs}
	}
	return nil
}

// setupRepeated runs setup reps times, calling after between the timed
// passes, checks that every item's exact counts repeat across the passes
// and against the committed baselines, and returns the median setup time
// in seconds.
func (w *corpus) setupRepeated(seed int64, reps int, after func()) (float64, error) {
	var times []float64
	var first []counts
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		after()
		if first == nil {
			first = w.ref
			continue
		}
		for k, c := range w.ref {
			if !c.same(first[k]) {
				w.flag("%s: serial counts differ across setup passes: %+v then %+v", w.items[k].Name, first[k], c)
			}
		}
	}
	return median(times), w.checkBaselines()
}

// baselines are the committed exact counts the benchmark re-derives.
type baselines struct {
	ColdFlips   int // BENCH_flips.json cold_flips_total
	Syz08Serial int // BENCH_lifs.json syz08-j1939-refcount schedules, 1 worker
}

const syz08 = "syz08-j1939-refcount"

// loadBaselines reads the committed count artifacts from the checkout.
func loadBaselines() (baselines, error) {
	var b baselines
	var flips struct {
		ColdFlips int `json:"cold_flips_total"`
	}
	var lifs struct {
		Parallel []struct {
			Scenario  string `json:"scenario"`
			Workers   int    `json:"workers"`
			Schedules int    `json:"schedules"`
		} `json:"parallel"`
	}
	for path, v := range map[string]any{"BENCH_flips.json": &flips, "BENCH_lifs.json": &lifs} {
		data, err := os.ReadFile(path)
		if err != nil {
			return b, err
		}
		if err := json.Unmarshal(data, v); err != nil {
			return b, fmt.Errorf("%s: %w", path, err)
		}
	}
	b.ColdFlips = flips.ColdFlips
	for _, r := range lifs.Parallel {
		if r.Scenario == syz08 && r.Workers == 1 {
			b.Syz08Serial = r.Schedules
		}
	}
	if b.ColdFlips == 0 || b.Syz08Serial == 0 {
		return b, fmt.Errorf("baseline counts missing from BENCH_flips.json / BENCH_lifs.json")
	}
	return b, nil
}

// checkBaselines compares the serial reference counts with the committed
// artifacts: syz08's schedule count, and the cold flips summed over the
// hand-built scenarios. A mismatch means the benchmark is measuring a
// different program than the artifacts describe.
func (w *corpus) checkBaselines() error {
	b, err := loadBaselines()
	if err != nil {
		return err
	}
	handBuilt := make(map[string]bool)
	for _, sc := range scenarios.HandBuilt() {
		handBuilt[sc.Name] = true
	}
	flips, seen := 0, 0
	for k, it := range w.items {
		if handBuilt[it.Scenario] {
			flips += w.ref[k].Flips
			seen++
		}
		if it.Scenario == syz08 && w.ref[k].Schedules != b.Syz08Serial {
			w.flag("%s: %d serial LIFS schedules, BENCH_lifs.json records %d", syz08, w.ref[k].Schedules, b.Syz08Serial)
		}
	}
	if flips != b.ColdFlips {
		w.flag("corpus: %d cold flips over the %d hand-built scenarios, BENCH_flips.json records %d", flips, seen, b.ColdFlips)
	}
	return nil
}

// verdict checks one diagnosis: no error, the golden chain, not
// partial, and the reference's exact counts.
func (w *corpus) verdict(k int, res *aitia.Result, err error) bool {
	if err != nil {
		w.flag("%s: %v", w.items[k].Name, err)
		return false
	}
	if res.Chain != w.want[k] || res.Partial {
		w.flag("%s: chain %q, want %q", w.items[k].Name, res.Chain, w.want[k])
		return false
	}
	ref := w.ref[k]
	got := counts{res.LIFSSchedules, res.FlipsExecuted, res.ExecutedInstrs, ref.Mallocs}
	if !got.same(ref) {
		w.flag("%s: counts %+v, reference %+v", w.items[k].Name, got, ref)
		return false
	}
	return true
}

// measure is the end-to-end run: a closed loop over the items for the
// given duration, tracing off, timing calibPerPass calibration samples
// after every pass over the items (outside the measured CPU time).
func (w *corpus) measure(seconds float64, o *outcome) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var lats []float64
	var cpu int64
	start := time.Now()
	dur := time.Duration(seconds * float64(time.Second))
	cpu0 := cpuTime()
	for i := 0; time.Since(start) < dur; i++ {
		k := i % len(w.items)
		if k == 0 && i > 0 {
			cpu += cpuTime() - cpu0
			o.host.sample(calibPerPass)
			cpu0 = cpuTime()
		}
		t0 := time.Now()
		res, err := w.diagnose(k)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		ok := w.verdict(k, res, err)
		o.attempt(ok)
		if ok {
			lats = append(lats, ms)
		}
	}
	cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	o.host.sample(calibPerPass)
	o.latencies(lats, corpusLimitMS)
	o.set("cpu_ms_per_verdict", float64(cpu)/1e6/float64(len(lats)))
	o.set("alloc_mb_per_diagnosis", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(lats))/1e6)
}

// sample is one traced diagnosis: the benchmark-side spans around each
// public call (nanoseconds) and the counts the program exported.
type sample struct {
	root, newKVM, reproduce, analyze, result int64
	search                                   core.SearchStats
	analysis                                 core.AnalysisStats
	chainRaces                               int
}

// maxTraceEvents caps the spans kept in memory for the Chrome export.
const maxTraceEvents = 200000

// tracedDiagnose runs item k as the same call sequence aitia.Diagnose
// makes — kvm.New, core.Reproduce, core.Analyze, aitia.FromInternal —
// with the program's tracer on and a benchmark span around each call.
func (w *corpus) tracedDiagnose(k int, tr *obs.Tracer) (*sample, *core.Reproduction, error) {
	it, prog := w.items[k], w.progs[k]
	lo := core.LIFSOptions{LeakCheck: it.LeakCheck, WantInstr: kir.NoInstr, Workers: 1, Tracer: tr}
	if kind, ok := sanitizer.KindByName(it.FailureKind); ok {
		lo.WantKind = kind
	}
	if in, ok := prog.ByLabel(it.FailureLabel); ok && it.FailureLabel != "" {
		lo.WantInstr = in.ID
	}
	var s sample
	span := func(name string, into *int64, call func() error) error {
		t0 := tr.Now()
		err := call()
		d := tr.Now() - t0
		tr.Emit(obs.Event{Cat: "bench", Name: name, Track: int64(k), Start: t0, Dur: d})
		*into = d.Nanoseconds()
		return err
	}
	var m *kvm.Machine
	var rep *core.Reproduction
	var d *core.Diagnosis
	var res *aitia.Result
	err := span("diagnose", &s.root, func() error {
		if err := span("kvm.New", &s.newKVM, func() (err error) { m, err = kvm.New(prog); return }); err != nil {
			return err
		}
		if err := span("core.Reproduce", &s.reproduce, func() (err error) { rep, err = core.Reproduce(m, lo); return }); err != nil {
			return err
		}
		ao := core.AnalysisOptions{LeakCheck: it.LeakCheck, Workers: 1, Tracer: tr}
		if err := span("core.Analyze", &s.analyze, func() (err error) { d, err = core.Analyze(m, rep, ao); return }); err != nil {
			return err
		}
		return span("aitia.FromInternal", &s.result, func() error { res = aitia.FromInternal(prog, rep, d); return nil })
	})
	if err != nil {
		return nil, nil, err
	}
	if res.Chain != w.want[k] {
		return nil, nil, fmt.Errorf("traced chain %q, want %q", res.Chain, w.want[k])
	}
	s.search, s.analysis, s.chainRaces = rep.Stats, d.Stats, len(d.Chain.Races())
	return &s, rep, nil
}

// traced is the traced run: untraced and traced passes over the items
// alternate (the difference is the tracing overhead), then the
// micro-loops measure unit costs on the same programs, and the spans are
// written out as a Chrome trace.
func (w *corpus) traced(seconds float64, tracePath string, o *outcome) error {
	run := obs.New()
	var samples []*sample
	replays := make([]replay, len(w.items))
	var untracedNS, tracedNS int64
	var untracedPasses, tracedPasses int
	kept := 0
	start := time.Now()
	dur := time.Duration(seconds * float64(time.Second))
	for cycle := 0; cycle < 2 || time.Since(start) < dur; cycle++ {
		t0 := time.Now()
		for k := range w.items {
			if cycle%2 == 0 {
				res, err := w.diagnose(k)
				o.attempt(w.verdict(k, res, err))
				continue
			}
			child := obs.New()
			s, rep, err := w.tracedDiagnose(k, child)
			o.attempt(err == nil)
			if err != nil {
				w.flag("%s: traced: %v", w.items[k].Name, err)
				continue
			}
			samples = append(samples, s)
			if replays[k].rep == nil {
				replays[k] = replay{prog: w.progs[k], leakCheck: w.items[k].LeakCheck, rep: rep}
			}
			if kept < maxTraceEvents {
				kept += len(child.Events())
				run.Adopt(child)
			}
		}
		if cycle%2 == 0 {
			untracedNS += time.Since(t0).Nanoseconds()
			untracedPasses++
		} else {
			tracedNS += time.Since(t0).Nanoseconds()
			tracedPasses++
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if len(samples) == 0 {
		return fmt.Errorf("corpus: no traced diagnosis succeeded")
	}
	for _, r := range replays {
		if r.rep == nil {
			return fmt.Errorf("corpus: an item never completed a traced diagnosis")
		}
	}

	var srcs []string
	for _, p := range w.progs {
		srcs = append(srcs, kasm.Disassemble(p))
	}
	parseUS, err := microKasm(srcs)
	if err != nil {
		return err
	}
	kc, err := microKVM(w.progs)
	if err != nil {
		return err
	}
	sc, err := microSched(replays)
	if err != nil {
		return err
	}
	o.set("kasm.parse_us", parseUS)
	setKVMSched(o, kc, sc)
	// Time per pass over the same items, untraced against traced.
	o.set("obs.overhead_frac", 1-(float64(untracedNS)/float64(untracedPasses))/(float64(tracedNS)/float64(tracedPasses)))
	o.set("runtime.gc_cpu_frac", ms.GCCPUFraction)

	// Per-diagnosis means of the traced samples, and the ledger. LIFS
	// schedules its own steps (its explorer drives kvm.Step directly), so
	// its instructions cost kvm.step_ns; flip tests run under the
	// enforcer, so theirs cost sched.step_ns.
	var agg struct {
		lifs, ca, lifsExec                                    float64
		schedules, pruned, prefixLIFS, instrsLIFS, replayLIFS float64
		snapshot, flips, skipped, caRuns, prefixCA            float64
		chain, testSet, instrs                                float64
	}
	l := &ledger{Verdicts: len(samples)}
	for _, s := range samples {
		lifsExec := float64(s.search.ExecutedInstrs) * kc.StepNS
		caExec := float64(s.analysis.ExecutedInstrs) * sc.StepNS
		l.Total += float64(s.root)
		l.add("kvm.new", float64(s.newKVM))
		l.add("lifs.kvm_steps", lifsExec)
		l.add("lifs.residual", float64(s.reproduce)-lifsExec)
		l.add("ca.enforced_steps", caExec)
		l.add("ca.residual", float64(s.analyze)-caExec)
		l.add("aitia.result", float64(s.result))
		agg.lifs += float64(s.reproduce)
		agg.ca += float64(s.analyze)
		agg.lifsExec += lifsExec
		agg.schedules += float64(s.search.Schedules)
		agg.pruned += float64(s.search.Pruned)
		agg.prefixLIFS += float64(s.search.PrefixHits)
		agg.instrsLIFS += float64(s.search.ExecutedInstrs)
		agg.replayLIFS += float64(s.search.ReplayedInstrs)
		agg.snapshot += float64(s.search.SnapshotBytes)
		agg.flips += float64(s.analysis.FlipsExecuted)
		agg.skipped += float64(s.analysis.FlipsSkipped)
		agg.caRuns += float64(s.analysis.Schedules)
		agg.prefixCA += float64(s.analysis.PrefixHits)
		agg.chain += float64(s.chainRaces)
		agg.testSet += float64(s.analysis.TestSet)
		agg.instrs += float64(s.search.ExecutedInstrs + s.analysis.ExecutedInstrs)
	}
	n := float64(len(samples))
	o.set("kvm.instrs_per_diagnosis", agg.instrs/n)
	o.set("lifs.ms", agg.lifs/n/1e6)
	o.set("lifs.schedules", agg.schedules/n)
	o.set("lifs.us_per_schedule", ratio(agg.lifs/1e3, agg.schedules))
	o.set("lifs.pruned_frac", ratio(agg.pruned, agg.pruned+agg.schedules))
	o.set("lifs.replayed_frac", ratio(agg.replayLIFS, agg.instrsLIFS))
	o.set("lifs.prefix_hit_frac", ratio(agg.prefixLIFS, agg.schedules))
	o.set("lifs.snapshot_kb", agg.snapshot/n/1024)
	o.set("lifs.attributed_frac", ratio(agg.lifsExec, agg.lifs))
	o.set("lifs.residual_ms", (agg.lifs-agg.lifsExec)/n/1e6)
	o.set("ca.ms", agg.ca/n/1e6)
	o.set("ca.flips_executed", agg.flips/n)
	o.set("ca.flips_skipped", agg.skipped/n)
	o.set("ca.us_per_flip", ratio(agg.ca/1e3, agg.flips))
	o.set("ca.root_cause_frac", ratio(agg.chain, agg.testSet))
	o.set("ca.prefix_hit_frac", ratio(agg.prefixCA, agg.caRuns))
	o.ledger = l

	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return err
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	return run.WriteChrome(f)
}

// setKVMSched records the interpreter and enforcer unit costs.
func setKVMSched(o *outcome, kc kvmCosts, sc schedCosts) {
	o.set("kvm.new_us", kc.NewUS)
	o.set("kvm.step_ns", kc.StepNS)
	o.set("kvm.step_allocs", kc.StepAllocs)
	o.set("kvm.restore_ns", kc.RestoreNS)
	o.set("sched.run_us", sc.RunUS)
	o.set("sched.step_ns", sc.StepNS)
	o.set("sched.overhead_ns", sc.StepNS-kc.StepNS)
	o.set("sched.run_allocs", sc.RunAllocs)
	o.set("sched.races_us", sc.RacesUS)
	o.set("sched.races_per_run", sc.RacesPerRun)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
