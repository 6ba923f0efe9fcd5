// Command aitia-bench regenerates the paper's evaluation artifacts from
// the scenario corpus — Table 1 (requirements matrix), Table 2 (CVE
// diagnoses), Table 3 (Syzkaller-bug diagnoses), the §5.2 conciseness
// statistics, the baseline comparison and the Figure 5 search tree — and
// runs the repository's CI gates. Every artifact and gate is one entry of
// the modes table below.
//
// Usage:
//
//	aitia-bench -all
//	aitia-bench -table 2
//	aitia-bench -conciseness -baselines
//	aitia-bench -check-chains -corpus generated
//	aitia-bench -faults -seed 2 -artifacts artifacts
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"aitia/internal/core"
	"aitia/internal/eval"
	"aitia/internal/factory"
	"aitia/internal/faultinject"
	"aitia/internal/ingest"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/manager"
	"aitia/internal/obs"
	"aitia/internal/prior"
	"aitia/internal/report"
	"aitia/internal/sanitizer"
	"aitia/internal/scenarios"
)

// A mode is one artifact or gate, declared once: the flag that selects
// it, the corpus it runs by default, whether the no-flag default (-all)
// includes it, and what it runs.
type mode struct {
	name  string // the selecting flag, and the mode's -artifacts subdirectory
	table int    // for a paper table: selected by -table <table> instead of its own flag
	value bool   // the flag takes a value (named in backquotes in usage); the mode runs when it is set
	usage string
	// corpus is the default -corpus subset: handbuilt for the perf and
	// resilience gates, so corpus growth never shifts their committed
	// baselines; all for the correctness gates, so every emitted scenario
	// is held to its pinned ground truth. Empty for a mode that runs no
	// corpus.
	corpus string
	out    bool // writes its artifact to -out
	inAll  bool
	run    func(*job) error
}

// modes lists every artifact and gate in the order they run.
var modes = []mode{
	{name: "table2", table: 2, inAll: true, run: printTable2},
	{name: "table3", table: 3, inAll: true, run: printTable3},
	{name: "conciseness", usage: "regenerate the §5.2 conciseness statistics", inAll: true, run: printConciseness},
	{name: "baselines", usage: "regenerate the baseline comparison (§5.2/§5.3)", inAll: true, run: printBaselines},
	{name: "table1", table: 1, inAll: true, run: printTable1},
	{name: "figure5", usage: "regenerate the Figure 5 search tree", inAll: true, run: printFigure5},
	{name: "ablations", usage: "run the design-choice ablations", inAll: true, run: printAblations},
	{name: "reproduction", usage: "compare LIFS vs random scheduling for reproduction cost", inAll: true, run: printReproduction},
	{name: "chains", usage: "print every scenario's causality chain", run: printChains},
	{name: "lifs", corpus: "handbuilt", out: true, run: artifact(measureLIFS, compareLIFS),
		usage: "run the LIFS performance artifact (parallel search + snapshot strategy)"},
	{name: "flips", corpus: "handbuilt", out: true, run: artifact(measureFlips, compareFlips),
		usage: "run the learned flip-ordering artifact: diagnose the corpus cold (no prior) and warm (prior fed by the cold pass), comparing flip-test counts, then diagnose every scenario of the whole corpus warm under a prior fed by all the others (leave-one-out)"},
	{name: "check-chains", corpus: "all", run: checkChains,
		usage: "re-diagnose the corpus and fail unless every chain matches the golden set (the CI corpus gate)"},
	{name: "check-reports", corpus: "all", run: checkReports,
		usage: "report-corpus gate: synthesize each scenario's crash report, re-diagnose from the report alone, and fail unless the chain is golden and the seeded search runs strictly fewer schedules than the blind baseline"},
	{name: "check-matrix", corpus: "all", run: checkMatrix,
		usage: fmt.Sprintf("bug-class coverage gate: classify the corpus into the failure-class × interleaving-structure matrix and fail unless every failure class keeps at least %d representatives", matrixMin)},
	{name: "faults", corpus: "handbuilt", run: runChaos,
		usage: "chaos gate: re-diagnose the corpus under deterministic fault injection (seeded by -seed) and fail unless serial and 8-worker runs agree and every chain is golden or Partial with a machine-readable reason"},
	{name: "fleet", corpus: "handbuilt", run: runFleet,
		usage: "fleet chaos gate: diagnose the corpus on a 3-node in-process fleet under seeded lease-expiry, handoff-drop and node-death faults, plus a coordinator-partition and a dead-owner handoff case, and fail unless every chain is byte-identical to the serial run"},
	{name: "crash-resume", run: runCrashResume,
		usage: "crash-recovery gate, in-process half: interrupt checkpointed diagnoses mid-search and mid-analysis and fail unless they resume to the golden diagnosis with strictly fewer schedules"},
	{name: "kill-recover", value: true, corpus: "handbuilt", run: runKillRecover,
		usage: "crash-recovery gate, process half: spawn the aitia-serve binary at this `path` with a durable data dir, SIGKILL it mid-diagnosis, restart it, and fail unless every submitted job recovers to its golden chain"},
	{name: "check-lifs", value: true, corpus: "handbuilt", out: true, run: artifact(measureLIFS, compareLIFS),
		usage: "run the -lifs artifact and fail if schedule counts or speedups regress more than 25%, or a replay row or snapshot word count differs, against the committed baseline JSON at this `path`"},
	{name: "check-flips", value: true, corpus: "handbuilt", out: true, run: artifact(measureFlips, compareFlips),
		usage: "flip-regression gate: run the -flips artifact and fail unless every warm chain, same-corpus and leave-one-out, is byte-identical to cold and every flip count equals the committed baseline JSON at this `path`"},
	{name: "trace", value: true, run: writeTrace,
		usage: "write an execution trace of diagnosing -trace-scenario as Chrome trace-event JSON to this `path`"},
}

// The fault rates and the coverage floor the gates hold the corpus to.
const (
	chaosRate = 0.1  // -faults: per-decision fault probability
	fleetRate = 0.08 // -fleet: per-decision fleet fault probability; node death fires at a quarter of it
	matrixMin = 3    // -check-matrix: minimum representatives per failure class
)

// config is a parsed command line: the shared options and the selected
// modes, in table order.
type config struct {
	seed          int64
	out           string
	artifacts     string
	traceScenario string
	traceWorkers  int
	jobs          []*job

	baselineRows []eval.BaselineRow // computed once for -baselines and -table 1
}

// A job is one selected mode with its inputs resolved.
type job struct {
	*mode
	cfg    *config
	arg    string                // the flag's value, for a mode that takes one
	list   []*scenarios.Scenario // the -corpus subset, for a mode that runs one
	corpus string                // the subset's name
}

var errUsage = errors.New("usage")

// parse reads the command line. Usage errors are printed to stderr with
// the flag summary and returned as errUsage (or flag.ErrHelp for -h).
func parse(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("aitia-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	all := fs.Bool("all", false, "regenerate every artifact (the default when no mode is selected)")
	table := fs.Int("table", 0, "regenerate one table (1, 2 or 3)")
	corpus := fs.String("corpus", "", "scenario subset for the corpus modes (all, handbuilt, generated, or a group name); empty picks each mode's default — handbuilt for the perf and resilience gates, all for the correctness gates")
	fs.Int64Var(&c.seed, "seed", 1, "seed for the baselines' execution corpus and the chaos and fleet fault plans")
	fs.StringVar(&c.out, "out", "", "with one of -lifs, -flips, -check-lifs or -check-flips: also write the artifact as JSON to this `path`")
	fs.StringVar(&c.artifacts, "artifacts", "", "write each failing gate's postmortem under `DIR`/<mode>/; -kill-recover uses DIR/kill-recover as its data dir (a temp dir when empty)")
	fs.StringVar(&c.traceScenario, "trace-scenario", "cve-2017-15649", "scenario to diagnose for -trace")
	fs.IntVar(&c.traceWorkers, "trace-workers", runtime.GOMAXPROCS(0), "worker count for the -trace diagnosis")
	on := make([]bool, len(modes))
	vals := make([]string, len(modes))
	for i, m := range modes {
		switch {
		case m.table != 0:
		case m.value:
			fs.StringVar(&vals[i], m.name, "", m.usage)
		default:
			fs.BoolVar(&on[i], m.name, false, m.usage)
		}
	}
	usage := func(format string, args ...any) error {
		fmt.Fprintf(stderr, "aitia-bench: "+format+"\n", args...)
		fs.Usage()
		return errUsage
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, errUsage
	}
	if fs.NArg() > 0 {
		return nil, usage("unexpected argument %q (every mode is a -flag)", fs.Arg(0))
	}

	tableOK := *table == 0
	for i, m := range modes {
		switch {
		case m.table != 0:
			on[i] = m.table == *table
			tableOK = tableOK || on[i]
		case m.value:
			on[i] = vals[i] != ""
		}
	}
	if !tableOK {
		return nil, usage("-table %d: want 1, 2 or 3", *table)
	}
	if !slices.Contains(on, true) {
		*all = true
	}
	outs := 0
	for i := range modes {
		m := &modes[i]
		if !on[i] && !(*all && m.inAll) {
			continue
		}
		j := &job{mode: m, cfg: c, arg: vals[i]}
		if m.corpus != "" {
			list, name, err := resolveCorpus(*corpus, m.corpus)
			if err != nil {
				return nil, usage("-%s: %v", m.name, err)
			}
			j.list, j.corpus = list, name
		}
		if m.out {
			outs++
		}
		c.jobs = append(c.jobs, j)
	}
	if c.out != "" && outs != 1 {
		return nil, usage("-out names one file, but %d of -lifs, -flips, -check-lifs and -check-flips are selected", outs)
	}
	return c, nil
}

// resolveCorpus resolves -corpus for one mode: an explicit value wins,
// otherwise the mode's default applies.
func resolveCorpus(flagVal, def string) ([]*scenarios.Scenario, string, error) {
	name := flagVal
	if name == "" {
		name = def
	}
	list, err := scenarios.Subset(name)
	if err != nil {
		return nil, "", err
	}
	if len(list) == 0 {
		return nil, "", fmt.Errorf("corpus subset %q is empty", name)
	}
	return list, name, nil
}

// run runs the selected modes in table order, stopping at the first that
// fails.
func (c *config) run() error {
	for _, j := range c.jobs {
		if err := j.run(j); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	c, err := parse(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if err := c.run(); err != nil {
		fmt.Fprintln(os.Stderr, "aitia-bench:", err)
		os.Exit(1)
	}
}

// artifactDir is where the job leaves its postmortem: DIR/<mode> under
// -artifacts, or "" when -artifacts is unset.
func (j *job) artifactDir() string {
	if j.cfg.artifacts == "" {
		return ""
	}
	return filepath.Join(j.cfg.artifacts, j.name)
}

// tally prints a gate's per-item verdict lines and counts its failures.
type tally struct {
	gate  string // prefixes the summary error
	width int    // the item-name column
	bad   int
	first string // the first item that failed
}

func (j *job) tally(width int) *tally { return &tally{gate: j.name, width: width} }

// line prints one verdict line: a tag (ok, FAIL, skip, part, degr, ...),
// the item in a fixed-width column, and the message. An empty item drops
// the column.
func (t *tally) line(tag, item, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if item == "" {
		fmt.Printf("%-4s %s\n", tag, msg)
		return
	}
	fmt.Printf("%-4s %-*s %s\n", tag, t.width, item, msg)
}

// fail prints a FAIL line and counts it.
func (t *tally) fail(item, format string, args ...any) {
	if t.bad == 0 {
		t.first = item
	}
	t.bad++
	t.line("FAIL", item, format, args...)
}

// failChain fails an item whose chain differs from the one wanted.
func (t *tally) failChain(item, got, want string) {
	t.fail(item, "chain = %q\n     %-*s want    %q", got, t.width, "", want)
}

// err is nil when nothing failed, else the gate's summary error: the
// gate, the failure count, then format.
func (t *tally) err(format string, args ...any) error {
	if t.bad == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d "+format, append([]any{t.gate, t.bad}, args...)...)
}

// within reports whether got lies in base's ±tol band, edges included.
func within(got, base, tol float64) bool {
	return got >= base*(1-tol) && got <= base*(1+tol)
}

// band renders base's ±tol band for a FAIL line.
func band(base, tol float64) string {
	return fmt.Sprintf("±%g%%: %g..%g", tol*100, base*(1-tol), base*(1+tol))
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, append(data, '\n'))
}

// writeFile writes data to path, creating its directory.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func chromeJSON(tr *obs.Tracer) ([]byte, error) {
	var buf bytes.Buffer
	err := tr.WriteChrome(&buf)
	return buf.Bytes(), err
}

// artifact returns the run function of a measured artifact mode: measure
// the job's corpus and print the tables, write the artifact to -out, and,
// when the flag named a baseline JSON (the -check- modes), fail on every
// regression compare finds against it. compare returns the note the
// passing line ends with.
func artifact[T any](measure func([]*scenarios.Scenario) (*T, error), compare func(t *tally, baseline string, base, fresh *T) string) func(*job) error {
	return func(j *job) error {
		var base T
		if j.arg != "" {
			if err := readJSON(j.arg, &base); err != nil {
				return fmt.Errorf("%s: %w", j.name, err)
			}
		}
		fresh, err := measure(j.list)
		if err != nil {
			return err
		}
		if out := j.cfg.out; out != "" {
			if err := writeJSON(out, fresh); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
		}
		if j.arg == "" {
			return nil
		}
		t := j.tally(22)
		note := compare(t, j.arg, &base, fresh)
		where := ""
		if j.cfg.out != "" {
			where = fmt.Sprintf(" (fresh artifact written to %s)", j.cfg.out)
		}
		if err := t.err("regressions against %s%s", j.arg, where); err != nil {
			return err
		}
		fmt.Printf("%s: no regression against %s (%s)\n", j.name, j.arg, note)
		return nil
	}
}

// checkMatrix is the bug-class coverage CI gate: it classifies the
// selected corpus into the failure-class × interleaving-structure matrix
// (the Tables 2–3 bug taxonomy) and fails unless every failure class
// keeps at least matrixMin representatives. The full matrix prints either
// way, so a failing run shows exactly which cells went empty.
func checkMatrix(j *job) error {
	m := factory.NewMatrix()
	for _, sc := range j.list {
		m.AddScenario(sc)
	}
	fmt.Printf("bug-class matrix (%s corpus, %d scenarios):\n%s", j.corpus, m.Total(), m)
	if missing := m.MissingFailure(matrixMin); len(missing) > 0 {
		return fmt.Errorf("check-matrix: failure classes below %d representatives in the %s corpus: %s",
			matrixMin, j.corpus, strings.Join(missing, ", "))
	}
	fmt.Printf("check-matrix: every failure class has >= %d representatives across %d scenarios\n",
		matrixMin, len(j.list))
	return nil
}

// checkChains is the CI corpus gate: it re-diagnoses every scenario of
// the selected subset and compares the causality chain against
// scenarios.GoldenChains, independently of `go test` — an edited or
// skipped golden test cannot hide a regression from this path.
func checkChains(j *job) error {
	rows, err := eval.Run(j.list)
	if err != nil {
		return err
	}
	// Only the full corpus can account for every golden chain; a subset
	// run still requires a golden for each of its own scenarios below.
	if j.corpus == "all" && len(rows) != len(scenarios.GoldenChains) {
		return fmt.Errorf("check-chains: corpus has %d scenarios but %d golden chains — regenerate with -chains and update internal/scenarios/golden.go",
			len(rows), len(scenarios.GoldenChains))
	}
	t := j.tally(22)
	for _, r := range rows {
		switch want, ok := scenarios.GoldenChains[r.Scenario.Name]; {
		case !ok:
			t.fail(r.Scenario.Name, "no golden chain")
		case r.Chain != want:
			t.failChain(r.Scenario.Name, r.Chain, want)
		default:
			t.line("ok", r.Scenario.Name, "%s", r.Chain)
		}
	}
	if err := t.err("of %d scenarios diverge from the golden chains", len(rows)); err != nil {
		return err
	}
	fmt.Printf("check-chains: all %d scenario chains match the golden set\n", len(rows))
	return nil
}

// checkReports is the report-corpus CI gate: for every scenario it
// reproduces the failure blind, renders the failing run as a KCSAN-style
// crash report, then diagnoses from that report text alone. The gate
// fails unless the report-driven chain matches the golden set AND the
// report-seeded search executes strictly fewer schedules than the blind
// baseline — the whole point of constraining LIFS with report suspects.
// With -artifacts, each violating scenario leaves its report and an
// execution trace of the report-driven run for upload.
// Generated scenarios whose manifest recorded ReportOK=false at emission
// are skipped with a visible line rather than failed.
func checkReports(j *job) error {
	t := j.tally(22)
	checked := 0
	for _, sc := range j.list {
		if sc.GenInfo != nil && !sc.GenInfo.ReportOK {
			t.line("skip", sc.Name, "synthesized report does not round-trip (recorded at emission)")
			continue
		}
		checked++
		prog := sc.MustProgram()
		blind, err := eval.ReproduceWith(sc, core.LIFSOptions{})
		if err != nil {
			return fmt.Errorf("check-reports: %s: blind baseline: %w", sc.Name, err)
		}
		text, err := ingest.Synthesize(prog, blind.Run, blind.Races)
		if err != nil {
			return fmt.Errorf("check-reports: %s: synthesize: %w", sc.Name, err)
		}
		rpt, err := ingest.Parse(text)
		if err != nil {
			return fmt.Errorf("check-reports: %s: synthesized report does not parse: %w", sc.Name, err)
		}

		tr := obs.New()
		mgr, err := manager.New(prog, manager.Options{Tracer: tr})
		if err != nil {
			return err
		}
		mres, err := mgr.DiagnoseReport(context.Background(), rpt)
		bad := t.bad
		switch {
		case err != nil:
			t.fail(sc.Name, "report-driven diagnosis errored: %v", err)
		case mres.Resolution.Degraded():
			t.fail(sc.Name, "synthesized report resolved degraded: %v", mres.Resolution.Partial)
		default:
			chain := mres.Diagnosis.Chain.Format(prog)
			seeded := mres.Reproduction.Stats.Schedules
			if want := scenarios.GoldenChains[sc.Name]; chain != want {
				t.failChain(sc.Name, chain, want)
			} else if seeded >= blind.Stats.Schedules {
				t.fail(sc.Name, "seeded search ran %d schedules, blind baseline %d — want strictly fewer", seeded, blind.Stats.Schedules)
			} else {
				t.line("ok", sc.Name, "%d -> %d schedules  %s", blind.Stats.Schedules, seeded, chain)
			}
		}
		if t.bad > bad {
			if werr := writeReportArtifacts(j, sc.Name, text, tr); werr != nil {
				fmt.Fprintf(os.Stderr, "check-reports: could not write artifacts for %s: %v\n", sc.Name, werr)
			}
		}
	}
	if err := t.err("of %d scenarios fail the report-driven gate", checked); err != nil {
		return err
	}
	fmt.Printf("check-reports: all %d scenarios (%s corpus) diagnose from their crash report alone, each with fewer schedules than blind\n",
		checked, j.corpus)
	return nil
}

// writeReportArtifacts dumps a violating scenario's synthesized report
// and the Chrome trace of its report-driven diagnosis under -artifacts,
// so the CI gate leaves a postmortem.
func writeReportArtifacts(j *job, name, reportText string, tr *obs.Tracer) error {
	dir := j.artifactDir()
	if dir == "" {
		return nil
	}
	if err := writeFile(filepath.Join(dir, name+".report.txt"), []byte(reportText)); err != nil {
		return err
	}
	data, err := chromeJSON(tr)
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, name+".trace.json"), data)
}

// chaosRetry is the chaos gate's retry budget per faulted operation.
var chaosRetry = faultinject.RetryPolicy{
	MaxAttempts: 6,
	BaseBackoff: 100 * time.Microsecond,
	MaxBackoff:  2 * time.Millisecond,
}

// diagnoseChaos diagnoses one scenario under the chaos gate's fault plan.
func diagnoseChaos(sc *scenarios.Scenario, seed int64, workers int, tr *obs.Tracer) (*core.Diagnosis, string, error) {
	plan := faultinject.NewPlan(seed, chaosRate)
	_, d, err := eval.DiagnoseWith(sc,
		core.LIFSOptions{Workers: workers, Fault: plan, Retry: chaosRetry, Tracer: tr},
		core.AnalysisOptions{Workers: workers, Fault: plan, Retry: chaosRetry, Tracer: tr})
	if err != nil {
		return nil, "", err
	}
	return d, d.Chain.Format(sc.MustProgram()), nil
}

// runChaos is the chaos CI gate: every corpus scenario is re-diagnosed
// under a deterministic fault plan, serially and with 8 workers. The
// run passes when, per scenario, both worker counts produce identical
// results AND the outcome is one of the three sanctioned shapes:
// the golden chain, a Partial diagnosis with a machine-readable reason,
// or a classified retry exhaustion (which a service deployment would
// requeue). Anything else — divergent chains, unclassified errors, a
// silently wrong chain — fails the gate.
func runChaos(j *job) error {
	seed := j.cfg.seed
	fmt.Printf("chaos gate: fault seed %d, rate %g, retry budget %d\n", seed, chaosRate, chaosRetry.MaxAttempts)
	t := j.tally(22)
	for _, sc := range j.list {
		ds, cs, serr := diagnoseChaos(sc, seed, 1, nil)
		dp, cp, perr := diagnoseChaos(sc, seed, 8, nil)
		switch {
		case serr != nil || perr != nil:
			if serr != nil && perr != nil &&
				errors.Is(serr, faultinject.ErrExhausted) && errors.Is(perr, faultinject.ErrExhausted) {
				t.line("degr", sc.Name, "classified exhaustion on both (requeueable): %v", serr)
				continue
			}
			t.fail(sc.Name, "errors diverge or unclassified:\n     serial:   %v\n     workers8: %v", serr, perr)
		case cs != cp || ds.Partial != dp.Partial || ds.PartialReason != dp.PartialReason:
			t.fail(sc.Name, "serial and 8-worker runs diverge:\n     serial:   %q partial=%v (%s)\n     workers8: %q partial=%v (%s)",
				cs, ds.Partial, ds.PartialReason, cp, dp.Partial, dp.PartialReason)
		case ds.Partial && ds.PartialReason == "":
			t.fail(sc.Name, "Partial without a machine-readable reason")
		case ds.Partial:
			t.line("part", sc.Name, "%q (%d unknown, reason %s)", cs, len(ds.Unknown), ds.PartialReason)
		case cs != scenarios.GoldenChains[sc.Name]:
			t.failChain(sc.Name, cs, scenarios.GoldenChains[sc.Name])
		default:
			t.line("ok", sc.Name, "%s", cs)
		}
	}
	if t.bad > 0 {
		if terr := writeChaosTrace(j, t.first); terr != nil {
			fmt.Fprintf(os.Stderr, "faults: could not write failure trace: %v\n", terr)
		}
	}
	if err := t.err("scenarios violated the chaos invariant (seed %d, rate %g)", seed, chaosRate); err != nil {
		return err
	}
	fmt.Printf("faults: all %d %s scenarios deterministic under injection (seed %d, rate %g)\n",
		len(j.list), j.corpus, seed, chaosRate)
	return nil
}

// writeChaosTrace re-runs the first violating scenario's faulted serial
// pipeline with tracing enabled and dumps the spans — fault injections,
// retries and all — as a Chrome trace under -artifacts, so a failed
// chaos gate leaves a postmortem. The rerun's own error is irrelevant
// (the gate has already failed); whatever spans were collected get
// written.
func writeChaosTrace(j *job, name string) error {
	dir := j.artifactDir()
	sc, ok := scenarios.ByName(name)
	if dir == "" || !ok {
		return nil
	}
	path := filepath.Join(dir, name+".trace.json")
	tr := obs.New()
	_, _, rerr := diagnoseChaos(sc, j.cfg.seed, 1, tr)
	data, err := chromeJSON(tr)
	if err != nil {
		return err
	}
	if err := writeFile(path, data); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "faults: wrote failure trace of %s to %s (%d spans, rerun error: %v)\n",
		sc.Name, path, len(tr.Events()), rerr)
	return nil
}

// writeTrace diagnoses one scenario with tracing enabled and exports the
// trace as Chrome trace-event JSON, validating it on the way out.
func writeTrace(j *job) error {
	sc, ok := scenarios.ByName(j.cfg.traceScenario)
	if !ok {
		return fmt.Errorf("unknown scenario %q", j.cfg.traceScenario)
	}
	workers := j.cfg.traceWorkers
	tr := obs.New()
	_, d, err := eval.DiagnoseWith(sc,
		core.LIFSOptions{Workers: workers, Tracer: tr},
		core.AnalysisOptions{Workers: workers, Tracer: tr})
	if err != nil {
		return err
	}
	data, err := chromeJSON(tr)
	if err != nil {
		return err
	}
	if err := obs.ValidateChrome(data); err != nil {
		return fmt.Errorf("exported trace does not validate: %w", err)
	}
	if err := os.WriteFile(j.arg, data, 0o644); err != nil {
		return err
	}

	events := tr.Events()
	fmt.Printf("wrote %s: %d spans from diagnosing %s with %d workers (chain: %s)\n",
		j.arg, len(events), sc.Name, workers, d.Chain.Format(sc.MustProgram()))
	t := report.Table{Title: "Span summary (open the JSON in chrome://tracing or https://ui.perfetto.dev)"}
	t.Add("Category", "Span", "Count", "Total")
	for _, st := range obs.Summarize(events) {
		t.Add(st.Cat, st.Name, fmt.Sprint(st.Count), fmt.Sprint(time.Duration(st.Total).Round(time.Microsecond)))
	}
	t.Write(os.Stdout)
	return nil
}

// The JSON shape of the -lifs performance artifact (BENCH_lifs.json).
type lifsArtifact struct {
	Generated  string            `json:"generated"`
	CPUs       int               `json:"cpus"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Note       string            `json:"note"`
	Parallel   []lifsParallelRow `json:"parallel"`
	Snapshot   []lifsSnapshotRow `json:"snapshot"`
	Replay     []lifsReplayRow   `json:"replay"`
}

type lifsParallelRow struct {
	Scenario  string  `json:"scenario"`
	Workers   int     `json:"workers"`
	ElapsedNS int64   `json:"elapsed_ns"`
	Schedules int     `json:"schedules"`
	Speedup   float64 `json:"speedup_vs_serial"`
	// Instruction-level work of the measured search: total executed,
	// executed per schedule, and the share spent re-executing known
	// prefixes. In parallel runs ReplayedInstrs depends on how tasks land
	// on workers (each worker primes its own pin), so only the serial
	// rows are machine-comparable.
	ExecutedInstrs    uint64  `json:"executed_instrs"`
	InstrsPerSchedule float64 `json:"instrs_per_schedule"`
	ReplayedInstrs    uint64  `json:"replayed_instrs"`
}

// lifsReplayRow is one corpus scenario's serial diagnosis (Reproduce +
// Analyze) measured under a prefix-cache budget that pins nothing (the
// "off" column: every run replays its prefix) and under the default
// budget (the "on" column and the cache's own counters). The counts are
// deterministic and machine-portable, and the -check-lifs replay gate
// compares every row exactly.
type lifsReplayRow struct {
	Scenario    string `json:"scenario"`
	ReplayedOff uint64 `json:"replayed_instrs_off"`
	ReplayedOn  uint64 `json:"replayed_instrs_on"`
	SavedInstrs uint64 `json:"saved_instrs"`
	PrefixHits  int    `json:"prefix_hits"`
	PinnedBytes uint64 `json:"pinned_bytes"`
}

// lifsSnapshotRow counts the restore work of one state's
// checkpoint/burst/revert cycles, the gated columns: per cycle, the words
// a CoW restore rewinds (its undo-journal entries) against the words a
// restore by deep copy would write (the whole state at the checkpoint,
// kvm.Machine.StateBytes). They are deterministic and machine-portable;
// the CoW time is reported only.
type lifsSnapshotRow struct {
	State             string `json:"state"`
	Globals           int    `json:"globals"`
	CoWNSPerCycle     int64  `json:"cow_ns_per_cycle"`
	CoWWordsPerCycle  uint64 `json:"cow_words_per_cycle"`
	DeepWordsPerCycle uint64 `json:"deep_words_per_cycle"`
}

// measureLIFS measures the two perf mechanisms of the search engine —
// worker sharding (LIFSOptions.Workers) and copy-on-write snapshots — and
// prints the numbers. All timings are best-of-3 to damp scheduler noise.
// The replay section measures the scenarios in list (the -corpus subset,
// hand-built by default so the committed baseline is insensitive to
// corpus growth).
func measureLIFS(list []*scenarios.Scenario) (*lifsArtifact, error) {
	art := lifsArtifact{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "parallel speedup requires spare CPUs: on a single-CPU runner the " +
			"workers serialize and speedup_vs_serial bounds the sharding overhead " +
			"instead; the snapshot comparison is single-threaded and unaffected",
	}

	// Parallel search: a permutation-heavy stress scenario with uniform
	// top-level branch mass, plus the hardest corpus reproduction.
	stress, err := eval.ParallelStressProgram(7, 40)
	if err != nil {
		return nil, err
	}
	syz, ok := scenarios.ByName("syz08-j1939-refcount")
	if !ok {
		return nil, fmt.Errorf("scenario syz08-j1939-refcount missing from corpus")
	}
	cases := []struct {
		name string
		prog *kir.Program
		opts core.LIFSOptions
	}{
		{"stress-7x40", stress, core.LIFSOptions{WantKind: sanitizer.KindNullDeref, MaxSchedules: 1 << 30}},
		{syz.Name, syz.MustProgram(), core.LIFSOptions{WantKind: syz.WantKind, WantInstr: syz.WantInstr()}},
	}
	t := report.Table{Title: "Parallel LIFS search (best of 3 runs)"}
	t.Add("Scenario", "Workers", "Elapsed", "# sched", "Speedup", "instrs/sched", "replayed")
	for _, c := range cases {
		var serial time.Duration
		for _, workers := range []int{1, 2, 4, 8} {
			best := time.Duration(0)
			scheds := 0
			var executed, replayed uint64
			for rep := 0; rep < 3; rep++ {
				m, err := kvm.New(c.prog)
				if err != nil {
					return nil, err
				}
				opts := c.opts
				opts.Workers = workers
				start := time.Now()
				r, err := core.Reproduce(m, opts)
				if err != nil {
					return nil, fmt.Errorf("%s workers=%d: %w", c.name, workers, err)
				}
				if el := time.Since(start); best == 0 || el < best {
					best = el
				}
				scheds = r.Stats.Schedules
				executed = r.Stats.ExecutedInstrs
				replayed = r.Stats.ReplayedInstrs
			}
			if workers == 1 {
				serial = best
			}
			speedup := float64(serial) / float64(best)
			perSched := 0.0
			if scheds > 0 {
				perSched = float64(executed) / float64(scheds)
			}
			art.Parallel = append(art.Parallel, lifsParallelRow{
				Scenario: c.name, Workers: workers,
				ElapsedNS: best.Nanoseconds(), Schedules: scheds,
				Speedup:           speedup,
				ExecutedInstrs:    executed,
				InstrsPerSchedule: perSched,
				ReplayedInstrs:    replayed,
			})
			t.Add(c.name, fmt.Sprint(workers), fmt.Sprint(best.Round(10_000)),
				fmt.Sprint(scheds), fmt.Sprintf("%.2fx", speedup),
				fmt.Sprintf("%.1f", perSched), fmt.Sprint(replayed))
		}
	}
	t.Write(os.Stdout)
	fmt.Printf("  (%d CPUs, GOMAXPROCS %d — %s)\n\n", art.CPUs, art.GOMAXPROCS, art.Note)

	// Incremental replay: the whole corpus diagnosed serially under a
	// budget that pins nothing and under the default one. The counts are
	// deterministic; golden-chain equality across both is asserted here,
	// so a cache bug cannot ship a "fast" artifact with wrong diagnoses.
	rows, err := measureReplay(list)
	if err != nil {
		return nil, err
	}
	art.Replay = rows
	var offTot, onTot uint64
	rt := report.Table{Title: "Incremental replay: no pins vs default budget (serial diagnosis, corpus)"}
	rt.Add("Scenario", "replayed no-pin", "replayed default", "saved", "hits", "pinned B")
	for _, r := range rows {
		offTot += r.ReplayedOff
		onTot += r.ReplayedOn
		rt.Add(r.Scenario, fmt.Sprint(r.ReplayedOff), fmt.Sprint(r.ReplayedOn),
			fmt.Sprint(r.SavedInstrs), fmt.Sprint(r.PrefixHits), fmt.Sprint(r.PinnedBytes))
	}
	rt.Write(os.Stdout)
	fmt.Printf("  (corpus replayed instructions: %d with no pins, %d with the default budget — %.1fx reduction)\n\n",
		offTot, onTot, replayRatio(offTot, onTot))

	// Snapshot strategy: checkpoint / 32-step burst / revert cycles. A
	// deep copy's work scales with total state width, the journal's with
	// bytes dirtied.
	wide, err := eval.WideStateProgram(4096)
	if err != nil {
		return nil, err
	}
	snapCases := []struct {
		name    string
		globals int
		prog    *kir.Program
	}{
		{syz.Name, 0, syz.MustProgram()},
		{"wide-4096", 4096, wide},
	}
	const cycles, burst = 3000, 32
	st := report.Table{Title: "Snapshot strategy: copy-on-write journal vs deep copy (words restored per checkpoint/burst/revert cycle)"}
	st.Add("State", "CoW words", "Deep words", "Word ratio", "CoW")
	for _, c := range snapCases {
		cow, cowWords, deepWords, err := snapshotCycle(c.prog, cycles, burst)
		if err != nil {
			return nil, err
		}
		art.Snapshot = append(art.Snapshot, lifsSnapshotRow{
			State: c.name, Globals: c.globals,
			CoWNSPerCycle:    cow.Nanoseconds(),
			CoWWordsPerCycle: cowWords, DeepWordsPerCycle: deepWords,
		})
		st.Add(c.name, fmt.Sprint(cowWords), fmt.Sprint(deepWords),
			fmt.Sprintf("%.1fx", float64(deepWords)/float64(max(cowWords, 1))),
			fmt.Sprint(cow))
	}
	st.Write(os.Stdout)
	fmt.Printf("  (%d cycles of %d steps each; deep-copy work grows with state width, CoW with bytes dirtied)\n\n",
		cycles, burst)
	return &art, nil
}

// measureReplay diagnoses every corpus scenario serially under a
// prefix-cache budget that pins nothing and under the default budget,
// returning the per-scenario replay counters. Both must produce the
// scenario's golden chain and identical schedule counts — the cache is a
// work optimization, never a result change — so a divergence fails the
// measurement itself.
func measureReplay(list []*scenarios.Scenario) ([]lifsReplayRow, error) {
	var rows []lifsReplayRow
	for _, sc := range list {
		var replayed [2]uint64
		var chains [2]string
		var scheds [2]int
		row := lifsReplayRow{Scenario: sc.Name}
		// A one-byte budget admits only pins of zero bytes, whose
		// restores skip nothing.
		for i, prefix := range []core.PrefixConfig{{BudgetBytes: 1}, {}} {
			rep, d, err := eval.DiagnoseWith(sc, core.LIFSOptions{Prefix: prefix}, core.AnalysisOptions{Prefix: prefix})
			if err != nil {
				return nil, fmt.Errorf("replay-measure %s (budget %d): %w", sc.Name, prefix.BudgetBytes, err)
			}
			replayed[i] = rep.Stats.ReplayedInstrs + d.Stats.ReplayedInstrs
			chains[i] = d.Chain.Format(sc.MustProgram())
			scheds[i] = rep.Stats.Schedules
			if i == 1 {
				row.SavedInstrs = rep.Stats.SavedInstrs + d.Stats.SavedInstrs
				row.PrefixHits = rep.Stats.PrefixHits + d.Stats.PrefixHits
				row.PinnedBytes = rep.Stats.PinnedBytes
				if d.Stats.PinnedBytes > row.PinnedBytes {
					row.PinnedBytes = d.Stats.PinnedBytes
				}
			}
		}
		if chains[0] != chains[1] {
			return nil, fmt.Errorf("replay-measure %s: chain differs under the default budget (%q) and with no pins (%q)",
				sc.Name, chains[1], chains[0])
		}
		if want, ok := scenarios.GoldenChains[sc.Name]; ok && chains[0] != want {
			return nil, fmt.Errorf("replay-measure %s: chain %q does not match the golden %q", sc.Name, chains[0], want)
		}
		if scheds[0] != scheds[1] {
			return nil, fmt.Errorf("replay-measure %s: schedule count differs under the default budget (%d) and with no pins (%d)",
				sc.Name, scheds[1], scheds[0])
		}
		row.ReplayedOff, row.ReplayedOn = replayed[0], replayed[1]
		rows = append(rows, row)
	}
	return rows, nil
}

// replayRatio is off/on with a zero-safe denominator.
func replayRatio(off, on uint64) float64 {
	if on == 0 {
		on = 1
	}
	return float64(off) / float64(on)
}

// compareLIFS is the bench-regression CI gate (-check-lifs) on a fresh
// -lifs artifact. Wall-clock times do not transfer between machines, so
// it checks machine-portable quantities only: per-(scenario, workers)
// schedule counts within ±25%, parallel speedup ratios one-sided (a
// regression of more than 25% fails; being faster never does), the
// snapshot rows' word counts and every replay row exactly. Parallel
// speedups are skipped when this machine has fewer CPUs than the
// baseline machine.
func compareLIFS(t *tally, baseline string, base, art *lifsArtifact) string {
	const tol = 0.25
	t.width = 29
	parallel := make(map[string]lifsParallelRow)
	for _, r := range base.Parallel {
		parallel[fmt.Sprintf("%s/w%d", r.Scenario, r.Workers)] = r
	}
	compareSpeedups := runtime.NumCPU() >= base.CPUs
	if !compareSpeedups {
		fmt.Printf("check-lifs: %d CPUs here vs %d in the baseline — parallel speedups not comparable, checking schedule counts only\n",
			runtime.NumCPU(), base.CPUs)
	}
	for _, r := range art.Parallel {
		key := fmt.Sprintf("%s/w%d", r.Scenario, r.Workers)
		b, ok := parallel[key]
		if !ok {
			t.fail(key, "not in baseline %s — regenerate it with -lifs -out", baseline)
			continue
		}
		if !within(float64(r.Schedules), float64(b.Schedules), tol) {
			t.fail(key, "schedules = %d, baseline %d (%s) — the search explores a different amount of work",
				r.Schedules, b.Schedules, band(float64(b.Schedules), tol))
		}
		if compareSpeedups && r.Speedup < b.Speedup*(1-tol) {
			t.fail(key, "speedup = %.2fx, baseline %.2fx (floor %.2fx)", r.Speedup, b.Speedup, b.Speedup*(1-tol))
		}
	}

	snapshot := make(map[string]lifsSnapshotRow)
	for _, r := range base.Snapshot {
		snapshot[r.State] = r
	}
	for _, r := range art.Snapshot {
		b, ok := snapshot[r.State]
		if !ok {
			t.fail("snapshot/"+r.State, "not in baseline %s — regenerate it with -lifs -out", baseline)
			continue
		}
		// The restore work is counted, not timed: a CoW restore that
		// rewinds more than its journal, or a state of a different size,
		// changes a count. The times are reported only.
		if r.CoWWordsPerCycle != b.CoWWordsPerCycle || r.DeepWordsPerCycle != b.DeepWordsPerCycle {
			t.fail("snapshot/"+r.State, "restored words per cycle = %d CoW, %d deep; baseline %d CoW, %d deep",
				r.CoWWordsPerCycle, r.DeepWordsPerCycle, b.CoWWordsPerCycle, b.DeepWordsPerCycle)
		}
	}

	// Replay gate: the prefix cache must keep earning its keep. The
	// measured counts are deterministic and machine-portable, so every
	// scenario's row must equal the baseline's exactly, and the corpus
	// totals keep a hard reduction floor (measureReplay has already
	// asserted golden chains and equal schedule counts under both
	// budgets).
	if len(base.Replay) == 0 {
		t.fail("", "replay section missing from baseline %s — regenerate it with -lifs -out", baseline)
		return ""
	}
	replay := make(map[string]lifsReplayRow, len(base.Replay))
	for _, r := range base.Replay {
		replay[r.Scenario] = r
	}
	var freshOff, freshOn uint64
	for _, r := range art.Replay {
		freshOff += r.ReplayedOff
		freshOn += r.ReplayedOn
		b, ok := replay[r.Scenario]
		if !ok {
			t.fail("replay/"+r.Scenario, "not in baseline %s — regenerate it with -lifs -out", baseline)
			continue
		}
		delete(replay, r.Scenario)
		if got, want := r.counts(), b.counts(); got != want {
			t.fail("replay/"+r.Scenario, "replayed no-pin/default, saved, hits = %d/%d, %d, %d; baseline %d/%d, %d, %d",
				got[0], got[1], got[2], got[3], want[0], want[1], want[2], want[3])
		}
	}
	for _, b := range base.Replay {
		if _, missed := replay[b.Scenario]; missed {
			t.fail("replay/"+b.Scenario, "in baseline %s but not measured", baseline)
		}
	}
	const minReplayReduction = 5.0
	if ratio := replayRatio(freshOff, freshOn); ratio < minReplayReduction {
		t.fail("", "replay reduction = %.1fx (corpus replayed %d with no pins, %d with the default budget), floor %.0fx — the prefix cache stopped paying off",
			ratio, freshOff, freshOn, minReplayReduction)
	}
	return "tolerance ±25%, replay rows exact, replay floor 5x"
}

// counts returns the row's gated counts: replayed instructions with no
// pins and under the default budget, saved instructions and prefix hits.
func (r lifsReplayRow) counts() [4]uint64 {
	return [4]uint64{r.ReplayedOff, r.ReplayedOn, r.SavedInstrs, uint64(r.PrefixHits)}
}

// The JSON shape of the -flips learned-ordering artifact (BENCH_flips.json).
type flipsArtifact struct {
	Generated   string     `json:"generated"`
	Note        string     `json:"note"`
	PriorPairs  int        `json:"prior_pairs"`
	ColdFlips   int        `json:"cold_flips_total"`
	WarmFlips   int        `json:"warm_flips_total"`
	WarmSkipped int        `json:"warm_skipped_total"`
	Reduction   float64    `json:"reduction"`
	Scenarios   []flipsRow `json:"scenarios"`
	LeaveOneOut looTotals  `json:"leave_one_out"`
}

// flipsRow is one corpus scenario diagnosed cold (no prior, the exact
// fixed backward order) and warm (ranked by a prior fed with the whole
// corpus' cold verdicts). The counts are deterministic and
// machine-portable; the chain is asserted byte-identical across all
// passes before a row is emitted.
type flipsRow struct {
	Scenario    string `json:"scenario"`
	TestSet     int    `json:"test_set"`
	ColdFlips   int    `json:"cold_flips"`
	WarmFlips   int    `json:"warm_flips"`
	WarmSkipped int    `json:"warm_skipped"`
	PriorHits   int    `json:"prior_hits"`
	Chain       string `json:"chain"`
}

// looTotals sum the leave-one-out pass over the whole corpus: each
// scenario diagnosed warm under a prior fed by every other scenario's
// cold diagnosis, never its own.
type looTotals struct {
	Scenarios   int `json:"scenarios"`
	ColdFlips   int `json:"cold_flips_total"`
	WarmFlips   int `json:"warm_flips_total"`
	WarmSkipped int `json:"warm_skipped_total"`
}

// coldRun is one scenario's cold diagnosis, kept to feed priors.
type coldRun struct {
	prog  *kir.Program
	diag  *core.Diagnosis
	chain string
}

// measureFlips runs the passes behind the -flips artifact and prints the
// counts. Every corpus scenario is diagnosed cold once, with no ranker —
// the exact fixed backward order. The same-corpus pass feeds the cold
// verdicts of the selected scenarios into one shared prior store and
// diagnoses each of them warm with it, serially and with 8 workers. The
// leave-one-out pass then does the same for every scenario of the whole
// corpus with a prior that never saw it, so a race can only be settled
// by what other programs taught the prior. Any chain divergence or an
// executed+skipped/test-set mismatch fails the measurement itself: the
// artifact can only ever report a speedup over byte-identical diagnoses.
func measureFlips(list []*scenarios.Scenario) (*flipsArtifact, error) {
	art := &flipsArtifact{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Note: "flip counts are deterministic and machine-portable; warm chains are " +
			"asserted byte-identical to cold (serial and 8-worker) before a row is emitted",
	}
	all := scenarios.All()
	cold := make(map[string]coldRun, len(all))
	for _, sc := range all {
		prog := sc.MustProgram()
		_, d, err := eval.DiagnoseWith(sc, core.LIFSOptions{}, core.AnalysisOptions{})
		if err != nil {
			return nil, fmt.Errorf("flips-measure %s (cold): %w", sc.Name, err)
		}
		chain := d.Chain.Format(prog)
		if want, ok := scenarios.GoldenChains[sc.Name]; ok && chain != want {
			return nil, fmt.Errorf("flips-measure %s: cold chain %q does not match the golden %q", sc.Name, chain, want)
		}
		cold[sc.Name] = coldRun{prog: prog, diag: d, chain: chain}
	}

	pst := prior.NewStore(prior.Config{})
	for _, sc := range list {
		c := cold[sc.Name]
		pst.ObserveDiagnosis(c.prog, c.diag)
		art.Scenarios = append(art.Scenarios, flipsRow{
			Scenario:  sc.Name,
			TestSet:   c.diag.Stats.TestSet,
			ColdFlips: c.diag.Stats.FlipsExecuted,
			Chain:     c.chain,
		})
	}
	for i, sc := range list {
		row := &art.Scenarios[i]
		st, err := warmFlips(sc, pst, row.Chain)
		if err != nil {
			return nil, err
		}
		row.WarmFlips, row.WarmSkipped, row.PriorHits = st.FlipsExecuted, st.FlipsSkipped, st.PriorHits
		art.ColdFlips += row.ColdFlips
		art.WarmFlips += row.WarmFlips
		art.WarmSkipped += row.WarmSkipped
	}
	art.PriorPairs = pst.Pairs()
	if art.ColdFlips > 0 {
		art.Reduction = 1 - float64(art.WarmFlips)/float64(art.ColdFlips)
	}

	t := report.Table{Title: "Learned flip ordering: cold vs warm prior (corpus, serial + 8 workers)"}
	t.Add("Scenario", "test set", "cold flips", "warm flips", "skipped", "prior hits")
	for _, r := range art.Scenarios {
		t.Add(r.Scenario, fmt.Sprint(r.TestSet), fmt.Sprint(r.ColdFlips),
			fmt.Sprint(r.WarmFlips), fmt.Sprint(r.WarmSkipped), fmt.Sprint(r.PriorHits))
	}
	t.Write(os.Stdout)
	fmt.Printf("  (corpus flip tests: %d cold, %d warm — %.0f%% skipped; %d signature pairs learned)\n",
		art.ColdFlips, art.WarmFlips, art.Reduction*100, art.PriorPairs)

	var diverged []string
	for _, held := range all {
		loo := prior.NewStore(prior.Config{})
		for _, sc := range all {
			if sc != held {
				c := cold[sc.Name]
				loo.ObserveDiagnosis(c.prog, c.diag)
			}
		}
		c := cold[held.Name]
		st, err := warmFlips(held, loo, c.chain)
		if errors.Is(err, errWarmChain) {
			diverged = append(diverged, err.Error())
			continue
		}
		if err != nil {
			return nil, err
		}
		art.LeaveOneOut.Scenarios++
		art.LeaveOneOut.ColdFlips += c.diag.Stats.FlipsExecuted
		art.LeaveOneOut.WarmFlips += st.FlipsExecuted
		art.LeaveOneOut.WarmSkipped += st.FlipsSkipped
	}
	if len(diverged) > 0 {
		return nil, fmt.Errorf("flips-measure leave-one-out: %d of %d chains differ from cold — a prior learned on other programs changed the diagnosis:\n  %s",
			len(diverged), len(all), strings.Join(diverged, "\n  "))
	}
	l := art.LeaveOneOut
	fmt.Printf("  (leave-one-out over %d scenarios: %d cold, %d warm, %d skipped; every chain identical to cold)\n\n",
		l.Scenarios, l.ColdFlips, l.WarmFlips, l.WarmSkipped)
	return art, nil
}

// errWarmChain marks a warm diagnosis whose chain differs from cold.
var errWarmChain = errors.New("warm chain differs from cold")

// warmFlips diagnoses sc ranked by pst, serially and with 8 workers, and
// returns the serial analysis stats. It fails unless both chains equal
// cold, executed plus skipped flips cover the test set, and both passes
// execute and skip the same flips.
func warmFlips(sc *scenarios.Scenario, pst *prior.Store, cold string) (core.AnalysisStats, error) {
	var serial core.AnalysisStats
	for _, workers := range []int{0, 8} {
		_, d, err := eval.DiagnoseWith(sc, core.LIFSOptions{}, core.AnalysisOptions{Workers: workers, Ranker: pst})
		if err != nil {
			return serial, fmt.Errorf("flips-measure %s (warm, workers=%d): %w", sc.Name, workers, err)
		}
		if chain := d.Chain.Format(sc.MustProgram()); chain != cold {
			return serial, fmt.Errorf("%w: %s (workers=%d) %q, cold %q", errWarmChain, sc.Name, workers, chain, cold)
		}
		st := d.Stats
		if st.FlipsExecuted+st.FlipsSkipped != st.TestSet {
			return serial, fmt.Errorf("flips-measure %s (workers=%d): executed %d + skipped %d != test set %d",
				sc.Name, workers, st.FlipsExecuted, st.FlipsSkipped, st.TestSet)
		}
		if workers == 0 {
			serial = st
		} else if st.FlipsExecuted != serial.FlipsExecuted || st.FlipsSkipped != serial.FlipsSkipped {
			return serial, fmt.Errorf("flips-measure %s: 8-worker pass executed/skipped %d/%d, serial %d/%d — the skip set depends on scheduling",
				sc.Name, st.FlipsExecuted, st.FlipsSkipped, serial.FlipsExecuted, serial.FlipsSkipped)
		}
	}
	return serial, nil
}

// compareFlips is the flip-regression CI gate (-check-flips) on a fresh
// -flips artifact, which itself hard-fails on any warm chain diverging
// from cold or golden, same-corpus or leave-one-out. Flip counts are
// deterministic, so it holds every scenario's cold, warm and skipped
// counts and the leave-one-out totals to the committed baseline exactly.
func compareFlips(t *tally, baseline string, base, art *flipsArtifact) string {
	baseRows := make(map[string]flipsRow, len(base.Scenarios))
	for _, r := range base.Scenarios {
		baseRows[r.Scenario] = r
	}
	for _, r := range art.Scenarios {
		b, ok := baseRows[r.Scenario]
		if !ok {
			t.fail(r.Scenario, "not in baseline %s — regenerate it with -flips -out", baseline)
			continue
		}
		if r.ColdFlips != b.ColdFlips {
			t.fail(r.Scenario, "cold flips = %d, baseline %d — the test set itself changed; regenerate the baseline",
				r.ColdFlips, b.ColdFlips)
		}
		if r.WarmFlips != b.WarmFlips || r.WarmSkipped != b.WarmSkipped {
			t.fail(r.Scenario, "warm flips/skipped = %d/%d, baseline %d/%d", r.WarmFlips, r.WarmSkipped, b.WarmFlips, b.WarmSkipped)
		}
	}
	if art.LeaveOneOut != base.LeaveOneOut {
		t.fail("leave-one-out", "totals %+v, baseline %+v", art.LeaveOneOut, base.LeaveOneOut)
	}
	return fmt.Sprintf("chains byte-identical same-corpus and leave-one-out, %.0f%% of flip tests skipped warm, counts exact", art.Reduction*100)
}

// snapshotCycle times one checkpoint / burst / revert cycle of the CoW
// journal pair, best of 3 passes of `cycles` cycles. It also returns the
// words one cycle's restore writes back (kvm.Machine.RestoredBytes) and
// the words a restore by deep copy would write (kvm.Machine.StateBytes at
// the checkpoint): every cycle reverts to the same state, so both counts
// are exact.
func snapshotCycle(prog *kir.Program, cycles, burst int) (time.Duration, uint64, uint64, error) {
	best := time.Duration(0)
	var words, deepWords uint64
	for rep := 0; rep < 3; rep++ {
		m, err := kvm.New(prog)
		if err != nil {
			return 0, 0, 0, err
		}
		deepWords = m.StateBytes() / 8
		restored := m.RestoredBytes()
		start := time.Now()
		for i := 0; i < cycles; i++ {
			snap := m.Snapshot()
			for s := 0; s < burst; s++ {
				if m.Failure() != nil {
					break
				}
				run := m.Runnable()
				if len(run) == 0 {
					break
				}
				if _, err := m.Step(run[0]); err != nil {
					return 0, 0, 0, err
				}
			}
			m.Restore(snap)
		}
		if el := time.Since(start); best == 0 || el < best {
			best = el
		}
		words = (m.RestoredBytes() - restored) / 8 / uint64(cycles)
	}
	return best / time.Duration(cycles), words, deepWords, nil
}

func printReproduction(j *job) error {
	rows, err := eval.RunReproductionComparison(scenarios.GroupSyzkaller, j.cfg.seed)
	if err != nil {
		return err
	}
	t := report.Table{Title: "Reproduction cost: LIFS vs random scheduling (schedules until the reported failure)"}
	t.Add("Bug", "LIFS", "random (mean)", "random (worst seed)")
	for _, r := range rows {
		t.Add(shortTitle(r.Scenario),
			fmt.Sprint(r.LIFSScheds),
			fmt.Sprintf("%.1f", r.RandomRuns),
			fmt.Sprint(r.RandomMax))
	}
	t.Write(os.Stdout)
	fmt.Printf("  (random figures averaged over %d seeds)\n\n", eval.ReproTrials)
	return nil
}

func printAblations(*job) error {
	rows, err := eval.RunAblations()
	if err != nil {
		return err
	}
	fmt.Println("Design-choice ablations (DESIGN.md):")
	for _, r := range rows {
		fmt.Printf("  %s [%s]\n", r.Mechanism, r.Scenario)
		fmt.Printf("    with:    %s\n", r.With)
		fmt.Printf("    without: %s\n", r.Without)
		fmt.Printf("    => %s\n", r.Verdict)
	}
	fmt.Println()
	return nil
}

func printTable2(*job) error {
	rows, err := eval.RunGroup(scenarios.GroupCVE)
	if err != nil {
		return err
	}
	t := report.Table{Title: "Table 2: CVEs caused by a concurrency failure in Linux (reproduced)"}
	t.Add("Bug ID", "Subsystem", "LIFS time", "# sched", "Inter.", "CA time", "# sched")
	for _, r := range rows {
		t.Add(r.Scenario.Title, r.Scenario.Subsystem,
			fmt.Sprint(r.LIFSTime.Round(10_000)), fmt.Sprint(r.LIFSScheds),
			fmt.Sprint(r.Interleavings),
			fmt.Sprint(r.CATime.Round(10_000)), fmt.Sprint(r.CAScheds))
	}
	t.Write(os.Stdout)
	fmt.Println()
	return nil
}

func printTable3(*job) error {
	rows, err := eval.RunGroup(scenarios.GroupSyzkaller)
	if err != nil {
		return err
	}
	t := report.Table{Title: "Table 3: Syzkaller concurrency bugs (reproduced)"}
	t.Add("Bug", "Subsystem", "Bug type", "Multi?", "LIFS time", "# sched", "Inter.", "CA time", "# sched", "Chain")
	for _, r := range rows {
		multi := "No"
		if r.Scenario.MultiVariable {
			multi = "Yes"
			if r.Scenario.LooselyCorrelated {
				multi = "Yes*"
			}
		}
		t.Add(shortTitle(r.Scenario), r.Scenario.Subsystem, r.Scenario.BugType, multi,
			fmt.Sprint(r.LIFSTime.Round(10_000)), fmt.Sprint(r.LIFSScheds),
			fmt.Sprint(r.Interleavings),
			fmt.Sprint(r.CATime.Round(10_000)), fmt.Sprint(r.CAScheds),
			fmt.Sprint(r.ChainRaces))
	}
	t.Write(os.Stdout)
	fmt.Println("  (* = loosely correlated variables)")
	fmt.Println()
	return nil
}

func printConciseness(*job) error {
	rows, err := eval.RunGroup(scenarios.GroupSyzkaller)
	if err != nil {
		return err
	}
	c := eval.Concise(rows)
	fmt.Println("Conciseness (§5.2, reproduced):")
	fmt.Printf("  memory-accessing instructions per failed execution: avg %.1f (range %d..%d)\n",
		c.AvgMemAccesses, c.MinMemAccesses, c.MaxMemAccesses)
	fmt.Printf("  individual data races per failed execution:         avg %.1f (range %d..%d)\n",
		c.AvgRaces, c.MinRaces, c.MaxRaces)
	fmt.Printf("  data races in the causality chain:                  avg %.1f\n", c.AvgChainRaces)
	benign := 0
	for _, r := range rows {
		benign += r.BenignRaces
	}
	fmt.Printf("  benign races excluded across the corpus:            %d (none appear in any chain)\n\n", benign)
	return nil
}

// baselines runs the baseline comparison once per command line: -baselines
// and -table 1 both render it.
func (c *config) baselines() ([]eval.BaselineRow, error) {
	if c.baselineRows == nil {
		rows, err := eval.RunBaselines(scenarios.GroupSyzkaller, c.seed)
		if err != nil {
			return nil, err
		}
		c.baselineRows = rows
	}
	return c.baselineRows, nil
}

func printBaselines(j *job) error {
	rows, err := j.cfg.baselines()
	if err != nil {
		return err
	}
	t := report.Table{Title: "Baseline comparison on the Syzkaller corpus (§5.2/§5.3, reproduced)"}
	t.Add("Bug", "AITIA chain", "Kairux complete?", "CoopBL covers", "MUVI reaches?")
	var coop, muvi, kair int
	for _, r := range rows {
		if r.CoopBLComplete {
			coop++
		}
		if r.MUVIReaches {
			muvi++
		}
		if r.KairuxComplete {
			kair++
		}
		t.Add(shortTitle(r.Scenario),
			fmt.Sprintf("%d races", r.AITIAChain),
			yesNo(r.KairuxComplete),
			fmt.Sprintf("%d/%d", r.CoopBLCovered, r.AITIAChain),
			yesNo(r.MUVIReaches))
	}
	t.Write(os.Stdout)
	fmt.Printf("  AITIA diagnoses %d/%d; Kairux completes %d/%d; CoopBL completes %d/%d; MUVI reaches %d/%d\n\n",
		len(rows), len(rows), kair, len(rows), coop, len(rows), muvi, len(rows))
	return nil
}

func printTable1(j *job) error {
	rows, err := j.cfg.baselines()
	if err != nil {
		return err
	}
	t := report.Table{Title: "Table 1: requirements matrix (derived from the measured corpus)"}
	t.Add("System", "Comprehensive", "Pattern-agnostic", "Concise", "Evidence")
	for _, r := range eval.Table1(rows) {
		t.Add(r.System, r.Comprehensive, r.PatternAgnostic, r.Concise, r.Evidence)
	}
	t.Write(os.Stdout)
	fmt.Println()
	return nil
}

func printFigure5(*job) error {
	leaves, rep, err := eval.Figure5()
	if err != nil {
		return err
	}
	fmt.Println("Figure 5: LIFS search tree on the fig5 scenario (reproduced)")
	for i, l := range leaves {
		status := ""
		if l.Failed {
			status = "  <- failure"
		}
		fmt.Printf("  search order %2d: %s%s\n", i+1, strings.Join(l.Labels, " => "), status)
	}
	fmt.Printf("  schedules: %d, pruned-equivalent states: %d, reproduced at interleaving count %d\n\n",
		rep.Stats.Schedules, rep.Stats.Pruned, rep.Stats.Interleavings)
	return nil
}

func printChains(*job) error {
	rows, err := eval.RunAll()
	if err != nil {
		return err
	}
	fmt.Println("Causality chains across the corpus:")
	for _, r := range rows {
		fmt.Printf("  %-22s %s\n", r.Scenario.Name, r.Chain)
	}
	fmt.Println()
	return nil
}

func shortTitle(sc *scenarios.Scenario) string {
	if i := strings.IndexByte(sc.Title, ' '); i > 0 && strings.HasPrefix(sc.Title, "#") {
		return sc.Title[:i] + " " + sc.Subsystem
	}
	return sc.Name
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
