// Command aitia diagnoses the root cause of a kernel concurrency failure:
// it reproduces the failure with Least Interleaving First Search and
// distills it into a causality chain with Causality Analysis.
//
// Usage:
//
//	aitia -list                          # list the built-in bug corpus
//	aitia -scenario cve-2017-15649       # diagnose a corpus scenario
//	aitia -file bug.kasm                 # diagnose a kasm program
//	aitia -scenario fig1 -quiet          # print only the chain
//	aitia -scenario fig1 -emit-report    # render the failure as a crash report
//	aitia -report crash.txt -scenario fig1  # diagnose from a crash report alone
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"aitia"
	"aitia/internal/core"
	"aitia/internal/finding"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/manager"
	"aitia/internal/obs"
	"aitia/internal/sanitizer"
	"aitia/internal/scenarios"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list the built-in scenario corpus and exit")
		scenario   = flag.String("scenario", "", "diagnose a built-in scenario by name")
		file       = flag.String("file", "", "diagnose a kasm program file")
		findingArg = flag.String("finding", "", "diagnose a finding file written by 'aitia-fuzz -out'")
		reportArg  = flag.String("report", "", "diagnose from a KCSAN/KASAN-style crash report file; the program comes from -scenario or -file")
		emitReport = flag.Bool("emit-report", false, "with -scenario: reproduce the failure and print it as a crash report, then exit")
		export     = flag.String("export-corpus", "", "write every corpus scenario as a .kasm file into this directory and exit")
		verifyFix  = flag.Bool("verify-fix", false, "with -scenario: check that the modelled developer fix prevents the failure; with -file and -fixed: check a custom patch")
		fixedFile  = flag.String("fixed", "", "patched kasm program to verify against -file's diagnosis")
		workers    = flag.Int("workers", 0, "parallel diagnoser instances (0 = GOMAXPROCS)")
		lifsWork   = flag.Int("lifs-workers", 0, "parallelize the LIFS search itself across this many goroutines (0 = serial)")
		kind       = flag.String("failure", "", "expected failure kind from the crash report (optional)")
		label      = flag.String("at", "", "expected failing instruction label (optional)")
		leak       = flag.Bool("leak-check", false, "enable the memory-leak oracle")
		quiet      = flag.Bool("quiet", false, "print only the causality chain")
		traceOut   = flag.String("trace-out", "", "write the diagnosis' execution trace as Chrome trace-event JSON to this path (open in chrome://tracing or https://ui.perfetto.dev)")
		faultSeed  = flag.Int64("fault-seed", 0, "seed for deterministic fault injection (chaos-testing the diagnoser); active when -fault-rate > 0")
		faultRate  = flag.Float64("fault-rate", 0, "per-decision fault probability (snapshot restores, schedule enforcement, worker VMs); 0 disables injection")
		priorDir   = flag.String("prior", "", "directory for the learned flip-ordering prior; diagnoses load it to rank and skip flip tests, then fold their verdicts back in")
	)
	flag.Parse()

	if *list {
		for _, s := range aitia.Scenarios() {
			fmt.Printf("%-22s %-14s %-13s %s\n", s.Name, s.Group+"/"+s.Subsystem, s.BugType, s.Title)
		}
		return
	}
	if *export != "" {
		if err := exportCorpus(*export); err != nil {
			fatal(err)
		}
		return
	}

	opts := aitia.Options{
		Workers:      *workers,
		LIFSWorkers:  *lifsWork,
		FailureKind:  *kind,
		FailureLabel: *label,
		LeakCheck:    *leak,
		FaultSeed:    *faultSeed,
		FaultRate:    *faultRate,
		PriorDir:     *priorDir,
	}
	if *traceOut != "" {
		opts.Tracer = obs.New()
	}

	if *emitReport {
		if *scenario == "" {
			fatal(fmt.Errorf("-emit-report needs -scenario"))
		}
		text, err := aitia.ScenarioReport(*scenario, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
		return
	}

	if *verifyFix {
		if err := runVerifyFix(*scenario, *file, *fixedFile, opts); err != nil {
			fatal(err)
		}
		if err := writeTrace(*traceOut, opts.Tracer); err != nil {
			fatal(err)
		}
		return
	}

	var (
		res *aitia.Result
		err error
	)
	switch {
	case *reportArg != "":
		res, err = diagnoseReport(*reportArg, *scenario, *file, opts)
	case *scenario != "":
		res, err = aitia.DiagnoseScenario(*scenario, opts)
	case *file != "":
		src, rerr := os.ReadFile(*file)
		if rerr != nil {
			fatal(rerr)
		}
		prog, cerr := aitia.Compile(string(src))
		if cerr != nil {
			fatal(cerr)
		}
		res, err = aitia.Diagnose(prog, opts)
	case *findingArg != "":
		res, err = diagnoseFinding(*findingArg, opts)
	default:
		fmt.Fprintln(os.Stderr, "need -scenario, -file, -finding or -list; see -help")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	if err := writeTrace(*traceOut, opts.Tracer); err != nil {
		fatal(err)
	}
	if res.Partial {
		fmt.Fprintf(os.Stderr, "aitia: partial diagnosis (%s): %d race(s) left untested\n",
			res.PartialReason, len(res.Unknown))
	}
	if len(res.ReportPartial) > 0 {
		fmt.Fprintf(os.Stderr, "aitia: report resolved with gaps (%s); diagnosis fell back to a wider search\n",
			strings.Join(res.ReportPartial, ", "))
	}
	if *quiet {
		fmt.Println(res.Chain)
		return
	}
	fmt.Print(res.Report())
}

// writeTrace exports the tracer's events as a Chrome trace-event JSON
// file. A nil tracer (no -trace-out) is a no-op.
func writeTrace(path string, tr *obs.Tracer) error {
	if path == "" || !tr.Enabled() {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "aitia: wrote execution trace to %s (%d spans)\n", path, len(tr.Events()))
	return nil
}

// diagnoseReport runs the pipeline from a crash report alone: the report
// file is parsed and resolved against the program (from -scenario or
// -file), and its suspects seed a constrained LIFS search.
func diagnoseReport(reportPath, scenario, file string, opts aitia.Options) (*aitia.Result, error) {
	text, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, err
	}
	var prog *aitia.Program
	switch {
	case scenario != "":
		prog, err = aitia.ScenarioProgram(scenario)
	case file != "":
		var src []byte
		if src, err = os.ReadFile(file); err == nil {
			prog, err = aitia.Compile(string(src))
		}
	default:
		return nil, fmt.Errorf("-report needs the program it crashed: add -scenario or -file")
	}
	if err != nil {
		return nil, err
	}
	return aitia.DiagnoseReport(prog, string(text), opts)
}

// diagnoseFinding runs the pipeline on a saved bug-finder finding. A
// trace finding is modelled into slices with the crash information
// constraining which failure LIFS accepts; a report-only finding (no
// trace, just a crash report) goes through the report-driven pipeline.
func diagnoseFinding(path string, opts aitia.Options) (*aitia.Result, error) {
	prog, tr, file, err := finding.Load(path)
	if err != nil {
		return nil, err
	}
	if file.ReportOnly() {
		p, err := aitia.Compile(file.Program)
		if err != nil {
			return nil, err
		}
		return aitia.DiagnoseReport(p, file.Report, opts)
	}
	mgr, err := manager.New(prog, manager.Options{Workers: opts.Workers, LIFSWorkers: opts.LIFSWorkers, Tracer: opts.Tracer})
	if err != nil {
		return nil, err
	}
	mres, err := mgr.DiagnoseTrace(context.Background(), tr)
	if err != nil {
		return nil, err
	}
	return aitia.FromManagerResult(prog, mres), nil
}

// runVerifyFix implements the paper's §5.1 verification: diagnose the
// buggy program, then show that the patched variant no longer reproduces
// the failure — the fix removed an interleaving order from the chain.
func runVerifyFix(scenario, file, fixedFile string, opts aitia.Options) error {
	var (
		res       *aitia.Result
		fixedProg *kir.Program
		err       error
	)
	switch {
	case scenario != "":
		sc, ok := scenarios.ByName(scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q", scenario)
		}
		res, err = aitia.DiagnoseScenario(scenario, opts)
		if err != nil {
			return err
		}
		fixedProg, err = sc.Fixed()
		if err != nil {
			return err
		}
	case file != "" && fixedFile != "":
		src, rerr := os.ReadFile(file)
		if rerr != nil {
			return rerr
		}
		prog, cerr := aitia.Compile(string(src))
		if cerr != nil {
			return cerr
		}
		res, err = aitia.Diagnose(prog, opts)
		if err != nil {
			return err
		}
		fsrc, rerr := os.ReadFile(fixedFile)
		if rerr != nil {
			return rerr
		}
		fixedProg, err = kasm.Parse(string(fsrc))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("-verify-fix needs -scenario, or -file plus -fixed")
	}

	fmt.Println("diagnosis of the buggy program:")
	fmt.Println("  " + res.Chain)

	m, err := kvm.New(fixedProg)
	if err != nil {
		return err
	}
	lifs := core.LIFSOptions{LeakCheck: opts.LeakCheck, WantInstr: kir.NoInstr}
	if k, ok := sanitizer.KindByName(res.Failure); ok {
		lifs.WantKind = k
	}
	_, err = core.Reproduce(m, lifs)
	switch {
	case core.IsNotReproduced(err):
		fmt.Println("\nfix verified: the failure does not reproduce on the patched program —")
		fmt.Println("the patch removes an interleaving order present in the chain.")
		return nil
	case err == nil:
		return fmt.Errorf("fix REJECTED: the patched program still reproduces the failure")
	default:
		return err
	}
}

// exportCorpus writes every corpus scenario as a standalone .kasm file,
// with its ground truth as a comment header, so the programs can be
// inspected, edited and re-diagnosed with `aitia -file`.
func exportCorpus(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, sc := range scenarios.All() {
		prog, err := sc.Program()
		if err != nil {
			return err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "; %s — %s\n", sc.Name, sc.Title)
		fmt.Fprintf(&b, "; subsystem: %s, bug type: %s, group: %s\n", sc.Subsystem, sc.BugType, sc.Group)
		fmt.Fprintf(&b, "; expected failure: %s\n", sc.WantKind)
		if sc.WantChain != "" {
			fmt.Fprintf(&b, "; expected chain: %s\n", sc.WantChain)
		}
		if sc.Notes != "" {
			fmt.Fprintf(&b, "; %s\n", sc.Notes)
		}
		b.WriteString("\n")
		b.WriteString(kasm.Disassemble(prog))
		path := filepath.Join(dir, sc.Name+".kasm")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Println(path)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aitia:", err)
	os.Exit(1)
}
