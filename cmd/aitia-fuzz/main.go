// Command aitia-fuzz is the bug-finding front end of the pipeline: a
// Syzkaller-style random-schedule fuzzer that executes a kernel program
// under randomized interleavings until a failure manifests, then emits
// the crash report and the timestamped execution trace that command
// aitia (or the library) consumes — and, with -diagnose, runs the full
// diagnosis right away.
//
// With -factory it switches roles and runs the scenario factory instead:
// seeded fuzz campaigns over program generators and corpus mutators,
// each finding delta-debugged, diagnosed, classified into the bug-class
// matrix and emitted as a self-contained generated scenario.
//
// Usage:
//
//	aitia-fuzz -scenario cve-2017-15649 -seed 7
//	aitia-fuzz -file bug.kasm -runs 50000 -diagnose
//	aitia-fuzz -factory -seed 1 -target-count 75 -out internal/scenarios/generated
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"

	"aitia"
	"aitia/internal/factory"
	findingpkg "aitia/internal/finding"
	"aitia/internal/fuzz"
	"aitia/internal/history"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/scenarios"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "fuzz a built-in scenario by name")
		file     = flag.String("file", "", "fuzz a kasm program file")
		seed     = flag.Int64("seed", 1, "campaign seed")
		runs     = flag.Int("runs", 0, "maximum runs (0 = default)")
		leak     = flag.Bool("leak-check", false, "enable the memory-leak oracle")
		diagnose = flag.Bool("diagnose", false, "diagnose the finding with AITIA")
		out      = flag.String("out", "", "write the finding to a JSON file (consumed by 'aitia -finding'); with -factory, the corpus output directory")

		factoryMode  = flag.Bool("factory", false, "run the scenario factory: fuzz, minimize, diagnose, classify, emit")
		targetCount  = flag.Int("target-count", 75, "factory: number of scenarios to emit")
		minClass     = flag.Int("min-class", 3, "factory: minimum combined representatives per failure class (-1 disables)")
		campaignRuns = flag.Int("campaign-runs", 0, "factory: max runs per fuzz campaign (0 = default)")
		metricsAddr  = flag.String("metrics-addr", "", "factory: serve Prometheus progress counters on this address (e.g. :9190)")
	)
	flag.Parse()

	if *factoryMode {
		runFactory(*seed, *targetCount, *minClass, *campaignRuns, *out, *metricsAddr)
		return
	}

	var (
		prog *kir.Program
		err  error
	)
	switch {
	case *scenario != "":
		sc, ok := scenarios.ByName(*scenario)
		if !ok {
			fatal(fmt.Errorf("unknown scenario %q", *scenario))
		}
		if sc.NeedsLeakCheck() {
			*leak = true
		}
		prog, err = sc.Program()
	case *file != "":
		var src []byte
		src, err = os.ReadFile(*file)
		if err == nil {
			prog, err = kasm.Parse(string(src))
		}
	default:
		fmt.Fprintln(os.Stderr, "need -scenario or -file; see -help")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	fz, err := fuzz.New(prog, fuzz.Options{Seed: *seed, MaxRuns: *runs, LeakCheck: *leak})
	if err != nil {
		fatal(err)
	}
	finding, err := fz.Campaign()
	if err != nil {
		fatal(err)
	}
	if finding == nil {
		fmt.Println("no failure found (try more -runs or another -seed)")
		return
	}

	if *out != "" {
		if err := findingpkg.Save(*out, findingpkg.FromFinding(prog, finding)); err != nil {
			fatal(err)
		}
		fmt.Printf("finding written to %s\n", *out)
	}

	fmt.Printf("failure found after %d run(s) (seed %d)\n\n", finding.Runs, finding.Seed)
	fmt.Println("--- crash report ---")
	fmt.Print(finding.Report)
	fmt.Println("\n--- execution trace (ftrace analogue) ---")
	fmt.Print(finding.Trace.Format())
	fmt.Println("\n--- slices (backward from the failure) ---")
	for i, sl := range history.Model(finding.Trace) {
		fmt.Printf("%2d: %s\n", i+1, sl)
	}

	if *diagnose {
		fmt.Println("\n--- AITIA diagnosis ---")
		src := kasm.Disassemble(prog)
		p, err := aitia.Compile(src)
		if err != nil {
			fatal(err)
		}
		fres, err := aitia.FuzzAndDiagnose(p, *seed, *runs, aitia.Options{LeakCheck: *leak})
		if err != nil {
			fatal(err)
		}
		fmt.Print(fres.Diagnosis.Report())
	}
}

// runFactory drives a full factory run and writes the corpus. Progress
// counters stream over -metrics-addr in the same aitia_* Prometheus
// family the service exposes.
func runFactory(seed int64, targetCount, minClass, campaignRuns int, out, metricsAddr string) {
	if out == "" {
		fmt.Fprintln(os.Stderr, "aitia-fuzz: -factory needs -out <dir>")
		os.Exit(2)
	}
	stats := &factory.Stats{}
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			stats.WriteMetrics(w)
		})
		go func() {
			if err := http.ListenAndServe(metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "aitia-fuzz: metrics:", err)
			}
		}()
		fmt.Printf("factory metrics on http://%s/metrics\n", metricsAddr)
	}
	sum, err := factory.Run(context.Background(), factory.Options{
		Seed:         seed,
		TargetCount:  targetCount,
		MinPerClass:  minClass,
		CampaignRuns: campaignRuns,
		Stats:        stats,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	if err := factory.WriteCorpus(out, sum.Emitted); err != nil {
		fatal(err)
	}
	fmt.Printf("\nemitted %d scenarios to %s after %d campaigns\n", len(sum.Emitted), out, sum.Attempts)
	fmt.Printf("campaigns=%d findings=%d emitted=%d duplicates=%d rejected=%d minimize_replays=%d\n",
		stats.Campaigns.Load(), stats.Findings.Load(), stats.Emitted.Load(),
		stats.Duplicates.Load(), stats.Rejected.Load(), stats.MinReplays.Load())
	fmt.Printf("\ncombined bug-class matrix (hand-built + emitted):\n%s", sum.Matrix)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aitia-fuzz:", err)
	os.Exit(1)
}
