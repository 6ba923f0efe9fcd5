// Command layerbench is the repository's benchmark: it times diagnoses end
// to end on two workloads (corpus, serve), checks every
// verdict, and in a separate traced run splits each workload's verdict
// time across the pipeline's layers. See README.md.
//
// Usage (from the repository root, after building the benchmark and
// aitia-serve; run.py does both):
//
//	layerbench -workload corpus -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ Name, Unit string }

// catalogue is the metric lists of BENCHMARK.json: end-to-end metrics
// for the untraced run, per-layer metrics for the traced run.
type catalogue struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadCatalogue reads the metric lists from BENCHMARK.json in the
// checkout's root.
func loadCatalogue() (catalogue, error) {
	var c catalogue
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return c, fmt.Errorf("BENCHMARK.json lists no end_to_end or per_layer metrics")
	}
	return c, nil
}

// hostScaled are the end-to-end times reported at the reference host
// speed (see calib.go).
var hostScaled = map[string]bool{
	"setup_s":            true,
	"verdict_ms_p50":     true,
	"verdict_ms_p99":     true,
	"cpu_ms_per_verdict": true,
}

// minP99Verdicts is the fewest verdicts a run needs to report a p99.
const minP99Verdicts = 100 * minBeyond

// outcome accumulates one run's verdict counts and metrics. Times are
// stored as measured; the report scales the hostScaled ones.
type outcome struct {
	attempted, failed int
	invalid           []string // reasons the run's latencies cannot be reported
	metrics           map[string]float64
	ledger            *ledger
	host              hostSpeed
	// setupCal holds calibration samples taken between the set-up
	// passes: setup_s is scaled by them, the other times by host's.
	setupCal []float64
}

// sampleSetup takes calibration samples between two set-up passes.
func (o *outcome) sampleSetup() {
	for i := 0; i < calibPerPass; i++ {
		o.setupCal = append(o.setupCal, o.host.once())
	}
}

// factor is the host-speed factor that scales the named metric.
func (o *outcome) factor(name string) float64 {
	if name == "setup_s" {
		return factorOf(o.setupCal)
	}
	return o.host.factor()
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]float64)
	}
	o.metrics[name] = v
}

// attempt counts one diagnosis attempt and whether its verdict was right.
func (o *outcome) attempt(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// latencies records the verdict-time percentiles of the whole run,
// marking the run invalid when it has too few verdicts for a p99, and the
// share of attempts whose verdict came within limitMS at the reference
// host speed. Call it after the run's last calibration sample. The whole
// run, because a window of a thousand corpus verdicts holds nine or ten
// of the slowest scenario's, so a window's p99 would flip between that
// scenario's time and the next one's.
func (o *outcome) latencies(ms []float64, limitMS float64) {
	p50, _ := percentile(ms, 0.50)
	p99, ok := percentile(ms, 0.99)
	if !ok {
		o.invalid = append(o.invalid, fmt.Sprintf("%d verdicts, a p99 needs %d: raise -seconds", len(ms), minP99Verdicts))
	}
	o.set("verdict_ms_p50", p50)
	o.set("verdict_ms_p99", p99)
	met, f := 0, o.host.factor()
	for _, x := range ms {
		if x/f <= limitMS {
			met++
		}
	}
	o.set("slo_met_frac", ratio(float64(met), float64(o.attempted)))
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	serveBin string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: corpus or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "generation seed of the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured duration of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run (per-layer metrics), 0 the end-to-end run")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build/work", "scratch directory for data dirs and traces")
	flag.StringVar(&cfg.serveBin, "serve-bin", ".bench_build/bin/aitia-serve", "aitia-serve binary (serve workload)")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its report and result line.
func run(cfg config) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cat, err := loadCatalogue()
	if err != nil {
		return err
	}
	o := &outcome{}
	if err := o.host.open(); err != nil {
		return err
	}
	defer o.host.close()
	var flags []string
	switch cfg.workload {
	case "corpus":
		// peak_rss_mb is read after one untimed set-up pass with the
		// runtime's default Ps. Everything timed runs on one P: the
		// diagnoses are serial, and on one P the collector's work shares
		// the CPU the calibration samples measure instead of waiting for
		// the host's other CPU, which other tenants contend for (set-up
		// times on two Ps swung 0.2-0.6 s while the factor held). On one
		// P the peak RSS swings by a third with the collector's pacing,
		// hence the separate pass.
		w := &corpus{}
		if err := w.setup(cfg.seed); err != nil {
			return err
		}
		o.set("peak_rss_mb", peakRSSMB(os.Getpid())-calibBytes/1e6)
		runtime.GOMAXPROCS(1)
		setupS, err := w.setupRepeated(cfg.seed, setupReps, o.sampleSetup)
		if err != nil {
			return err
		}
		o.set("setup_s", setupS)
		if cfg.trace {
			path := filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
			if err := w.traced(cfg.seconds, path, o); err != nil {
				return err
			}
			fmt.Printf("trace written to %s\n", path)
		} else {
			w.measure(cfg.seconds, o)
		}
		flags = w.flags
	case "serve":
		if flags, err = runServe(cfg, o); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -workload %q (want corpus or serve)", cfg.workload)
	}
	if len(o.invalid) > 0 {
		for _, why := range o.invalid {
			fmt.Fprintln(os.Stderr, "invalid run:", why)
		}
		return fmt.Errorf("invalid run: latencies not reported")
	}
	return report(cfg, cat, o, flags)
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// report prints the human-readable report (every metric by name and
// unit, failed_frac, failed self-checks, the ledger) and then the
// result line.
func report(cfg config, cat catalogue, o *outcome, flags []string) error {
	o.set("failed_frac", ratio(float64(o.failed), float64(o.attempted)))
	if o.ledger != nil {
		o.set("ledger.unattributed_frac", o.ledger.unattributedFrac())
	}
	defs := cat.EndToEnd
	if cfg.trace {
		defs = cat.PerLayer
	}
	res := resultLine{
		Correct:   len(flags) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue),
	}
	fmt.Printf("workload %s seed %d: %d attempted, %d failed (failed_frac %.4f)\n",
		cfg.workload, cfg.seed, o.attempted, o.failed, o.metrics["failed_frac"])
	if !cfg.trace {
		printCalib(os.Stdout, "run", o.host.samples)
		printCalib(os.Stdout, "set-up", o.setupCal)
	}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if !cfg.trace && hostScaled[d.Name] {
			fmt.Printf("  %-34s %14.6g %s (measured %.6g)\n", d.Name, v/o.factor(d.Name), d.Unit, v)
			v /= o.factor(d.Name)
		} else {
			fmt.Printf("  %-34s %14.6g %s\n", d.Name, v, d.Unit)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	known := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), cat.EndToEnd...), cat.PerLayer...) {
		known[d.Name] = true
	}
	var extra []string
	for name := range o.metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		return fmt.Errorf("metrics missing from BENCHMARK.json: %v", extra)
	}
	if o.ledger != nil {
		o.ledger.print(os.Stdout, cfg.workload)
	}
	for _, f := range flags {
		fmt.Println("SELF-CHECK FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb * 1024 / 1e6
		}
	}
	return 0
}
