package main

import (
	"fmt"
	"testing"

	"aitia"
	"aitia/internal/scenarios"
)

func TestCorpusItemsDeterministic(t *testing.T) {
	a, b, c := corpusItems(1), corpusItems(1), corpusItems(2)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("the same seed gave different corpus orders")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds gave the same corpus order")
	}
	seen := map[string]bool{}
	for _, it := range a {
		seen[it.Scenario] = true
	}
	if len(a) != len(scenarios.All()) || len(seen) != len(a) {
		t.Errorf("corpus order has %d items (%d distinct), want every scenario once (%d)", len(a), len(seen), len(scenarios.All()))
	}
}

func TestServeArrivalsDeterministic(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	reports := []string{"a", "c"}
	gen := func(seed int64) []arrival { return serveArrivals(seed, 100, 60, names, reports, 7) }
	a, b, c := gen(1), gen(1), gen(2)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("the same seed gave different arrivals")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds gave the same arrivals")
	}
	if n := len(a); n != 6000 || len(c) != 6000 {
		t.Errorf("%d and %d arrivals in 60s at 100/s, want 6000", n, len(c))
	}
	if end := a[len(a)-1].At; end >= 60 || end < 59 {
		t.Errorf("last arrival at %.3fs, want just under 60s", end)
	}
	kinds := map[string]int{}
	pads := map[int]bool{}
	last := 0.0
	for i, r := range a {
		kinds[r.Kind]++
		if r.At < last {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		last = r.At
		switch r.Kind {
		case kindRepeat:
			of := a[r.Of]
			if r.Of >= i || of.Kind == kindRepeat || of.Scenario != r.Scenario || of.Pad != r.Pad {
				t.Fatalf("repeat %d does not resubmit an earlier cold job: %+v of %+v", i, r, of)
			}
			if back := i - r.Of; back < repeatMinBack {
				t.Fatalf("repeat %d resubmits a job only %d arrivals back", i, back)
			}
		case kindReport:
			if r.Scenario != "a" && r.Scenario != "c" {
				t.Fatalf("report job for %s, which has no report", r.Scenario)
			}
			fallthrough
		default:
			if pads[r.Pad] || r.Pad < 7 {
				t.Fatalf("cold job %d reuses pad %d", i, r.Pad)
			}
			pads[r.Pad] = true
		}
	}
	share := func(k string) float64 { return float64(kinds[k]) / float64(len(a)) }
	if s := share(kindTrace); s < 0.499 || s > 0.502 {
		t.Errorf("trace share %.4f, want 0.5", s)
	}
	if s := share(kindReport); s < 0.199 || s > 0.201 {
		t.Errorf("report share %.4f, want 0.2", s)
	}
	// Decks deal every scenario equally often.
	perScenario := map[string]int{}
	for _, r := range a {
		if r.Kind == kindTrace {
			perScenario[r.Scenario]++
		}
	}
	lo, hi := len(a), 0
	for _, n := range names {
		lo, hi = min(lo, perScenario[n]), max(hi, perScenario[n])
	}
	if hi-lo > 1 {
		t.Errorf("trace jobs per scenario range over [%d, %d]", lo, hi)
	}
}

// TestUnusedGlobalKeepsChains checks the serve workload's rewrite: a
// program with a prepended, untouched global diagnoses to the same chain
// as the scenario, both from the trace options and from its synthesized
// crash report.
func TestUnusedGlobalKeepsChains(t *testing.T) {
	in, err := newServeInputs()
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range in.names {
		it := in.items[name]
		want := scenarios.GoldenChains[name]
		prog, err := aitia.Compile(padSource(it.Source, 42, i))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := aitia.Diagnose(prog, aitia.Options{
			Workers: 1, FailureKind: it.FailureKind, FailureLabel: it.FailureLabel, LeakCheck: it.LeakCheck,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Chain != want {
			t.Errorf("%s: padded chain %q, golden %q", name, res.Chain, want)
		}
		report, ok := in.reports[name]
		if !ok {
			continue
		}
		res, err = aitia.DiagnoseReport(prog, report, aitia.Options{Workers: 1, LeakCheck: it.LeakCheck})
		if err != nil {
			t.Fatalf("%s: report: %v", name, err)
		}
		if res.Chain != want {
			t.Errorf("%s: padded report chain %q, golden %q", name, res.Chain, want)
		}
	}
}
