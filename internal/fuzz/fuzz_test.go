package fuzz

import (
	"testing"

	"aitia/internal/sanitizer"
	"aitia/internal/scenarios"
)

func TestCampaignFindsKnownBug(t *testing.T) {
	sc, _ := scenarios.ByName("fig1")
	fz, err := New(sc.MustProgram(), Options{Seed: 1, MaxRuns: 5000})
	if err != nil {
		t.Fatal(err)
	}
	finding, err := fz.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	if finding == nil {
		t.Fatal("no finding")
	}
	if finding.Failure.Kind != sanitizer.KindNullDeref {
		t.Errorf("kind = %v", finding.Failure.Kind)
	}
	if finding.Trace == nil || finding.Trace.Crash == nil {
		t.Fatal("finding lacks a trace/crash")
	}
	if finding.Report == "" || finding.Runs <= 0 {
		t.Error("finding lacks report or run count")
	}
}

func TestCampaignIsDeterministicPerSeed(t *testing.T) {
	sc, _ := scenarios.ByName("fig1")
	run := func() int {
		fz, err := New(sc.MustProgram(), Options{Seed: 7, MaxRuns: 5000})
		if err != nil {
			t.Fatal(err)
		}
		finding, err := fz.Campaign()
		if err != nil || finding == nil {
			t.Fatalf("finding = %v, %v", finding, err)
		}
		return finding.Runs
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different run counts: %d vs %d", a, b)
	}
}

func TestCollectRunsLabelsBoth(t *testing.T) {
	sc, _ := scenarios.ByName("fig1")
	fz, err := New(sc.MustProgram(), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	runs, err := fz.CollectRuns(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 300 {
		t.Fatalf("runs = %d", len(runs))
	}
	var fail, pass int
	for _, r := range runs {
		if r.Failed() {
			fail++
		} else {
			pass++
		}
		if r.Seq.Len() == 0 {
			t.Fatal("empty run")
		}
	}
	if fail == 0 || pass == 0 {
		t.Errorf("corpus not mixed: %d failing, %d passing", fail, pass)
	}
}

func TestStrategiesFindKnownBugDeterministically(t *testing.T) {
	sc, _ := scenarios.ByName("fig1")
	for _, strat := range Strategies() {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			run := func() int {
				fz, err := New(sc.MustProgram(), Options{Seed: 11, MaxRuns: 20000, Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				finding, err := fz.Campaign()
				if err != nil {
					t.Fatal(err)
				}
				if finding == nil {
					t.Fatalf("strategy %v found nothing", strat)
				}
				if finding.Failure.Kind != sanitizer.KindNullDeref {
					t.Errorf("kind = %v", finding.Failure.Kind)
				}
				return finding.Runs
			}
			if a, b := run(), run(); a != b {
				t.Errorf("same seed, different run counts under %v: %d vs %d", strat, a, b)
			}
		})
	}
}

func TestStrategyNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Strategies() {
		name := s.String()
		if seen[name] {
			t.Errorf("duplicate strategy name %q", name)
		}
		seen[name] = true
	}
	for _, want := range []string{"random", "stress", "priority", "inversion"} {
		if !seen[want] {
			t.Errorf("missing strategy %q", want)
		}
	}
}

func TestCampaignExhaustsOnSafeProgram(t *testing.T) {
	// fig7's program only fails under one specific order; with zero
	// preemption probability forced high... use a trivially safe program:
	sc, _ := scenarios.ByName("fig1")
	prog := sc.MustProgram()
	single, err := prog.Restrict([]string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := New(single, Options{Seed: 1, MaxRuns: 50})
	if err != nil {
		t.Fatal(err)
	}
	finding, err := fz.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	if finding != nil {
		t.Errorf("single-threaded fig1 cannot fail, got %v", finding.Failure)
	}
}
