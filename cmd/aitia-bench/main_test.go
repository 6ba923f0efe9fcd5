package main

import (
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
)

func selected(t *testing.T, args ...string) []string {
	t.Helper()
	c, err := parse(args, io.Discard)
	if err != nil {
		t.Fatalf("parse(%q): %v", args, err)
	}
	var names []string
	for _, j := range c.jobs {
		names = append(names, j.name)
	}
	return names
}

func TestModesRegistry(t *testing.T) {
	names := map[string]bool{}
	tables := map[int]bool{}
	for _, m := range modes {
		if names[m.name] {
			t.Errorf("mode %q declared twice", m.name)
		}
		names[m.name] = true
		if m.table != 0 {
			if tables[m.table] {
				t.Errorf("-table %d selects two modes", m.table)
			}
			tables[m.table] = true
		}
		if m.run == nil {
			t.Errorf("mode %q has no run function", m.name)
		}
		if m.corpus != "" {
			if _, _, err := resolveCorpus("", m.corpus); err != nil {
				t.Errorf("mode %q: default corpus: %v", m.name, err)
			}
		}
	}

	// The no-flag default is the paper's evaluation: Tables 1–3, the §5.2
	// statistics and baselines, Figure 5, ablations and reproduction —
	// never -chains or a gate.
	want := []string{"table2", "table3", "conciseness", "baselines", "table1", "figure5", "ablations", "reproduction"}
	if got := selected(t); !slices.Equal(got, want) {
		t.Errorf("no-flag selection = %v, want %v", got, want)
	}
	if got := selected(t, "-all"); !slices.Equal(got, want) {
		t.Errorf("-all selection = %v, want %v", got, want)
	}
}

func TestParseSelects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-table", "1"}, []string{"table1"}},
		{[]string{"-table", "1", "-baselines"}, []string{"baselines", "table1"}},
		{[]string{"-check-flips", "base.json", "-out", "fresh.json"}, []string{"check-flips"}},
		{[]string{"-trace", "t.json", "-check-matrix"}, []string{"check-matrix", "trace"}},
	} {
		if got := selected(t, tc.args...); !slices.Equal(got, tc.want) {
			t.Errorf("%q selects %v, want %v", tc.args, got, tc.want)
		}
	}

	c, err := parse([]string{"-check-chains", "-corpus", "extension", "-lifs"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range c.jobs {
		if j.corpus != "extension" || len(j.list) == 0 {
			t.Errorf("-%s resolved corpus %q (%d scenarios), want the explicit -corpus extension", j.name, j.corpus, len(j.list))
		}
	}
	c, err = parse([]string{"-check-chains", "-faults"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.jobs[0].corpus != "all" || c.jobs[1].corpus != "handbuilt" {
		t.Errorf("default corpora = %q, %q; want all, handbuilt", c.jobs[0].corpus, c.jobs[1].corpus)
	}
}

func TestParseRejectsMistypedInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "4"},
		{"-table", "-1"},
		{"check-chains"},
		{"-check-chains", "extra"},
		{"-check-lifs", "a.json", "-check-flips", "b.json", "-out", "x.json"},
		{"-lifs", "-flips", "-out", "x.json"},
		{"-out", "x.json"},
		{"-check-chains", "-corpus", "no-such-subset"},
		{"-no-such-flag"},
	} {
		if _, err := parse(args, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("parse(%q) = %v, want a usage error", args, err)
		}
	}
}

func TestWithin(t *testing.T) {
	for _, tc := range []struct {
		got, base float64
		want      bool
	}{
		{100, 100, true},
		{75, 100, true},
		{125, 100, true},
		{74.9, 100, false},
		{125.1, 100, false},
		{0, 0, true},
		{1, 0, false},
	} {
		if got := within(tc.got, tc.base, 0.25); got != tc.want {
			t.Errorf("within(%g, %g, 0.25) = %v, want %v", tc.got, tc.base, got, tc.want)
		}
	}
	if got, want := band(20, 0.25), "±25%: 15..25"; got != want {
		t.Errorf("band(20, 0.25) = %q, want %q", got, want)
	}
}

func TestTallySummary(t *testing.T) {
	tl := &tally{gate: "check-chains", width: 22}
	if err := tl.err("of %d scenarios diverge", 3); err != nil {
		t.Fatalf("clean tally: err = %v", err)
	}
	tl.line("ok", "fig1", "A => B")
	tl.fail("fig4a", "no golden chain")
	tl.failChain("fig5", "X", "Y")
	err := tl.err("of %d scenarios diverge", 3)
	if err == nil || err.Error() != "check-chains: 2 of 3 scenarios diverge" {
		t.Fatalf("err = %v, want the 2-of-3 summary", err)
	}
	if tl.first != "fig4a" {
		t.Errorf("first failure = %q, want fig4a", tl.first)
	}
}

// TestCompareLIFSReplayExact: the -check-lifs replay gate compares each
// scenario's row exactly — one prefix hit more in one scenario, or a
// scenario gone, fails — and keeps the corpus reduction floor.
func TestCompareLIFSReplayExact(t *testing.T) {
	base := &lifsArtifact{Replay: []lifsReplayRow{
		{Scenario: "fig1", ReplayedOff: 300, ReplayedOn: 10, SavedInstrs: 290, PrefixHits: 3},
		{Scenario: "fig5", ReplayedOff: 800, ReplayedOn: 20, SavedInstrs: 780, PrefixHits: 4},
	}}
	fresh := func(edit func(rows []lifsReplayRow) []lifsReplayRow) *lifsArtifact {
		return &lifsArtifact{Replay: edit(slices.Clone(base.Replay))}
	}
	for _, tc := range []struct {
		name  string
		art   *lifsArtifact
		fails int
	}{
		{"identical", fresh(func(r []lifsReplayRow) []lifsReplayRow { return r }), 0},
		{"one more hit", fresh(func(r []lifsReplayRow) []lifsReplayRow { r[1].PrefixHits++; return r }), 1},
		{"one fewer saved", fresh(func(r []lifsReplayRow) []lifsReplayRow { r[0].SavedInstrs--; return r }), 1},
		{"scenario gone", fresh(func(r []lifsReplayRow) []lifsReplayRow { return r[:1] }), 1},
	} {
		tl := &tally{gate: "check-lifs"}
		compareLIFS(tl, "BENCH_lifs.json", base, tc.art)
		if tl.bad != tc.fails {
			t.Errorf("%s: %d failures, want %d", tc.name, tl.bad, tc.fails)
		}
	}
	// A baseline that itself sits below the floor fails even when the
	// fresh rows equal it.
	low := &lifsArtifact{Replay: []lifsReplayRow{{Scenario: "fig1", ReplayedOff: 40, ReplayedOn: 10}}}
	tl := &tally{gate: "check-lifs"}
	compareLIFS(tl, "BENCH_lifs.json", low, low)
	if tl.bad != 1 {
		t.Errorf("4x reduction: %d failures, want the floor's 1", tl.bad)
	}
}

// TestCompareFlipsExact: flip counts are deterministic, so the
// -check-flips gate fails on any moved warm or skipped count and on any
// moved leave-one-out total, however small.
func TestCompareFlipsExact(t *testing.T) {
	base := &flipsArtifact{
		Scenarios: []flipsRow{
			{Scenario: "fig1", ColdFlips: 2, WarmFlips: 2},
			{Scenario: "fig5", ColdFlips: 3, WarmFlips: 2, WarmSkipped: 1},
		},
		LeaveOneOut: looTotals{Scenarios: 2, ColdFlips: 5, WarmFlips: 4, WarmSkipped: 1},
	}
	fresh := func(edit func(a *flipsArtifact)) *flipsArtifact {
		a := *base
		a.Scenarios = slices.Clone(base.Scenarios)
		edit(&a)
		return &a
	}
	for _, tc := range []struct {
		name  string
		art   *flipsArtifact
		fails int
	}{
		{"identical", fresh(func(*flipsArtifact) {}), 0},
		{"one more skip", fresh(func(a *flipsArtifact) { a.Scenarios[1].WarmFlips--; a.Scenarios[1].WarmSkipped++ }), 1},
		{"one fewer skip", fresh(func(a *flipsArtifact) { a.Scenarios[1].WarmFlips++; a.Scenarios[1].WarmSkipped-- }), 1},
		{"cold moved", fresh(func(a *flipsArtifact) { a.Scenarios[0].ColdFlips++ }), 1},
		{"leave-one-out moved", fresh(func(a *flipsArtifact) { a.LeaveOneOut.WarmSkipped++ }), 1},
		{"new scenario", fresh(func(a *flipsArtifact) { a.Scenarios = append(a.Scenarios, flipsRow{Scenario: "fig7"}) }), 1},
	} {
		tl := &tally{gate: "check-flips"}
		compareFlips(tl, "BENCH_flips.json", base, tc.art)
		if tl.bad != tc.fails {
			t.Errorf("%s: %d failures, want %d", tc.name, tl.bad, tc.fails)
		}
	}
}

// TestGatesEndToEnd runs the cheap gates through the registry exactly as
// the command line selects them. -check-flips holds the committed
// BENCH_flips.json and runs the leave-one-out pass over the whole corpus.
func TestGatesEndToEnd(t *testing.T) {
	for _, args := range [][]string{
		{"-check-matrix"},
		{"-check-chains", "-corpus", "extension"},
		{"-check-flips", "../../BENCH_flips.json"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			c, err := parse(args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
