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

// TestGatesEndToEnd runs two cheap gates through the registry exactly as
// the command line selects them.
func TestGatesEndToEnd(t *testing.T) {
	for _, args := range [][]string{
		{"-check-matrix"},
		{"-check-chains", "-corpus", "extension"},
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
