package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond: 10
		{999, 0.99, 990, false}, // only 9 beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{100, 0.50, 50, true},
		{1, 0.50, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(%d samples, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestSelfTime(t *testing.T) {
	span := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping children count once", []interval{{110, 150}, {140, 160}}, 50},
		{"nested child inside another", []interval{{110, 190}, {120, 130}}, 20},
		{"children clipped to the span", []interval{{50, 120}, {180, 250}}, 60},
		{"child outside the span", []interval{{0, 50}, {300, 400}}, 100},
		{"child covering the span", []interval{{0, 500}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: self time = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLedgerAccountsForTotal(t *testing.T) {
	l := &ledger{Verdicts: 2, Total: 1000}
	l.add("lifs.kvm_steps", 300)
	l.add("lifs.residual", 200)
	l.add("ca.residual", 150)
	l.add("lifs.kvm_steps", 100) // rows accumulate across verdicts
	if got := l.row("lifs.kvm_steps"); got != 400 {
		t.Errorf("accumulated row = %g, want 400", got)
	}
	if got := l.unattributed(); got != 250 {
		t.Errorf("unattributed = %g, want 250", got)
	}
	if got := l.unattributedFrac(); got != 0.25 {
		t.Errorf("unattributed frac = %g, want 0.25", got)
	}
	sum := l.unattributed()
	for _, name := range l.names {
		sum += l.row(name)
	}
	if sum != l.Total {
		t.Errorf("rows plus unattributed = %g, total %g", sum, l.Total)
	}
	// An over-attributing model shows as a negative remainder, not a
	// clamped zero.
	over := &ledger{Total: 100}
	over.add("x", 130)
	if got := over.unattributedFrac(); math.Abs(got+0.3) > 1e-12 {
		t.Errorf("over-attributed frac = %g, want -0.3", got)
	}
	if got := (&ledger{}).unattributedFrac(); got != 0 {
		t.Errorf("empty ledger frac = %g", got)
	}
}

func TestHostSpeedFactor(t *testing.T) {
	var h hostSpeed
	if got := h.factor(); got != 1 {
		t.Errorf("factor with no samples = %g, want 1", got)
	}
	h.samples = []float64{3 * calibRefMS, calibRefMS, 2 * calibRefMS}
	if got := h.factor(); math.Abs(got-2) > 1e-12 {
		t.Errorf("factor = %g, want the median over the reference, 2", got)
	}
}

func TestCalibrationLoopAllocatesNothing(t *testing.T) {
	var h hostSpeed
	if err := h.open(); err != nil {
		t.Fatal(err)
	}
	defer h.close()
	h.samples = make([]float64, 0, 64)
	if n := testing.AllocsPerRun(4, func() { h.sample(1) }); n != 0 {
		t.Errorf("a calibration sample made %g heap allocations, want 0", n)
	}
	for _, ms := range h.samples {
		if ms <= 0 {
			t.Fatalf("calibration loop took %g ms", ms)
		}
	}
}
