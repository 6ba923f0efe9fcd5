package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// p99 needs at least 1,000 samples, p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it may be reported: only when at least minBeyond samples lie
// beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is the middle value of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a half-open [Start, End) stretch of time in nanoseconds on
// one clock.
type interval struct{ Start, End int64 }

// covered returns the length of the union of the intervals, each clipped
// to within.
func covered(within interval, ivs []interval) int64 {
	var clipped []interval
	for _, iv := range ivs {
		if iv.Start < within.Start {
			iv.Start = within.Start
		}
		if iv.End > within.End {
			iv.End = within.End
		}
		if iv.End > iv.Start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var total int64
	cur := interval{Start: math.MinInt64, End: math.MinInt64}
	for _, iv := range clipped {
		if iv.Start > cur.End {
			total += cur.End - cur.Start
			cur = iv
			continue
		}
		if iv.End > cur.End {
			cur.End = iv.End
		}
	}
	return total + cur.End - cur.Start
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (overlapping children count once).
func selfTime(span interval, children []interval) int64 {
	return span.End - span.Start - covered(span, children)
}

// ledger splits a workload's verdict time across layers. Rows hold
// nanoseconds summed over every verdict of the traced run; Total is the
// summed verdict time the rows must account for.
type ledger struct {
	Verdicts int
	Total    float64
	names    []string
	rows     map[string]float64
}

// add charges ns to a layer row.
func (l *ledger) add(layer string, ns float64) {
	if l.rows == nil {
		l.rows = make(map[string]float64)
	}
	if _, ok := l.rows[layer]; !ok {
		l.names = append(l.names, layer)
	}
	l.rows[layer] += ns
}

// row returns a layer's summed nanoseconds.
func (l *ledger) row(layer string) float64 { return l.rows[layer] }

// unattributed is the verdict time no layer row claims.
func (l *ledger) unattributed() float64 {
	rest := l.Total
	for _, ns := range l.rows {
		rest -= ns
	}
	return rest
}

// unattributedFrac is the unattributed share of the verdict time.
func (l *ledger) unattributedFrac() float64 {
	if l.Total <= 0 {
		return 0
	}
	return l.unattributed() / l.Total
}

// print renders the ledger: per-verdict milliseconds and share per row,
// then the explicit unattributed remainder and the total.
func (l *ledger) print(w io.Writer, workload string) {
	per := func(ns float64) float64 {
		if l.Verdicts == 0 {
			return 0
		}
		return ns / float64(l.Verdicts) / 1e6
	}
	share := func(ns float64) float64 {
		if l.Total <= 0 {
			return 0
		}
		return 100 * ns / l.Total
	}
	fmt.Fprintf(w, "ledger %s: %d verdicts, %.4f ms per verdict\n", workload, l.Verdicts, per(l.Total))
	for _, name := range l.names {
		fmt.Fprintf(w, "  %-22s %10.4f ms %6.1f%%\n", name, per(l.rows[name]), share(l.rows[name]))
	}
	fmt.Fprintf(w, "  %-22s %10.4f ms %6.1f%%\n", "unattributed", per(l.unattributed()), share(l.unattributed()))
}
