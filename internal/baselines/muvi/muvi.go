// Package muvi reimplements the access-correlation analysis of MUVI (Lu
// et al., SOSP'07) as the paper's comparison baseline for multi-variable
// races. MUVI's key assumption (§2.2): semantically correlated variables
// are accessed *together* most of the time, so correlations can be mined
// statistically and a multi-variable bug is reachable only if its variable
// pair is mined as correlated.
//
// The paper's counterexample class — loosely correlated objects, such as
// CVE-2019-6974's VFS file descriptor vs. KVM device object — defeats the
// assumption: most executions touch one of the two variables without the
// other, the mined confidence stays below threshold, and the pair never
// becomes a candidate.
package muvi

import (
	"fmt"
	"sort"

	"aitia/internal/mem"
	"aitia/internal/sched"
)

// canonical folds all heap addresses into one bucket: MUVI reasons about
// *variables* (objects), not words, and dynamic allocation order varies
// across executions, so per-word heap addresses are not stable mining
// keys. Globals keep their identities.
func canonical(addr uint64) uint64 {
	if addr >= mem.HeapBase {
		return mem.HeapBase
	}
	return addr
}

// Correlation is a mined variable pair with its bidirectional confidence.
type Correlation struct {
	X, Y uint64 // addresses, X < Y
	// ConfXY is P(Y accessed | X accessed) over access units; ConfYX the
	// reverse. MUVI requires both to be high ("if one of these two is
	// accessed, the other should be accessed with a high probability").
	ConfXY, ConfYX float64
	// Units is the number of access units supporting the pair.
	Units int
}

// Confidence returns the pair's effective (minimum-direction) confidence.
func (c Correlation) Confidence() float64 {
	if c.ConfXY < c.ConfYX {
		return c.ConfXY
	}
	return c.ConfYX
}

// DefaultMinConfidence matches MUVI's high-correlation requirement.
const DefaultMinConfidence = 0.8

// Options configure the mining.
type Options struct {
	// MinConfidence is the correlation threshold (DefaultMinConfidence
	// when zero).
	MinConfidence float64
	// MinSupport is the minimum number of units accessing a variable for
	// it to participate (default 2).
	MinSupport int
}

// Mine extracts correlated variable pairs from an execution corpus. The
// access unit is (run, thread): the set of shared addresses one thread
// touched in one execution — the dynamic analogue of MUVI's per-function
// access sets. The runs must be full runs (empty Base).
func Mine(runs []*sched.RunResult, opts Options) []Correlation {
	if opts.MinConfidence <= 0 {
		opts.MinConfidence = DefaultMinConfidence
	}
	if opts.MinSupport <= 0 {
		opts.MinSupport = 2
	}

	// Collect access units.
	var units []map[uint64]bool
	for _, r := range runs {
		byThread := make(map[string]map[uint64]bool)
		for k := range r.Seq.Steps {
			name := r.Seq.Name(k)
			for _, a := range r.Seq.Accesses(k) {
				set := byThread[name]
				if set == nil {
					set = make(map[uint64]bool)
					byThread[name] = set
				}
				set[canonical(a.Addr)] = true
			}
		}
		for _, set := range byThread {
			if len(set) > 0 {
				units = append(units, set)
			}
		}
	}

	count := make(map[uint64]int)
	pair := make(map[[2]uint64]int)
	for _, u := range units {
		addrs := make([]uint64, 0, len(u))
		for a := range u {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for i, x := range addrs {
			count[x]++
			for _, y := range addrs[i+1:] {
				pair[[2]uint64{x, y}]++
			}
		}
	}

	var out []Correlation
	for k, n := range pair {
		x, y := k[0], k[1]
		if count[x] < opts.MinSupport || count[y] < opts.MinSupport {
			continue
		}
		c := Correlation{
			X: x, Y: y,
			ConfXY: float64(n) / float64(count[x]),
			ConfYX: float64(n) / float64(count[y]),
			Units:  n,
		}
		if c.Confidence() >= opts.MinConfidence {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence() != out[j].Confidence() {
			return out[i].Confidence() > out[j].Confidence()
		}
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

// Correlated reports whether the two addresses form a mined pair.
func Correlated(cors []Correlation, a, b uint64) bool {
	if a > b {
		a, b = b, a
	}
	for _, c := range cors {
		if c.X == a && c.Y == b {
			return true
		}
	}
	return false
}

// CanExplain reports whether MUVI's approach reaches the bug whose
// causality chain is given: the chain must involve at least two distinct
// variables (MUVI targets multi-variable bugs only) and every pair of its
// racing variables must be mined as correlated.
func CanExplain(cors []Correlation, chain []sched.Race) (bool, string) {
	vars := make(map[uint64]bool)
	for _, r := range chain {
		vars[canonical(r.Addr)] = true
	}
	if len(vars) < 2 {
		return false, "single-variable failure: outside MUVI's multi-variable scope"
	}
	addrs := make([]uint64, 0, len(vars))
	for a := range vars {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for i, x := range addrs {
		for _, y := range addrs[i+1:] {
			if !Correlated(cors, x, y) {
				return false, fmt.Sprintf("variables %#x and %#x are loosely correlated (below the mining threshold)", x, y)
			}
		}
	}
	return true, "all racing variable pairs are strongly correlated"
}
