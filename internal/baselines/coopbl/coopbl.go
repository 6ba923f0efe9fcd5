// Package coopbl reimplements the decision procedure of cooperative bug
// localization systems (Snorlax SOSP'17, Gist SOSP'15, CCI OOPSLA'10) as
// the paper's comparison baseline: a set of *predefined single-variable
// interleaving patterns* — order violations and atomicity violations — is
// extracted from many labeled executions, and the pattern with the
// strongest statistical correlation to the failure is reported as the
// root cause.
//
// The evaluation uses it to demonstrate the paper's pattern-agnostic
// argument (§2.2, §5.3): bugs whose root cause is a multi-variable race
// or a race-steered control-flow chain fall outside the pattern
// vocabulary, so the top-ranked pattern covers at most one link of the
// causality chain.
package coopbl

import (
	"fmt"
	"sort"

	"aitia/internal/kir"
	"aitia/internal/sched"
)

// PatternKind is the predefined interleaving-pattern vocabulary.
type PatternKind uint8

const (
	// OrderViolation: remote access B executes before access A although
	// the failure-free executions order A before B (single variable).
	OrderViolation PatternKind = iota
	// AtomicityViolation: a remote conflicting access R interleaves
	// between two same-thread accesses L1, L2 to one variable.
	AtomicityViolation
)

// String returns the pattern-kind name.
func (k PatternKind) String() string {
	switch k {
	case OrderViolation:
		return "order violation"
	case AtomicityViolation:
		return "atomicity violation"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(k))
	}
}

// Pattern is one concrete single-variable interleaving pattern.
type Pattern struct {
	Kind PatternKind
	Addr uint64
	// OrderViolation: First executes before Second.
	// AtomicityViolation: First/Second are the local pair, Remote is the
	// interleaving access.
	First  sched.Site
	Second sched.Site
	Remote sched.Site
}

// Format renders the pattern.
func (p Pattern) Format(prog *kir.Program) string {
	switch p.Kind {
	case OrderViolation:
		return fmt.Sprintf("order violation: %s => %s (addr %#x)",
			prog.InstrName(p.First.Instr), prog.InstrName(p.Second.Instr), p.Addr)
	default:
		return fmt.Sprintf("atomicity violation: %s interleaves %s..%s (addr %#x)",
			prog.InstrName(p.Remote.Instr), prog.InstrName(p.First.Instr),
			prog.InstrName(p.Second.Instr), p.Addr)
	}
}

// Ranked is a pattern with its statistical correlation to the failure.
type Ranked struct {
	Pattern Pattern
	// Score is P(pattern | failing) - P(pattern | passing): the standard
	// cooperative-debugging importance metric.
	Score    float64
	FailRuns int
	PassRuns int
}

// Analyze extracts patterns from a labeled corpus and ranks them by
// correlation with the failure. Runs must contain at least one failing
// and one passing execution, each a full run (empty Base).
func Analyze(runs []*sched.RunResult) ([]Ranked, error) {
	var nFail, nPass int
	failOcc := make(map[Pattern]int)
	passOcc := make(map[Pattern]int)
	for _, r := range runs {
		pats := extract(r)
		if r.Failed() {
			nFail++
			for p := range pats {
				failOcc[p]++
			}
		} else {
			nPass++
			for p := range pats {
				passOcc[p]++
			}
		}
	}
	if nFail == 0 || nPass == 0 {
		return nil, fmt.Errorf("coopbl: corpus needs failing and passing runs (have %d/%d)", nFail, nPass)
	}
	seen := make(map[Pattern]bool)
	var out []Ranked
	for p, c := range failOcc {
		seen[p] = true
		out = append(out, Ranked{
			Pattern:  p,
			Score:    float64(c)/float64(nFail) - float64(passOcc[p])/float64(nPass),
			FailRuns: c,
			PassRuns: passOcc[p],
		})
	}
	for p, c := range passOcc {
		if !seen[p] {
			out = append(out, Ranked{Pattern: p, Score: -float64(c) / float64(nPass), PassRuns: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return less(out[i].Pattern, out[j].Pattern)
	})
	return out, nil
}

func less(a, b Pattern) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Addr != b.Addr {
		return a.Addr < b.Addr
	}
	if a.First != b.First {
		return a.First.Thread < b.First.Thread || (a.First.Thread == b.First.Thread && a.First.Instr < b.First.Instr)
	}
	return a.Second.Instr < b.Second.Instr
}

// extract collects the pattern occurrences of one run.
func extract(res *sched.RunResult) map[Pattern]bool {
	type acc struct {
		site  sched.Site
		write bool
	}
	byAddr := make(map[uint64][]acc)
	for k := range res.Seq.Steps {
		for _, a := range res.Seq.Accesses(k) {
			byAddr[a.Addr] = append(byAddr[a.Addr], acc{site: res.Seq.Site(k), write: a.Write})
		}
	}
	out := make(map[Pattern]bool)
	for addr, list := range byAddr {
		for i := 0; i < len(list); i++ {
			// Order violations: the observed order of each cross-thread
			// conflicting pair.
			for j := i + 1; j < len(list); j++ {
				a, b := list[i], list[j]
				if a.site.Thread == b.site.Thread || (!a.write && !b.write) {
					continue
				}
				out[Pattern{Kind: OrderViolation, Addr: addr, First: a.site, Second: b.site}] = true
				break
			}
			// Atomicity violations: remote conflicting access between two
			// consecutive local accesses.
			if i+2 < len(list) {
				l1, r, l2 := list[i], list[i+1], list[i+2]
				if l1.site.Thread == l2.site.Thread && r.site.Thread != l1.site.Thread &&
					(r.write || l1.write || l2.write) {
					out[Pattern{Kind: AtomicityViolation, Addr: addr, First: l1.site, Second: l2.site, Remote: r.site}] = true
				}
			}
		}
	}
	return out
}

// MatchesRace reports whether the pattern corresponds to the given data
// race (same variable and the pattern's interleaving includes the race's
// site pair in either role).
func (p Pattern) MatchesRace(r sched.Race) bool {
	if p.Addr != r.Addr {
		return false
	}
	pair := func(a, b sched.Site) bool {
		return (a == r.First && b == r.Second) || (a == r.Second && b == r.First)
	}
	switch p.Kind {
	case OrderViolation:
		return pair(p.First, p.Second)
	default:
		return pair(p.First, p.Remote) || pair(p.Remote, p.Second)
	}
}

// Covers reports how many of the chain's races the top-ranked pattern
// explains — the comprehensiveness comparison of §5.3. A diagnosis that
// covers fewer than all chain races is partial; cooperative bug
// localization reports exactly one pattern, so any multi-race chain is at
// best partially covered.
func Covers(top Ranked, chain []sched.Race) int {
	n := 0
	for _, r := range chain {
		if top.Pattern.MatchesRace(r) {
			n++
		}
	}
	return n
}
