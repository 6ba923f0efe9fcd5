// Package kairux reimplements the decision procedure of Kairux (Zhang et
// al., SOSP'19) as the paper's §5.3 comparison baseline: the root cause of
// a failure is the *inflection point* — the first instruction of the
// failed run that deviates from the longest common prefix with the most
// similar non-failed run.
//
// The paper's critique, which this reimplementation lets the evaluation
// demonstrate: an inflection point is a single instruction, so for kernel
// concurrency failures involving multiple data races and race-steered
// control flows it cannot satisfy the comprehensiveness requirement —
// e.g. for the Figure 9 bug it points at the kworker's kfree (K1) without
// explaining that K1 only runs because of the A1 => B1 race in different
// threads.
package kairux

import (
	"fmt"

	"aitia/internal/kir"
	"aitia/internal/sched"
)

// Result is an inflection-point diagnosis.
type Result struct {
	// Site is the inflection point: the first deviating instruction of
	// the failed run.
	Site sched.Site
	// PrefixLen is the length of the longest common prefix between the
	// failed run and its most similar passing run.
	PrefixLen int
	// ClosestPass indexes the passing run realizing that prefix.
	ClosestPass int
}

// Format renders the diagnosis.
func (r *Result) Format(prog *kir.Program) string {
	return fmt.Sprintf("inflection point: %s (%s) after a common prefix of %d instructions",
		sched.SiteName(prog, r.Site), prog.InstrAt(r.Site.Instr).String(), r.PrefixLen)
}

// Analyze locates the inflection point of a failed run against a corpus
// of non-failed runs. It returns an error when no passing runs are
// available or the failed run never deviates (both outside Kairux's
// assumptions). All runs must be full runs (empty Base).
func Analyze(failRun *sched.RunResult, passRuns []*sched.RunResult) (*Result, error) {
	if failRun == nil || !failRun.Failed() {
		return nil, fmt.Errorf("kairux: need a failed run")
	}
	if len(passRuns) == 0 {
		return nil, fmt.Errorf("kairux: need at least one non-failed run")
	}
	// Runs are aligned on their shared-memory interactions: instructions
	// touching only thread-private state (the long non-racy prologue of a
	// system call) schedule nondeterministically without affecting the
	// outcome, and including them would put the first "deviation" into
	// scheduling noise.
	shared := sharedAddrs(failRun, passRuns)
	fseq := siteSeq(failRun, shared)
	if len(fseq) == 0 {
		return nil, fmt.Errorf("kairux: failed run has no shared-memory accesses")
	}
	best, bestIdx := -1, -1
	for i, pr := range passRuns {
		if pr.Failed() {
			continue
		}
		if l := lcp(fseq, siteSeq(pr, shared)); l > best {
			best, bestIdx = l, i
		}
	}
	if bestIdx < 0 {
		return nil, fmt.Errorf("kairux: corpus contains no non-failed runs")
	}
	if best >= len(fseq) {
		return nil, fmt.Errorf("kairux: failed run is a prefix of a passing run; no inflection point")
	}
	return &Result{
		Site:        fseq[best],
		PrefixLen:   best,
		ClosestPass: bestIdx,
	}, nil
}

// sharedAddrs collects the addresses accessed by more than one thread
// anywhere in the run set.
func sharedAddrs(failRun *sched.RunResult, passRuns []*sched.RunResult) map[uint64]bool {
	owner := make(map[uint64]string)
	shared := make(map[uint64]bool)
	note := func(res *sched.RunResult) {
		for k := range res.Seq.Steps {
			name := res.Seq.Name(k)
			for _, a := range res.Seq.Accesses(k) {
				if prev, ok := owner[a.Addr]; ok && prev != name {
					shared[a.Addr] = true
				} else {
					owner[a.Addr] = name
				}
			}
		}
	}
	note(failRun)
	for _, pr := range passRuns {
		note(pr)
	}
	return shared
}

// siteSeq projects a run onto its shared-memory-accessing instructions.
func siteSeq(res *sched.RunResult, shared map[uint64]bool) []sched.Site {
	var out []sched.Site
	for k := range res.Seq.Steps {
		touches := false
		for _, a := range res.Seq.Accesses(k) {
			if shared[a.Addr] {
				touches = true
				break
			}
		}
		if touches {
			out = append(out, res.Seq.Site(k))
		}
	}
	return out
}

func lcp(a, b []sched.Site) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
