package core

import (
	"testing"

	"aitia/internal/kir"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

// rankerScenarios is a cross-section of the corpus: the simple two-race
// figure, the paper's four-race conjunction bug, and a scenario with a
// planted benign race.
var rankerScenarios = []string{"fig1", "cve-2017-15649", "fig4a", "syz08-j1939-refcount"}

// oracles builds a prior slice that settles every final benign verdict
// as SettledBenign and ranks every final root-cause verdict first — a
// perfectly warm prior, which still leaves every chain member's flip to
// run. Ambiguous and unknown races get a neutral score.
func oracles(d *Diagnosis) []FlipPrior {
	priors := make([]FlipPrior, len(d.Tested))
	for i, tr := range d.Tested {
		switch tr.Verdict {
		case VerdictBenign:
			priors[i] = FlipPrior{Score: 0.1, Hit: true, SettledBenign: true}
		case VerdictRootCause:
			priors[i] = FlipPrior{Score: 0.9, Hit: true}
		default:
			priors[i] = FlipPrior{Score: 0.5}
		}
	}
	return priors
}

// TestRankerSettledChainIdentical: an analysis whose ranker settles
// every settleable flip must produce a byte-identical chain and verdict
// sequence to fixed-order analysis, serial and parallel, with the stats
// accounting for every race exactly once.
func TestRankerSettledChainIdentical(t *testing.T) {
	for _, name := range rankerScenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, ok := scenarios.ByName(name)
			if !ok {
				t.Fatalf("unknown scenario %q", name)
			}
			prog := sc.MustProgram()
			opts := LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr(), LeakCheck: sc.NeedsLeakCheck()}

			m := mustMachine(t, prog)
			rep, err := Reproduce(m, opts)
			if err != nil {
				t.Fatalf("Reproduce: %v", err)
			}
			fixed, err := Analyze(m, rep, AnalysisOptions{LeakCheck: sc.NeedsLeakCheck()})
			if err != nil {
				t.Fatalf("fixed-order Analyze: %v", err)
			}
			priors := oracles(fixed)
			wantSkips, wantHits := 0, 0
			for _, p := range priors {
				if p.SettledBenign {
					wantSkips++
				}
				if p.Hit {
					wantHits++
				}
			}

			for _, workers := range []int{0, 8} {
				m2 := mustMachine(t, prog)
				ranked, err := Analyze(m2, rep, AnalysisOptions{
					LeakCheck: sc.NeedsLeakCheck(),
					Workers:   workers,
					Ranker:    alignedRanker{priors: priors},
				})
				if err != nil {
					t.Fatalf("workers=%d ranked Analyze: %v", workers, err)
				}
				if got, want := ranked.Chain.Format(prog), fixed.Chain.Format(prog); got != want {
					t.Errorf("workers=%d chain = %q, want %q", workers, got, want)
				}
				if len(ranked.Tested) != len(fixed.Tested) {
					t.Fatalf("workers=%d test set = %d races, want %d", workers, len(ranked.Tested), len(fixed.Tested))
				}
				for i := range fixed.Tested {
					if ranked.Tested[i].Verdict != fixed.Tested[i].Verdict {
						t.Errorf("workers=%d race %d verdict = %v, want %v",
							workers, i, ranked.Tested[i].Verdict, fixed.Tested[i].Verdict)
					}
				}
				st := ranked.Stats
				if st.FlipsExecuted+st.FlipsSkipped != st.TestSet {
					t.Errorf("workers=%d executed %d + skipped %d != test set %d",
						workers, st.FlipsExecuted, st.FlipsSkipped, st.TestSet)
				}
				if st.FlipsSkipped != wantSkips {
					t.Errorf("workers=%d skipped %d flips, want %d", workers, st.FlipsSkipped, wantSkips)
				}
				if st.PriorHits != wantHits {
					t.Errorf("workers=%d prior hits = %d, want %d", workers, st.PriorHits, wantHits)
				}
				for i, tr := range ranked.Tested {
					if tr.PriorSkipped != priors[i].SettledBenign || (tr.Verdict != VerdictBenign && tr.FlipRun == nil) {
						t.Errorf("workers=%d race %d: skipped %v with verdict %v and run %v, want a run for every chain member",
							workers, i, tr.PriorSkipped, tr.Verdict, tr.FlipRun != nil)
					}
				}
			}
		})
	}
}

// alignedRanker returns its fixed slice only when the length matches the
// candidate count (the FlipRanker contract); otherwise fixed order.
type alignedRanker struct{ priors []FlipPrior }

func (r alignedRanker) RankFlips(_ *kir.Program, races []sched.Race) []FlipPrior {
	if len(races) != len(r.priors) {
		return nil
	}
	return r.priors
}

// TestRankerScoreOnlyChainIdentical: reordering alone (adversarially
// reversed priority, nothing settled) must not change any verdict or the
// chain — ranking changes the work, never the answer.
func TestRankerScoreOnlyChainIdentical(t *testing.T) {
	for _, name := range rankerScenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, _ := scenarios.ByName(name)
			prog := sc.MustProgram()
			opts := LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr(), LeakCheck: sc.NeedsLeakCheck()}

			m := mustMachine(t, prog)
			rep, err := Reproduce(m, opts)
			if err != nil {
				t.Fatalf("Reproduce: %v", err)
			}
			fixed, err := Analyze(m, rep, AnalysisOptions{LeakCheck: sc.NeedsLeakCheck()})
			if err != nil {
				t.Fatalf("fixed-order Analyze: %v", err)
			}
			// Reverse the fixed test order: the race tested last gets the
			// highest score.
			priors := make([]FlipPrior, len(fixed.Tested))
			for i := range priors {
				priors[i] = FlipPrior{Score: float64(i) / float64(len(priors)+1)}
			}
			m2 := mustMachine(t, prog)
			ranked, err := Analyze(m2, rep, AnalysisOptions{
				LeakCheck: sc.NeedsLeakCheck(),
				Ranker:    alignedRanker{priors: priors},
			})
			if err != nil {
				t.Fatalf("ranked Analyze: %v", err)
			}
			if got, want := ranked.Chain.Format(prog), fixed.Chain.Format(prog); got != want {
				t.Errorf("chain = %q, want %q", got, want)
			}
			if ranked.Stats.FlipsExecuted != ranked.Stats.TestSet || ranked.Stats.FlipsSkipped != 0 {
				t.Errorf("executed %d / skipped %d, want %d / 0",
					ranked.Stats.FlipsExecuted, ranked.Stats.FlipsSkipped, ranked.Stats.TestSet)
			}
		})
	}
}

// TestRankerWrongLengthIgnored: a ranker returning a slice of the wrong
// length is ignored entirely — exact fixed-order analysis, no skips, no
// prior hits.
func TestRankerWrongLengthIgnored(t *testing.T) {
	sc, _ := scenarios.ByName("fig1")
	prog := sc.MustProgram()
	m := mustMachine(t, prog)
	rep, err := Reproduce(m, LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr()})
	if err != nil {
		t.Fatalf("Reproduce: %v", err)
	}
	fixed, err := Analyze(m, rep, AnalysisOptions{})
	if err != nil {
		t.Fatalf("fixed-order Analyze: %v", err)
	}
	m2 := mustMachine(t, prog)
	d, err := Analyze(m2, rep, AnalysisOptions{
		Ranker: alignedRanker{priors: make([]FlipPrior, 1000)},
	})
	if err != nil {
		t.Fatalf("ranked Analyze: %v", err)
	}
	if got, want := d.Chain.Format(prog), fixed.Chain.Format(prog); got != want {
		t.Errorf("chain = %q, want %q", got, want)
	}
	if d.Stats.FlipsSkipped != 0 || d.Stats.PriorHits != 0 {
		t.Errorf("skipped %d, prior hits %d, want 0/0", d.Stats.FlipsSkipped, d.Stats.PriorHits)
	}
	if d.Stats.FlipsExecuted != d.Stats.TestSet {
		t.Errorf("executed %d flips, want the full test set %d", d.Stats.FlipsExecuted, d.Stats.TestSet)
	}
}
