package eval

import (
	"fmt"

	"aitia/internal/core"
	"aitia/internal/scenarios"
)

// AblationRow measures one design choice of the paper by running the
// pipeline with the mechanism on and off.
type AblationRow struct {
	// Mechanism names the design choice (DESIGN.md §5).
	Mechanism string
	// Scenario is the bug the ablation runs on.
	Scenario string
	// With/Without summarize the measured effect.
	With    string
	Without string
	// Verdict states what the ablation demonstrates.
	Verdict string
}

// RunAblations measures the four design choices called out in DESIGN.md:
// DPOR-style pruning, least-interleaving-first ordering, phantom races,
// and critical-section flip units.
func RunAblations() ([]AblationRow, error) {
	var rows []AblationRow

	// 1. Equivalent-state pruning: schedule count on the hardest CVE.
	{
		sc, _ := scenarios.ByName("cve-2017-15649")
		on, err := ReproduceWith(sc, core.LIFSOptions{})
		if err != nil {
			return nil, err
		}
		off, err := ReproduceWith(sc, core.LIFSOptions{NoPruning: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Mechanism: "DPOR-style equivalent-state pruning",
			Scenario:  sc.Name,
			With:      fmt.Sprintf("%d schedules (%d pruned)", on.Stats.Schedules, on.Stats.Pruned),
			Without:   fmt.Sprintf("%d schedules", off.Stats.Schedules),
			Verdict:   verdictLess(on.Stats.Schedules, off.Stats.Schedules, "pruning reduces the search"),
		})
	}

	// 2. Least-interleaving-first: iterative deepening vs. direct search
	// at the maximum interleaving bound. The mechanism's value is the
	// *minimality* of the reproduction (paper §3.3: most failures need
	// few interleavings): a deep-first search finds *a* failing sequence
	// quickly but with unnecessary preemptions and a larger test set,
	// which every subsequent flip test pays for.
	{
		sc, _ := scenarios.ByName("syz02-packet-frame")
		on, err := ReproduceWith(sc, core.LIFSOptions{})
		if err != nil {
			return nil, err
		}
		off, err := ReproduceWith(sc, core.LIFSOptions{NoLeastFirst: true})
		if err != nil {
			return nil, err
		}
		verdict := "least-first yields the minimal failing interleaving"
		if off.Stats.Interleavings <= on.Stats.Interleavings && len(off.Races) <= len(on.Races) {
			verdict = "no observable difference on this scenario"
		}
		rows = append(rows, AblationRow{
			Mechanism: "least-interleaving-first ordering",
			Scenario:  sc.Name,
			With:      fmt.Sprintf("reproduced at %d interleavings, %d-race test set", on.Stats.Interleavings, len(on.Races)),
			Without:   fmt.Sprintf("reproduced at %d interleavings, %d-race test set", off.Stats.Interleavings, len(off.Races)),
			Verdict:   verdict,
		})
	}

	// 3. Phantom races: the chain of CVE-2017-15649 loses B17 => A12.
	{
		sc, _ := scenarios.ByName("cve-2017-15649")
		prog := sc.MustProgram()
		_, with, err := DiagnoseWith(sc, core.LIFSOptions{}, core.AnalysisOptions{})
		if err != nil {
			return nil, err
		}
		_, without, err := DiagnoseWith(sc, core.LIFSOptions{NoPhantom: true}, core.AnalysisOptions{})
		if err != nil {
			return nil, err
		}
		verdict := "phantom races are required for the full chain"
		if with.Chain.Len() <= without.Chain.Len() {
			verdict = "UNEXPECTED: phantom races did not extend the chain"
		}
		rows = append(rows, AblationRow{
			Mechanism: "phantom races (unexecuted second access)",
			Scenario:  sc.Name,
			With:      fmt.Sprintf("%d-race chain: %s", with.Chain.Len(), with.Chain.Format(prog)),
			Without:   fmt.Sprintf("%d-race chain: %s", without.Chain.Len(), without.Chain.Format(prog)),
			Verdict:   verdict,
		})
	}

	// 4. Critical-section flip units (§3.4 liveness): without the rule,
	// the mutex-protected check race of syz10 cannot be flipped as
	// intended.
	{
		sc, _ := scenarios.ByName("syz10-md-ioctl")
		_, with, err := DiagnoseWith(sc, core.LIFSOptions{}, core.AnalysisOptions{})
		if err != nil {
			return nil, err
		}
		_, without, err := DiagnoseWith(sc, core.LIFSOptions{}, core.AnalysisOptions{NoCriticalSections: true})
		if err != nil {
			return nil, err
		}
		realized := func(d *core.Diagnosis) (n int) {
			for _, tr := range d.Tested {
				if tr.FlipRealized {
					n++
				}
			}
			return
		}
		verdict := "critical-section units keep flips realizable"
		if realized(with) <= realized(without) && with.Chain.Len() == without.Chain.Len() {
			verdict = "no observable difference on this scenario"
		}
		rows = append(rows, AblationRow{
			Mechanism: "critical-section flip units (§3.4)",
			Scenario:  sc.Name,
			With:      fmt.Sprintf("%d/%d flips realized, chain %d", realized(with), len(with.Tested), with.Chain.Len()),
			Without:   fmt.Sprintf("%d/%d flips realized, chain %d", realized(without), len(without.Tested), without.Chain.Len()),
			Verdict:   verdict,
		})
	}

	return rows, nil
}

func verdictLess(with, without int, msg string) string {
	if with < without {
		return fmt.Sprintf("%s (%.1fx fewer schedules)", msg, float64(without)/float64(with))
	}
	return "UNEXPECTED: no reduction on this scenario"
}
