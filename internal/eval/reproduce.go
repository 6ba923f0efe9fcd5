package eval

import (
	"fmt"
	"runtime"
	"sync"

	"aitia/internal/core"
	"aitia/internal/fuzz"
	"aitia/internal/scenarios"
)

// ReproRow compares LIFS against random scheduling for reproducing one
// specific failure (the crash report's kind and location): how many
// executed schedules each needs. The paper motivates LIFS with the
// observation that most concurrency failures need only a small number of
// interleavings (§3.3); the systematic shallow-first search converts that
// into a small, *deterministic* schedule count, where random scheduling
// pays a seed-dependent expected count.
type ReproRow struct {
	Scenario *scenarios.Scenario
	// LIFSScheds is LIFS's deterministic schedule count.
	LIFSScheds int
	// RandomRuns is the mean number of random-schedule runs until the
	// same failure manifests, over Trials seeds; RandomMax the worst seed.
	RandomRuns float64
	RandomMax  int
	// Trials is the number of random campaigns averaged.
	Trials int
}

// ReproTrials is the number of random campaigns per scenario.
const ReproTrials = 20

// RunReproductionComparison measures LIFS vs. random scheduling on a
// corpus group.
func RunReproductionComparison(g scenarios.Group, seed int64) ([]ReproRow, error) {
	list := scenarios.ByGroup(g)
	rows := make([]ReproRow, len(list))
	errs := make([]error, len(list))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, sc := range list {
		wg.Add(1)
		go func(i int, sc *scenarios.Scenario) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i], errs[i] = reproCompare(sc, seed)
		}(i, sc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func reproCompare(sc *scenarios.Scenario, seed int64) (ReproRow, error) {
	prog, err := sc.Program()
	if err != nil {
		return ReproRow{}, err
	}
	rep, err := ReproduceWith(sc, core.LIFSOptions{})
	if err != nil {
		return ReproRow{}, err
	}
	row := ReproRow{Scenario: sc, LIFSScheds: rep.Stats.Schedules, Trials: ReproTrials}

	total, maxRuns := 0, 0
	for trial := 0; trial < ReproTrials; trial++ {
		fz, err := fuzz.New(prog, fuzz.Options{
			Seed:      seed + int64(trial),
			WantKind:  sc.WantKind,
			WantInstr: sc.WantInstr(),
			LeakCheck: sc.NeedsLeakCheck(),
			MaxRuns:   100000,
		})
		if err != nil {
			return row, err
		}
		finding, err := fz.Campaign()
		if err != nil {
			return row, err
		}
		if finding == nil {
			return row, fmt.Errorf("%s: random scheduling never reproduced (seed %d)", sc.Name, seed+int64(trial))
		}
		total += finding.Runs
		if finding.Runs > maxRuns {
			maxRuns = finding.Runs
		}
	}
	row.RandomRuns = float64(total) / float64(ReproTrials)
	row.RandomMax = maxRuns
	return row, nil
}
