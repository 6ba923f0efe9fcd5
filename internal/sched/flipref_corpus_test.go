package sched_test

import (
	"testing"

	"aitia/internal/core"
	"aitia/internal/kvm"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

// TestTailPlanMatchesWholeSequenceCorpus: on the failing run of every
// corpus scenario, for every non-phantom race of its test set, with and
// without critical-section widening, the tail planning yields the
// whole-sequence flip's order, cut and suffix plan.
func TestTailPlanMatchesWholeSequenceCorpus(t *testing.T) {
	races := 0
	for _, sc := range scenarios.All() {
		prog := sc.MustProgram()
		m, err := kvm.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Reproduce(m, core.LIFSOptions{
			WantKind:  sc.WantKind,
			WantInstr: sc.WantInstr(),
			LeakCheck: sc.NeedsLeakCheck(),
			Workers:   1,
		})
		if err != nil {
			t.Fatalf("%s: Reproduce: %v", sc.Name, err)
		}
		var fallback []string
		for _, td := range prog.Threads {
			fallback = append(fallback, td.Name)
		}
		for i, r := range rep.Races {
			if r.Phantom {
				continue
			}
			races++
			for _, fo := range []sched.FlipOptions{{}, {NoCriticalSections: true}} {
				if err := sched.CheckTailPlan(prog, &rep.Run.Seq, r, fallback, fo); err != nil {
					t.Fatalf("%s race %d (%s) %+v: %v", sc.Name, i, r.FormatLong(prog), fo, err)
				}
			}
		}
	}
	if n := len(scenarios.All()); n < 105 {
		t.Errorf("corpus has %d scenarios, want all 105", n)
	}
	t.Logf("%d non-phantom races across %d scenarios", races, len(scenarios.All()))
}
