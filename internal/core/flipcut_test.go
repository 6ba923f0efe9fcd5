package core

import (
	"testing"

	"aitia/internal/kir"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

// TestCutPointsCoverFlipCuts: on the failing run of every corpus
// scenario, for every race of its test set under both FlipOptions, the
// cut PlanFlipCut returns is the initial state or a position the
// reproduction's prefix seed marks (sched.CutPoints of the found trace,
// taken before the final replay) — so the prefix cache, which pins only
// there, serves every flip's prefix from a pin at its cut. Some cuts sit only
// at a lock acquire (widened critical sections); the test counts them
// and fails if the corpus has none.
func TestCutPointsCoverFlipCuts(t *testing.T) {
	var cuts, lockCuts int
	for _, sc := range scenarios.All() {
		prog := sc.MustProgram()
		rep, err := Reproduce(mustMachine(t, prog), LIFSOptions{
			WantKind:  sc.WantKind,
			WantInstr: sc.WantInstr(),
			LeakCheck: sc.NeedsLeakCheck(),
			Workers:   1,
		})
		if err != nil {
			t.Fatalf("%s: Reproduce: %v", sc.Name, err)
		}
		seq := &rep.Run.Seq
		if rep.seed == nil {
			t.Fatalf("%s: the reproduction carries no prefix seed", sc.Name)
		}
		mark := rep.seed.cuts
		if len(mark) != seq.Len()+1 || mark[seq.Len()] {
			t.Fatalf("%s: CutPoints has %d entries (last %v), want %d with the last unmarked", sc.Name, len(mark), mark[len(mark)-1], seq.Len()+1)
		}
		var fallback []string
		for _, td := range prog.Threads {
			fallback = append(fallback, td.Name)
		}
		for i, r := range rep.Races {
			for _, fo := range []sched.FlipOptions{{}, {NoCriticalSections: true}} {
				cut, _ := sched.PlanFlipCut(prog, seq, r, fallback, fo)
				if cut == 0 {
					continue
				}
				cuts++
				op := prog.InstrAt(seq.Steps[cut].Instr).Op
				if !mark[cut] {
					t.Fatalf("%s race %d %s %+v: cut %d (%s %s) is not a cut point",
						sc.Name, i, r.FormatLong(prog), fo, cut, seq.Name(cut), op)
				}
				if op == kir.OpLock {
					lockCuts++
				}
			}
		}
	}
	if lockCuts == 0 {
		t.Error("no flip in the corpus cuts at a lock acquire")
	}
	t.Logf("%d nonzero cuts, %d at a lock acquire", cuts, lockCuts)
}
