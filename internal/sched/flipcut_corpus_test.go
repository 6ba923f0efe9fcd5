package sched_test

import (
	"reflect"
	"testing"

	"aitia/internal/core"
	"aitia/internal/kvm"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

// TestPlanFlipCutCorpus: on the failing run of every corpus scenario, for
// every race of its test set (phantom races included), PlanFlipCut's one
// flip yields exactly FlipCut's cut and PlanFlipFrom's suffix plan, and
// enforcing that suffix after the recorded prefix — with the prefix as
// Options.Prefix — returns a run whose Base followed by Seq deep-equals
// the full flip plan's run.
func TestPlanFlipCutCorpus(t *testing.T) {
	races, phantoms := 0, 0
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
		if err := m.Reset(); err != nil {
			t.Fatal(err)
		}
		init := m.Snapshot()
		seq := &rep.Run.Seq
		var fallback []string
		for _, td := range prog.Threads {
			fallback = append(fallback, td.Name)
		}
		ro := sched.Options{LeakCheck: sc.NeedsLeakCheck()}
		for i, r := range rep.Races {
			races++
			if r.Phantom {
				phantoms++
			}
			for _, fo := range []sched.FlipOptions{{}, {NoCriticalSections: true}} {
				cut, suffix := sched.PlanFlipCut(prog, seq, r, fallback, fo)
				if want := sched.FlipCut(prog, seq, r, fo); cut != want {
					t.Fatalf("%s race %d %+v: PlanFlipCut cut %d, FlipCut %d", sc.Name, i, fo, cut, want)
				}
				if want := sched.PlanFlipFrom(prog, seq, r, fallback, fo, cut); !reflect.DeepEqual(suffix, want) {
					t.Fatalf("%s race %d %+v: PlanFlipCut suffix differs from PlanFlipFrom", sc.Name, i, fo)
				}
				if fo.NoCriticalSections {
					continue
				}

				m.Restore(init)
				full, err := sched.NewEnforcer(m).Run(sched.PlanFlipOpt(prog, seq, r, fallback, fo), ro)
				if err != nil {
					t.Fatalf("%s race %d: full plan: %v", sc.Name, i, err)
				}
				m.Restore(init)
				for j := 0; j < cut; j++ {
					if ev, err := m.Step(kvm.ThreadID(seq.Steps[j].Thread)); err != nil || !ev.Executed {
						t.Fatalf("%s race %d: prefix step %d: executed=%v err=%v", sc.Name, i, j, ev.Executed, err)
					}
				}
				pro := ro
				pro.Prefix = seq.Prefix(cut)
				got, err := sched.NewEnforcer(m).Run(suffix, pro)
				if err != nil {
					t.Fatalf("%s race %d: suffix plan: %v", sc.Name, i, err)
				}
				if got = got.Joined(); !reflect.DeepEqual(got, full) {
					t.Fatalf("%s race %d (cut %d of %d): prefix run differs from the full plan's run\nfull:   switches %d missed %d failure %v, %d steps\nprefix: switches %d missed %d failure %v, %d steps",
						sc.Name, i, cut, seq.Len(), full.Switches, full.Missed, full.Failure, full.Seq.Len(),
						got.Switches, got.Missed, got.Failure, got.Seq.Len())
				}
			}
		}
	}
	if n := len(scenarios.All()); n < 105 {
		t.Errorf("corpus has %d scenarios, want all 105", n)
	}
	if phantoms == 0 {
		t.Error("no phantom race in the corpus")
	}
	t.Logf("%d races (%d phantom) across %d scenarios", races, phantoms, len(scenarios.All()))
}
