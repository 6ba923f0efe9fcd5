package sched

import (
	"reflect"
	"testing"

	"aitia/internal/kir"
	"aitia/internal/kvm"
)

// failingPhantomRun reproduces the canonical failing run of phantomProg
// (A executes A1, B fails at B3 before A2 runs) and returns the machine,
// its initial snapshot, the run and its full race set (concrete plus
// phantom).
func failingPhantomRun(t *testing.T) (*kir.Program, *kvm.Machine, *kvm.Snapshot, *RunResult, []Race) {
	t.Helper()
	prog := phantomProg(t)
	m, err := kvm.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	am := NewAccessMap()
	init := m.Snapshot()
	res0, err := NewEnforcer(m).Run(Serial("A", "B"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	recordRun(am, res0)

	m.Restore(init)
	a2, _ := prog.ByLabel("A2")
	sch := Schedule{
		Initial:  "A",
		Points:   []Point{{Run: "A", At: a2.ID, To: "B"}},
		Fallback: []string{"A", "B"},
	}
	res, err := NewEnforcer(m).Run(sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatalf("run did not fail: %s", res.FormatSeq(prog, false))
	}
	recordRun(am, res)
	races := append(ExtractRaces(res), PhantomRaces(res, am)...)
	if len(races) == 0 {
		t.Fatal("no races in the failing run")
	}
	return prog, m, init, res, races
}

// TestPlanFlipFromMatchesFullPlan is the contract the prefix cache is
// built on: for any race, enforcing the suffix plan from the flip cut —
// after bringing the machine to that position by replaying the recorded
// sequence, with the recorded prefix as Options.Prefix — returns exactly
// the run that enforcing the full flip plan from the initial state
// returns, and the full plan's prefix is the recorded sequence verbatim.
func TestPlanFlipFromMatchesFullPlan(t *testing.T) {
	prog, m, init, res, races := failingPhantomRun(t)
	fallback := []string{"A", "B"}
	fo := FlipOptions{}
	for i, r := range races {
		cut, suffix := PlanFlipCut(prog, &res.Seq, r, fallback, fo)
		if cut < 0 || cut > res.Seq.Len() {
			t.Fatalf("race %d: cut = %d out of range [0, %d]", i, cut, res.Seq.Len())
		}
		if want := FlipCut(prog, &res.Seq, r, fo); cut != want {
			t.Fatalf("race %d: PlanFlipCut cut %d, FlipCut %d", i, cut, want)
		}
		if want := PlanFlipFrom(prog, &res.Seq, r, fallback, fo, cut); !reflect.DeepEqual(suffix, want) {
			t.Fatalf("race %d: PlanFlipCut suffix %v, PlanFlipFrom %v", i, suffix, want)
		}
		full := PlanFlipOpt(prog, &res.Seq, r, fallback, fo)

		m.Restore(init)
		fres, err := NewEnforcer(m).Run(full, Options{})
		if err != nil {
			t.Fatalf("race %d: full plan: %v", i, err)
		}
		// The full plan replays the recorded sequence verbatim up to the
		// cut — the shared prefix the cache gets to skip.
		if !reflect.DeepEqual(fres.Seq.Steps[:cut], res.Seq.Steps[:cut]) {
			t.Errorf("race %d: full plan diverged from the recorded prefix before the cut", i)
		}

		m.Restore(init)
		for j := 0; j < cut; j++ {
			ev, err := m.Step(kvm.ThreadID(res.Seq.Steps[j].Thread))
			if err != nil || !ev.Executed {
				t.Fatalf("race %d: prefix replay step %d: executed=%v err=%v", i, j, ev.Executed, err)
			}
		}
		sres, err := NewEnforcer(m).Run(suffix, Options{Prefix: res.Seq.Prefix(cut)})
		if err != nil {
			t.Fatalf("race %d: suffix plan: %v", i, err)
		}
		if fres.Base.Len() != 0 {
			t.Errorf("race %d: a run from the initial state has a Base of %d steps", i, fres.Base.Len())
		}
		if !reflect.DeepEqual(fres, sres.Joined()) {
			t.Errorf("race %d: prefix run differs from the full plan's run\nfull:   %+v\nprefix: %+v", i, fres, sres)
		}
	}
}

// TestEnforcerOnStepPositions: the OnStep hook fires once per executed
// step with the cumulative schedule position (len(Prefix) + steps so far)
// — the positions the prefix cache pins at — and the run returns the
// prefix as its Base and records its own steps, numbered from there.
func TestEnforcerOnStepPositions(t *testing.T) {
	_, m, init, res, _ := failingPhantomRun(t)
	m.Restore(init)
	const base = 3
	for j := 0; j < base; j++ {
		if _, err := m.Step(kvm.ThreadID(res.Seq.Steps[j].Thread)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	rr, err := NewEnforcer(m).Run(Serial("A", "B"), Options{
		Prefix: res.Seq.Prefix(base),
		OnStep: func(pos int) { got = append(got, pos) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != rr.Seq.Len() {
		t.Fatalf("OnStep fired %d times for %d executed steps", len(got), rr.Seq.Len())
	}
	for i, pos := range got {
		if pos != base+i+1 {
			t.Fatalf("OnStep[%d] = %d, want %d", i, pos, base+i+1)
		}
	}
	full := rr.Joined().Seq
	if !reflect.DeepEqual(full.Steps[:base], res.Seq.Steps[:base]) || &rr.Base.Steps[0] != &res.Seq.Steps[0] {
		t.Error("the run does not start with its prefix, shared")
	}
	for k, e := range full.Steps {
		if int(e.Step) != k {
			t.Fatalf("Seq[%d].Step = %d", k, e.Step)
		}
	}
}
