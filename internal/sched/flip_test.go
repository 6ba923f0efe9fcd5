package sched

import (
	"strings"
	"testing"

	"aitia/internal/kir"
	"aitia/internal/kvm"
)

// phantomProg: thread B fails before thread A's conflicting access ever
// runs, so the A-side access is only known from other runs.
func phantomProg(t testing.TB) *kir.Program {
	t.Helper()
	b := kir.NewBuilder()
	b.Var("list", 0)
	b.Var("flag", 0)
	fa := b.Func("fa")
	fa.Store(kir.G("flag"), kir.Imm(1)).L("A1")
	fa.ListAdd(kir.G("list"), kir.Imm(7)).L("A2")
	fa.Ret()
	fb := b.Func("fb")
	fb.Load(kir.R1, kir.G("flag")).L("B1")
	fb.Beq(kir.R(kir.R1), kir.Imm(0), "out")
	fb.ListHas(kir.R2, kir.G("list"), kir.Imm(7)).L("B2")
	fb.Xor(kir.R2, kir.Imm(1))
	fb.BugOn(kir.R(kir.R2)).L("B3")
	fb.At("out").Ret()
	b.Thread("A", "fa")
	b.Thread("B", "fb")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestPhantomRacesAndFlip(t *testing.T) {
	prog := phantomProg(t)
	m, err := kvm.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	am := NewAccessMap()

	// Teach the access map from a full serial run of A.
	init := m.Snapshot()
	res0, err := NewEnforcer(m).Run(Serial("A", "B"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	recordRun(am, res0)

	// Failing run: A executes A1, B then fails at B3 before A2 ever runs.
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

	phantoms := PhantomRaces(res, am)
	if len(phantoms) != 1 {
		var got []string
		for _, r := range phantoms {
			got = append(got, r.FormatLong(prog))
		}
		t.Fatalf("phantoms = %v", got)
	}
	r := phantoms[0]
	if prog.InstrName(r.First.Instr) != "B2" || prog.InstrName(r.Second.Instr) != "A2" {
		t.Fatalf("phantom = %s", r.Format(prog))
	}
	if !r.Phantom || r.SecondStep != -1 {
		t.Errorf("phantom fields: %+v", r)
	}

	// Flipping the phantom lets A2 run before B2: no failure.
	m.Restore(init)
	plan := PlanFlip(prog, &res.Seq, r, []string{"A", "B"})
	res2, err := NewEnforcer(m).Run(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed() {
		t.Errorf("phantom flip still failed: %v\nseq: %s", res2.Failure, res2.FormatSeq(prog, false))
	}
	if order, _, _ := RaceTrace(res2, r); order != -1 {
		t.Errorf("phantom flip order = %d, want -1 (A2 before B2)", order)
	}
}

func TestPlanPhantomFlipAtStepZero(t *testing.T) {
	prog := phantomProg(t)
	m0, err := kvm.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	flagAddr, _ := m0.Space().GlobalAddr("flag")
	// A synthetic phantom whose First access is the very first step.
	r := Race{
		First:      Site{Thread: "B", Instr: prog.MustByLabel("B1").ID},
		Second:     Site{Thread: "A", Instr: prog.MustByLabel("A1").ID},
		Addr:       flagAddr,
		FirstStep:  0,
		SecondStep: -1,
		Phantom:    true,
	}
	var seq Trace
	seq.AddStep("B", prog.MustByLabel("B1").ID, nil)
	sch := PlanPhantomFlip(&seq, r, []string{"A", "B"})
	if sch.Initial != "A" {
		t.Errorf("Initial = %q, want the Second thread", sch.Initial)
	}
	m, err := kvm.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEnforcer(m).Run(sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The flip must be realized: A1 (the phantom's Second) executes
	// before B1 (its First). The downstream BUG is the program's
	// legitimate behaviour under that order and is irrelevant here.
	if got, _, _ := RaceTrace(res, r); got != -1 {
		t.Errorf("flip order = %d, want -1 (A1 before B1); seq: %s",
			got, res.FormatSeq(prog, false))
	}
}

func TestScheduleStrings(t *testing.T) {
	p := Point{Run: "A", At: 5, To: "B"}
	if !strings.Contains(p.String(), "before") {
		t.Errorf("pre point = %q", p.String())
	}
	p.After, p.Skip = true, 2
	if !strings.Contains(p.String(), "after") || !strings.Contains(p.String(), "+2") {
		t.Errorf("after point = %q", p.String())
	}
	sch := Schedule{Initial: "A", Points: []Point{p}}
	if !strings.Contains(sch.String(), "start=A") {
		t.Errorf("schedule = %q", sch.String())
	}
	if Serial().Initial != "" {
		t.Error("empty Serial should have no initial thread")
	}
}

func TestRaceFormatting(t *testing.T) {
	prog := phantomProg(t)
	r := Race{
		First:   Site{Thread: "A", Instr: prog.MustByLabel("A1").ID},
		Second:  Site{Thread: "B", Instr: prog.MustByLabel("B1").ID},
		Addr:    0x101,
		Phantom: true,
		CSLock:  0x200,
	}
	long := r.FormatLong(prog)
	for _, want := range []string{"A1", "B1", "phantom", "critical section"} {
		if !strings.Contains(long, want) {
			t.Errorf("FormatLong misses %q: %s", want, long)
		}
	}
	if r.Key() == r.FlippedKey() {
		t.Error("flipped key should differ")
	}
	if SiteName(prog, r.First) != "A/A1" {
		t.Errorf("SiteName = %q", SiteName(prog, r.First))
	}
}

func TestFromSeqEmpty(t *testing.T) {
	sch := FromSeq(&Trace{}, []string{"A"})
	if sch.Initial != "" || len(sch.Points) != 0 {
		t.Errorf("FromSeq(nil) = %+v", sch)
	}
}

func TestEnforcerFallbackInitial(t *testing.T) {
	prog := phantomProg(t)
	m, err := kvm.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown initial thread: the enforcer falls back to the preference
	// order.
	res, err := NewEnforcer(m).Run(Schedule{Initial: "ghost", Fallback: []string{"B", "A"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq.Len() == 0 || res.Seq.Name(0) != "B" {
		t.Errorf("first exec = %+v", res.Seq.Steps[0])
	}
}

func TestEnforcerSwitchToMissingThread(t *testing.T) {
	prog := phantomProg(t)
	m, err := kvm.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := prog.ByLabel("A2")
	sch := Schedule{
		Initial:  "A",
		Points:   []Point{{Run: "A", At: a2.ID, To: "kworker:nonexistent"}},
		Fallback: []string{"A", "B"},
	}
	res, err := NewEnforcer(m).Run(sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed == 0 {
		t.Error("switch to a missing thread should count as missed")
	}
	// The run still completes.
	if res.Threads["A"] != kvm.Done {
		t.Errorf("A = %v", res.Threads["A"])
	}
}
