package core

import (
	"testing"

	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
	"aitia/internal/scenarios"
)

// guideFor derives the report guide a crash report would yield for a
// blind reproduction: the last race before the failure as the suspect
// pair, with the write flags taken from the recorded accesses.
func guideFor(rep *Reproduction) *Guide {
	if len(rep.Races) == 0 {
		return &Guide{}
	}
	r := rep.Races[len(rep.Races)-1]
	return &Guide{Suspects: []SuspectAccess{
		{Instr: r.First.Instr, Thread: r.First.Thread, Addr: r.Addr,
			Write: rep.Accesses.Has(r.First, r.Addr, true)},
		{Instr: r.Second.Instr, Thread: r.Second.Thread, Addr: r.Addr,
			Write: rep.Accesses.Has(r.Second, r.Addr, true)},
	}}
}

func TestGuidedReproduceFigure1(t *testing.T) {
	prog := figure1(t)
	a2d, _ := prog.ByLabel("A2d")
	blindOpts := LIFSOptions{WantKind: sanitizer.KindNullDeref, WantInstr: a2d.ID}

	blind, err := Reproduce(mustMachine(t, prog), blindOpts)
	if err != nil {
		t.Fatalf("blind Reproduce: %v", err)
	}

	guided := blindOpts
	guided.Guide = guideFor(blind)
	rep, err := Reproduce(mustMachine(t, prog), guided)
	if err != nil {
		t.Fatalf("guided Reproduce: %v", err)
	}

	if got, want := rep.Run.FormatSeq(prog, false), blind.Run.FormatSeq(prog, false); got != want {
		t.Errorf("guided sequence = %q, want the blind winner %q", got, want)
	}
	if rep.Stats.Interleavings != blind.Stats.Interleavings {
		t.Errorf("guided interleavings = %d, blind = %d", rep.Stats.Interleavings, blind.Stats.Interleavings)
	}
	if rep.Stats.Schedules >= blind.Stats.Schedules {
		t.Errorf("guided schedules = %d, want strictly fewer than blind %d",
			rep.Stats.Schedules, blind.Stats.Schedules)
	}
	if rep.Stats.GuidePruned == 0 {
		t.Error("guided search pruned nothing")
	}
}

// TestGuidedMatchesBlindOnScenarios checks the winner-preservation and
// strict-schedule-reduction properties on representative corpus scenarios
// of different failure kinds (site failure, BUG_ON, completion-time leak,
// background-thread UAF). The full corpus is gated by aitia-bench
// -check-reports.
func TestGuidedMatchesBlindOnScenarios(t *testing.T) {
	for _, name := range []string{"fig1", "fig5", "syz09-seccomp-leak", "cve-2019-6974"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := scenarios.ByName(name)
			if !ok {
				t.Fatalf("scenario %s missing", name)
			}
			prog := sc.MustProgram()
			blindOpts := LIFSOptions{
				WantKind:  sc.WantKind,
				WantInstr: sc.WantInstr(),
				LeakCheck: sc.NeedsLeakCheck(),
			}
			blind, err := Reproduce(mustMachine(t, prog), blindOpts)
			if err != nil {
				t.Fatalf("blind Reproduce: %v", err)
			}

			guided := blindOpts
			if guided.WantInstr == kir.NoInstr {
				// A real report always pins the failing location.
				guided.WantInstr = blind.Run.Failure.Instr
			}
			guided.Guide = guideFor(blind)
			rep, err := Reproduce(mustMachine(t, prog), guided)
			if err != nil {
				t.Fatalf("guided Reproduce: %v", err)
			}
			if got, want := rep.Run.FormatSeq(prog, false), blind.Run.FormatSeq(prog, false); got != want {
				t.Errorf("guided sequence = %q, want %q", got, want)
			}
			if rep.Stats.Schedules >= blind.Stats.Schedules {
				t.Errorf("guided schedules = %d, want strictly fewer than blind %d",
					rep.Stats.Schedules, blind.Stats.Schedules)
			}
		})
	}
}

// TestGuidedParallelMatchesSerial: the guide's prune is a pure function
// of machine state, so the parallel guided search returns the serial
// reproduction.
func TestGuidedParallelMatchesSerial(t *testing.T) {
	prog := figure1(t)
	a2d, _ := prog.ByLabel("A2d")
	opts := LIFSOptions{WantKind: sanitizer.KindNullDeref, WantInstr: a2d.ID}
	blind, err := Reproduce(mustMachine(t, prog), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Guide = guideFor(blind)

	serial, err := Reproduce(mustMachine(t, prog), opts)
	if err != nil {
		t.Fatalf("serial guided: %v", err)
	}
	opts.Workers = 4
	par, err := Reproduce(mustMachine(t, prog), opts)
	if err != nil {
		t.Fatalf("parallel guided: %v", err)
	}
	if got, want := par.Run.FormatSeq(prog, false), serial.Run.FormatSeq(prog, false); got != want {
		t.Errorf("parallel guided sequence = %q, serial = %q", got, want)
	}
	if par.Stats.Interleavings != serial.Stats.Interleavings {
		t.Errorf("parallel interleavings = %d, serial = %d", par.Stats.Interleavings, serial.Stats.Interleavings)
	}
}

// TestGuideDegenerate: guides with unresolvable suspects or no usable
// content must not panic or change the result — the search degrades to
// blind.
func TestGuideDegenerate(t *testing.T) {
	prog := figure1(t)
	blind, err := Reproduce(mustMachine(t, prog), LIFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Guide{
		{},
		{Suspects: []SuspectAccess{{Instr: kir.InstrID(99999), Thread: "A", Addr: 8, Write: true}}},
		{Suspects: []SuspectAccess{{Instr: kir.NoInstr}}},
	} {
		rep, err := Reproduce(mustMachine(t, prog), LIFSOptions{Guide: g})
		if err != nil {
			t.Fatalf("degenerate guide %+v: %v", g, err)
		}
		if got, want := rep.Run.FormatSeq(prog, false), blind.Run.FormatSeq(prog, false); got != want {
			t.Errorf("degenerate guide %+v sequence = %q, want %q", g, got, want)
		}
	}
}

// TestReachOracle exercises the static reachability oracle directly:
// calls descend, branches fork, ret/fall-off pop the frame, exit kills
// the thread, and spawn sites count as calls.
func TestReachOracle(t *testing.T) {
	b := kir.NewBuilder()
	b.Var("x", 0)
	b.Var("y", 0)

	mn := b.Func("main")
	mn.Call("helper").L("M0")
	mn.Store(kir.G("x"), kir.Imm(1)).L("M1")
	mn.Ret()

	h := b.Func("helper")
	h.Load(kir.R1, kir.G("x")).L("H0")
	h.Beq(kir.R(kir.R1), kir.Imm(0), "skip")
	h.Store(kir.G("y"), kir.Imm(1)).L("HY")
	h.At("skip").Ret()

	d := b.Func("dead_end")
	d.Exit().L("D0")

	w := b.Func("spawner")
	w.QueueWork("helper", kir.Imm(0)).L("W0")
	w.Ret()

	// doomed's continuation reaches HY through helper, but only after
	// dead_end pops, which it never does.
	dm := b.Func("doomed")
	dm.Call("dead_end")
	dm.Call("helper")
	dm.Ret()

	b.Thread("T", "main")
	b.Thread("D", "doomed")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	id := func(label string) kir.InstrID {
		in, ok := prog.ByLabel(label)
		if !ok {
			t.Fatalf("label %s missing", label)
		}
		return in.ID
	}

	r := newReach(prog, id("HY"))
	cases := []struct {
		fn   string
		pc   int
		want bool
	}{
		{"helper", 0, true},  // H0 flows to HY
		{"helper", 2, true},  // at HY itself
		{"helper", 3, false}, // past it (skip: ret)
		{"main", 0, true},    // via the call
		{"main", 1, false},   // call already returned
		{"dead_end", 0, false},
		{"spawner", 0, true}, // spawn site counts as a call
	}
	for _, c := range cases {
		if got := r.pos[c.fn][c.pc]; got != c.want {
			t.Errorf("pos[%s][%d] = %v, want %v", c.fn, c.pc, got, c.want)
		}
	}
	if r.exit["dead_end"][0] {
		t.Error("exit[dead_end][0] = true, but OpExit never pops the frame")
	}
	if !r.exit["helper"][0] {
		t.Error("exit[helper][0] = false, want true (ret reachable)")
	}

	// Stack walks over live machine states: the inner frame decides
	// unless it can pop.
	m := mustMachine(t, prog)
	const tT, tD = kvm.ThreadID(0), kvm.ThreadID(1)
	step := func(tid kvm.ThreadID, n int) {
		t.Helper()
		for ; n > 0; n-- {
			if _, err := m.Step(tid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !r.thread(m, tT) {
		t.Error("main@0 reaches HY via the call")
	}
	step(tT, 1)
	if !r.thread(m, tT) {
		t.Error("inner helper@0 should be reachable")
	}
	step(tT, 2) // load x == 0, beq to skip
	if r.thread(m, tT) {
		t.Error("helper@3 pops into main@1 which cannot reach HY")
	}
	step(tD, 1)
	if r.thread(m, tD) {
		t.Error("dead_end never pops; outer frame must not be consulted")
	}
	if r.anyThread(m) {
		t.Error("no thread can reach HY, yet anyThread says one can")
	}
	step(tT, 3) // ret, store x, ret
	if m.NumFrames(tT) != 0 || r.thread(m, tT) {
		t.Errorf("finished thread: %d frames, reachable %v; want none", m.NumFrames(tT), r.thread(m, tT))
	}
}

// TestReachBranchPastEnd: a built program may branch to one past a
// function's last instruction, an implicit return. The oracle reads that
// target as the end of the function, as it reads falling off the end,
// instead of indexing past its bits.
func TestReachBranchPastEnd(t *testing.T) {
	b := kir.NewBuilder()
	b.Var("x", 0)
	b.Var("y", 0)
	mn := b.Func("main")
	mn.Load(kir.R1, kir.G("x"))
	mn.Beq(kir.R(kir.R1), kir.Imm(0), "out")
	mn.Store(kir.G("y"), kir.Imm(1)).L("S")
	mn.At("out")
	b.Thread("T", "main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, ok := prog.ByLabel("S")
	if !ok {
		t.Fatal("label S missing")
	}
	r := newReach(prog, s.ID)
	if got := r.pos["main"]; !got[0] || !got[1] || !got[2] {
		t.Errorf("pos[main] = %v, want S reachable from every instruction", got)
	}
	// main has no ret: it falls off its end, or branches to it, and the
	// kvm pops the frame either way.
	if got := r.exit["main"]; !got[0] || !got[1] || !got[2] {
		t.Errorf("exit[main] = %v, want every instruction able to pop the frame", got)
	}
}

// TestGuidedCalleeFallsOffEnd: a callee with no ret pops its frame at its
// end, so a thread inside it can still reach a target only the caller's
// continuation executes. The guided search must not prune it.
func TestGuidedCalleeFallsOffEnd(t *testing.T) {
	b := kir.NewBuilder()
	b.Var("p", 0)
	b.Var("y", 0)
	mn := b.Func("main")
	mn.Call("helper")
	mn.Load(kir.R1, kir.G("p"))
	mn.Load(kir.R2, kir.Ind(kir.R1, 0)).L("DEREF")
	mn.Ret()
	h := b.Func("helper")
	h.Store(kir.G("y"), kir.Imm(1))
	h.Store(kir.G("y"), kir.Imm(2))
	b.Thread("T", "main")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	deref, _ := prog.ByLabel("DEREF")
	opts := LIFSOptions{WantKind: sanitizer.KindNullDeref, WantInstr: deref.ID}
	blind, err := Reproduce(mustMachine(t, prog), opts)
	if err != nil {
		t.Fatalf("blind Reproduce: %v", err)
	}
	opts.Guide = &Guide{}
	rep, err := Reproduce(mustMachine(t, prog), opts)
	if err != nil {
		t.Fatalf("guided Reproduce: %v", err)
	}
	if got, want := rep.Run.FormatSeq(prog, true), blind.Run.FormatSeq(prog, true); got != want {
		t.Errorf("guided run %q, want the blind run %q", got, want)
	}
	if rep.Stats.GuidePruned != 0 {
		t.Errorf("guided search pruned %d times below a live caller continuation", rep.Stats.GuidePruned)
	}
}
