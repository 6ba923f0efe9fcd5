package report

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"aitia/internal/core"
	"aitia/internal/durable"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

func TestWriteDiagnosis(t *testing.T) {
	sc, _ := scenarios.ByName("cve-2017-15649")
	prog := sc.MustProgram()
	m, err := kvm.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Reproduce(m, core.LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr()})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Analyze(m, rep, core.AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteDiagnosis(&b, prog, rep, d)
	out := b.String()
	for _, want := range []string{
		"Crash report",
		"kernel BUG",
		"Failure-causing instruction sequence",
		"Causality Analysis",
		"benign",
		"root-cause",
		"Causality chain",
		"(A2 => B11 ∧ B2 => A6)",
		"How to fix",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	tb := Table{Title: "T"}
	tb.Add("a", "bb", "c")
	tb.Add("long-cell", "x", "y")
	var b strings.Builder
	tb.Write(&b)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 4 { // title, header, separator, row
		t.Fatalf("lines = %d:\n%s", len(lines), b.String())
	}
	if !strings.Contains(lines[2], "---------") {
		t.Errorf("separator = %q", lines[2])
	}
	// Columns align: "x" starts where "bb" starts.
	if strings.Index(lines[1], "bb") != strings.Index(lines[3], "x") {
		t.Errorf("misaligned:\n%s", b.String())
	}
}

func TestEmptyTable(t *testing.T) {
	var b strings.Builder
	(&Table{Title: "empty"}).Write(&b)
	if !strings.Contains(b.String(), "empty") {
		t.Error("title missing")
	}
}

// TestNameLenMatchesName: the swimlane column width is computed without
// formatting unlabelled instruction names, and must agree with Name() on
// every instruction of every scenario program.
func TestNameLenMatchesName(t *testing.T) {
	for _, sc := range scenarios.All() {
		prog := sc.MustProgram()
		for id := 0; id < prog.NumInstrs(); id++ {
			in := prog.MustInstr(kir.InstrID(id))
			if got, want := nameLen(&in), len(in.Name()); got != want {
				t.Fatalf("%s: %s: nameLen = %d, len(Name()) = %d", sc.Name, in.Name(), got, want)
			}
		}
	}
	in := kir.Instr{Fn: "a_long_function_name", Idx: 123456}
	if got, want := nameLen(&in), len(in.Name()); got != want {
		t.Fatalf("nameLen = %d, len(Name()) = %d", got, want)
	}
}

// TestSwimlanesAllocs: rendering swimlanes allocates nothing per
// unlabelled step — doubling every unlabelled step leaves the allocation
// count unchanged, up to a small slack for fmt's buffer pool, which the
// race detector drains at random.
func TestSwimlanesAllocs(t *testing.T) {
	sc, _ := scenarios.ByName("cve-2017-15649")
	prog := sc.MustProgram()
	m, err := kvm.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Reproduce(m, core.LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr()})
	if err != nil {
		t.Fatal(err)
	}
	seq := &rep.Run.Seq
	doubled := &sched.Trace{Accs: seq.Accs, Locks: seq.Locks, Names: seq.Names}
	for _, e := range seq.Steps {
		doubled.Steps = append(doubled.Steps, e)
		if prog.InstrAt(e.Instr).Label == "" {
			doubled.Steps = append(doubled.Steps, e)
		}
	}
	unlabelled := doubled.Len() - seq.Len()
	allocs := func(seq *sched.Trace) float64 {
		var b strings.Builder
		return testing.AllocsPerRun(10, func() {
			b.Reset()
			WriteSwimlanes(&b, prog, seq)
		})
	}
	if a, d := allocs(seq), allocs(doubled); d > a+float64(unlabelled)/8 {
		t.Errorf("WriteSwimlanes: %.0f allocations for %d steps, %.0f with the %d unlabelled ones doubled", a, seq.Len(), d, unlabelled)
	}
}

func TestDecimalLen(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 99, 100, 12345, math.MaxInt} {
		if got, want := decimalLen(n), len(strconv.Itoa(n)); got != want {
			t.Errorf("decimalLen(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestRestoredDiagnosisReportsLikeFresh: a diagnosis whose flip runs were
// restored from a checkpoint (instructions carrying only their IDs)
// renders the same report as the fresh diagnosis it was saved from, the
// "[disappeared: ...]" notes included.
func TestRestoredDiagnosisReportsLikeFresh(t *testing.T) {
	notes := 0
	for _, sc := range scenarios.HandBuilt() {
		prog := sc.MustProgram()
		m, err := kvm.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Reproduce(m, core.LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr(), LeakCheck: sc.NeedsLeakCheck()})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		st, err := durable.OpenCheckpointStore(t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.AnalysisOptions{LeakCheck: sc.NeedsLeakCheck(), Checkpoint: &core.CheckpointConfig{Store: st}}
		render := func() string {
			d, err := core.Analyze(m, rep, opts)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			var b strings.Builder
			WriteDiagnosis(&b, prog, rep, d)
			// Elapsed times differ between any two runs.
			var kept []string
			for _, line := range strings.Split(b.String(), "\n") {
				if !strings.Contains(line, "elapsed:") {
					kept = append(kept, line)
				}
			}
			return strings.Join(kept, "\n")
		}
		fresh := render()
		restored := render()
		if restored != fresh {
			t.Errorf("%s: restored report differs from fresh:\n--- fresh\n%s\n--- restored\n%s", sc.Name, fresh, restored)
		}
		notes += strings.Count(fresh, "[disappeared:")
	}
	if notes == 0 {
		t.Error("no hand-built scenario reports a disappeared instruction; the test compares nothing")
	}
}
