package aitia

import (
	"strings"
	"testing"
)

func TestScenariosListing(t *testing.T) {
	list := Scenarios()
	if len(list) < 28 {
		t.Fatalf("corpus = %d scenarios", len(list))
	}
	groups := map[string]int{}
	for _, s := range list {
		groups[s.Group]++
		if s.Name == "" || s.Title == "" {
			t.Errorf("incomplete entry: %+v", s)
		}
	}
	if groups["cve"] != 10 || groups["syzkaller"] != 12 {
		t.Errorf("groups = %v, want 10 CVEs and 12 syzkaller bugs", groups)
	}
}

func TestDiagnoseScenario(t *testing.T) {
	res, err := DiagnoseScenario("cve-2017-15649", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != "kernel BUG (BUG_ON)" {
		t.Errorf("failure = %q", res.Failure)
	}
	want := "(A2 => B11 ∧ B2 => A6) → A6 => B12 → B17 => A12 → kernel BUG (BUG_ON)"
	if res.Chain != want {
		t.Errorf("chain = %q", res.Chain)
	}
	if len(res.ChainRaces) != 4 {
		t.Errorf("chain races = %d", len(res.ChainRaces))
	}
	var phantoms int
	for _, r := range res.ChainRaces {
		if r.Phantom {
			phantoms++
		}
		if r.Variable == "" || r.FirstThread == "" {
			t.Errorf("incomplete race: %+v", r)
		}
	}
	if phantoms != 1 {
		t.Errorf("phantoms = %d, want 1 (B17 => A12)", phantoms)
	}
	if len(res.Benign) == 0 {
		t.Error("the planted benign stats race is missing")
	}
	if !strings.Contains(res.Report(), "Causality chain") {
		t.Error("report not rendered")
	}
	if res.Interleavings != 2 || res.LIFSSchedules == 0 || res.AnalysisSchedules == 0 {
		t.Errorf("stats: %d interleavings, %d LIFS, %d CA",
			res.Interleavings, res.LIFSSchedules, res.AnalysisSchedules)
	}
}

func TestDiagnoseUnknownScenario(t *testing.T) {
	if _, err := DiagnoseScenario("nope", Options{}); err == nil {
		t.Error("unknown scenario should fail")
	}
}

func TestCompileAndDiagnose(t *testing.T) {
	src := `
global flag = 0
ptr    p -> obj
global obj = 1

thread A fa
thread B fb

func fa
@A1 store [flag], 1
@A2 load r1, [p]
@A3 load r2, [r1]
    ret
end

func fb
@B1 load r1, [flag]
    beq r1, 0, out
@B2 store [p], 0
out:
    ret
end
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.Source(), "store [flag], 1") {
		t.Error("Source() does not round-trip")
	}
	res, err := Diagnose(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != "NULL pointer dereference" {
		t.Errorf("failure = %q", res.Failure)
	}
	if res.Chain != "A1 => B1 → B2 => A2 → NULL pointer dereference" {
		t.Errorf("chain = %q", res.Chain)
	}
}

func TestCompileError(t *testing.T) {
	if _, err := Compile("func f\nbroken\nend"); err == nil {
		t.Error("bad source should fail")
	}
}

func TestFuzzAndDiagnose(t *testing.T) {
	sc := Scenarios()
	_ = sc
	srcRes, err := DiagnoseScenario("fig1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(`
global ptr_valid = 0
ptr    ptr -> obj
global obj = 42

thread A thread_a
thread B thread_b

func thread_a
@A1 store [ptr_valid], 1
@A2 load r1, [ptr]
@A2d load r2, [r1]
    ret
end

func thread_b
@B1 load r1, [ptr_valid]
    beq r1, 0, out
@B2 store [ptr], 0
out:
    ret
end
`)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := FuzzAndDiagnose(prog, 7, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fres.Runs <= 0 || fres.CrashReport == "" || fres.Trace == "" {
		t.Errorf("incomplete finding: %+v", fres)
	}
	if fres.Diagnosis.Chain != srcRes.Chain {
		t.Errorf("pipeline chain = %q, direct chain = %q", fres.Diagnosis.Chain, srcRes.Chain)
	}
}

// TestReportRoundTrip: render a scenario's failure as a crash report,
// then diagnose from the report text alone — the chain must match the
// direct trace-driven diagnosis, with no resolution gaps.
func TestReportRoundTrip(t *testing.T) {
	direct, err := DiagnoseScenario("fig1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	text, err := ScenarioReport("fig1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "BUG:") {
		t.Fatalf("report missing title:\n%s", text)
	}
	prog, err := ScenarioProgram("fig1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := DiagnoseReport(prog, text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chain != direct.Chain {
		t.Errorf("report chain = %q, direct chain = %q", res.Chain, direct.Chain)
	}
	if len(res.ReportPartial) != 0 {
		t.Errorf("full synthesized report resolved with gaps: %v", res.ReportPartial)
	}

	// A title-only report is under-specified: diagnosis still lands on
	// the same chain (via the wider search) but the gaps are surfaced.
	title := strings.SplitN(text, "\n", 2)[0]
	partial, err := DiagnoseReport(prog, title+"\n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(partial.ReportPartial) == 0 {
		t.Error("title-only report reported no resolution gaps")
	}
	if partial.Chain != direct.Chain {
		t.Errorf("title-only chain = %q, want %q", partial.Chain, direct.Chain)
	}
}

func TestFailureKindFilter(t *testing.T) {
	// Constraining to the wrong kind must fail to reproduce.
	_, err := DiagnoseScenario("fig1", Options{FailureKind: "KASAN: use-after-free"})
	if err == nil {
		t.Error("wrong failure kind should not reproduce")
	}
}
