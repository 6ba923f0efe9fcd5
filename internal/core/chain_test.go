package core

import (
	"strings"
	"testing"

	"aitia/internal/kir"
	"aitia/internal/sanitizer"
	"aitia/internal/sched"
)

// synthetic builds a Diagnosis whose flip runs are crafted so that
// kills(i, j) matches the given matrix, letting buildChain be tested in
// isolation. Race i occupies steps (2i, 2i+1) and uses address 100+i;
// a flip run "kills" race j by simply not containing j's accesses.
func synthetic(t *testing.T, n int, kills [][]bool, ambiguous map[int]bool) (*Diagnosis, []sched.Race) {
	t.Helper()
	races := make([]sched.Race, n)
	for i := 0; i < n; i++ {
		races[i] = sched.Race{
			First:      sched.Site{Thread: "A", Instr: kir.InstrID(10 + i)},
			Second:     sched.Site{Thread: "B", Instr: kir.InstrID(100 + i)},
			Addr:       uint64(1000 + i),
			FirstStep:  2 * i,
			SecondStep: 2*i + 1,
		}
	}
	mkRun := func(i int) *sched.RunResult {
		res := &sched.RunResult{}
		for j := 0; j < n; j++ {
			if i == j || kills[i][j] {
				continue // the flipped race's victim does not occur
			}
			res.Seq.AddStep("A", races[j].First.Instr, []sched.AccessRec{{Addr: races[j].Addr, Write: true}})
			res.Seq.AddStep("B", races[j].Second.Instr, []sched.AccessRec{{Addr: races[j].Addr}})
		}
		return res
	}
	d := &Diagnosis{Failure: &sanitizer.Failure{Kind: sanitizer.KindBugOn}}
	for i := 0; i < n; i++ {
		v := VerdictRootCause
		if ambiguous[i] {
			v = VerdictAmbiguous
		}
		d.Tested = append(d.Tested, TestedRace{Race: races[i], Verdict: v, FlipRun: mkRun(i)})
	}
	return d, races
}

func TestBuildChainLinear(t *testing.T) {
	// 0 kills 1, 1 kills 2: a linear chain with the transitive edge 0->2
	// reduced away.
	kills := [][]bool{
		{false, true, true}, // 0 kills 1 and (transitively) 2
		{false, false, true},
		{false, false, false},
	}
	d, _ := synthetic(t, 3, kills, nil)
	c := buildChain(d, d.Failure)
	if len(c.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	for i, node := range c.Nodes {
		if len(node.Races) != 1 {
			t.Errorf("node %d has %d races", i, len(node.Races))
		}
	}
	// Each node points only at its successor.
	if len(c.Edges[0]) != 1 || c.Edges[0][0] != 1 {
		t.Errorf("edges[0] = %v (transitive edge not reduced)", c.Edges[0])
	}
	if len(c.Edges[1]) != 1 || c.Edges[1][0] != 2 {
		t.Errorf("edges[1] = %v", c.Edges[1])
	}
	if len(c.Edges[2]) != 0 {
		t.Errorf("edges[2] = %v", c.Edges[2])
	}
}

func TestBuildChainMutualKillConjunction(t *testing.T) {
	// 0 and 1 kill each other (a multi-variable pair); both kill 2.
	kills := [][]bool{
		{false, true, true},
		{true, false, true},
		{false, false, false},
	}
	d, _ := synthetic(t, 3, kills, nil)
	c := buildChain(d, d.Failure)
	if len(c.Nodes) != 2 {
		t.Fatalf("nodes = %d, want conjunction + sink", len(c.Nodes))
	}
	if len(c.Nodes[0].Races) != 2 {
		t.Errorf("first node = %d races, want the conjunction pair", len(c.Nodes[0].Races))
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestBuildChainSuccessorMerge(t *testing.T) {
	// 0 and 1 are independent (no mutual kill) but both kill only 2:
	// identical successor sets merge them into one conjunction node.
	kills := [][]bool{
		{false, false, true},
		{false, false, true},
		{false, false, false},
	}
	d, _ := synthetic(t, 3, kills, nil)
	c := buildChain(d, d.Failure)
	if len(c.Nodes) != 2 || len(c.Nodes[0].Races) != 2 {
		t.Fatalf("nodes = %d (first has %d races)", len(c.Nodes), len(c.Nodes[0].Races))
	}
}

func TestBuildChainAmbiguityFlag(t *testing.T) {
	kills := [][]bool{{false, false}, {false, false}}
	d, _ := synthetic(t, 2, kills, map[int]bool{1: true})
	c := buildChain(d, d.Failure)
	if !c.HasAmbiguity() {
		t.Error("ambiguity flag lost")
	}
	// Rendering marks the ambiguous member.
	found := false
	for _, node := range c.Nodes {
		if strings.Contains(node.Format(progForNames(t)), "(ambiguous)") {
			found = true
		}
	}
	if !found {
		t.Error("rendering misses the (ambiguous) marker")
	}
}

func TestBuildChainEmpty(t *testing.T) {
	d := &Diagnosis{Failure: &sanitizer.Failure{Kind: sanitizer.KindBugOn}}
	c := buildChain(d, d.Failure)
	if c.Len() != 0 || len(c.Nodes) != 0 {
		t.Errorf("empty chain = %+v", c)
	}
	if got := c.Format(progForNames(t)); !strings.Contains(got, "BUG") {
		t.Errorf("empty chain format = %q", got)
	}
}

// progForNames provides a program whose InstrName works for arbitrary ids
// (names fall back to "?", which is fine for these tests).
func progForNames(t *testing.T) *kir.Program {
	t.Helper()
	b := kir.NewBuilder()
	b.Var("g", 0)
	f := b.Func("f")
	f.Ret()
	b.Thread("T", "f")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}
