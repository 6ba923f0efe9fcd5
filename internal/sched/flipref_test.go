package sched

import (
	"fmt"
	"reflect"
	"testing"

	"aitia/internal/kir"
)

// refFlipSeqOpt is the whole-sequence flip FlipSeqOpt replaced: it copies
// seq, reorders the displaced region in the copy and repairs spawn order
// over the entire result. The tail planning must agree with it.
func refFlipSeqOpt(seq []Exec, r Race, fo FlipOptions) []Exec {
	i, j := r.FirstStep, r.SecondStep
	if !fo.NoCriticalSections {
		i, j = widenCriticalSections(seq, r)
	}
	tX := r.First.Thread
	out := make([]Exec, 0, len(seq))
	out = append(out, seq[:i]...)
	for k := i; k <= j; k++ {
		if seq[k].Name != tX {
			out = append(out, seq[k])
		}
	}
	for k := i; k <= j; k++ {
		if seq[k].Name == tX {
			out = append(out, seq[k])
		}
	}
	out = append(out, seq[j+1:]...)
	return refRepairSpawnOrder(out)
}

// refRepairSpawnOrder is repairSpawnOrder over a whole sequence, with no
// knowledge of an untouched prefix.
func refRepairSpawnOrder(seq []Exec) []Exec {
	for pass := 0; pass < 8 && refSpawnOrderViolated(seq); pass++ {
		spawnAt := make(map[string]int)
		for pos, e := range seq {
			if e.Spawned != "" {
				if _, dup := spawnAt[e.Spawned]; !dup {
					spawnAt[e.Spawned] = pos
				}
			}
		}
		out := make([]Exec, 0, len(seq))
		var held []Exec
		heldOf := func(name string) bool {
			for _, h := range held {
				if h.Name == name {
					return true
				}
			}
			return false
		}
		for pos, e := range seq {
			sp, spawned := spawnAt[e.Name]
			if (spawned && sp > pos) || heldOf(e.Name) {
				held = append(held, e)
				continue
			}
			out = append(out, e)
			if e.Spawned != "" {
				var rest []Exec
				for _, h := range held {
					if h.Name == e.Spawned {
						out = append(out, h)
					} else {
						rest = append(rest, h)
					}
				}
				held = rest
			}
		}
		seq = append(out, held...)
	}
	return seq
}

func refSpawnOrderViolated(seq []Exec) bool {
	for pos := range seq {
		name := seq[pos].Spawned
		if name == "" {
			continue
		}
		first := true
		for k := 0; k < pos; k++ {
			if seq[k].Spawned == name {
				first = false
				break
			}
		}
		if !first {
			continue
		}
		for k := 0; k < pos; k++ {
			if seq[k].Name == name {
				return true
			}
		}
	}
	return false
}

// checkTailPlan checks that the tail planning of non-phantom race r agrees
// with the whole-sequence reference: the flipped order, the cut (the
// reference's first moved position) and the suffix plan from that cut.
func checkTailPlan(seq []Exec, r Race, fallback []string, fo FlipOptions) error {
	ref := refFlipSeqOpt(seq, r, fo)
	if got := FlipSeqOpt(seq, r, fo); !reflect.DeepEqual(got, ref) {
		return fmt.Errorf("flipped order differs from the whole-sequence flip")
	}
	want := len(ref)
	for k := range ref {
		if ref[k].Step != k {
			want = k
			break
		}
	}
	cut, suffix := PlanFlipCut(seq, r, fallback, fo)
	if cut != want {
		return fmt.Errorf("cut %d, whole-sequence flip moves position %d first", cut, want)
	}
	if w := FromSeq(ref[cut:], fallback); !reflect.DeepEqual(suffix, w) {
		return fmt.Errorf("suffix plan %+v, whole-sequence flip's %+v", suffix, w)
	}
	return nil
}

// CheckTailPlan exposes checkTailPlan to the corpus test, which lives in
// package sched_test so it can reproduce scenarios with internal/core.
var CheckTailPlan = checkTailPlan

// TestFlipTailSpawnRepair: a displaced region holding entries of a
// spawned thread plans the same tail as the whole-sequence flip, both
// when the thread was spawned before the region (its entries must stay
// put, even though the tail spawns it again) and when the spawn lies
// inside the region (the flip delays the spawn, so the repair must hold
// the worker's entries back behind it).
func TestFlipTailSpawnRepair(t *testing.T) {
	instrs := make([]kir.Instr, 16)
	for k := range instrs {
		instrs[k].ID = kir.InstrID(k + 1)
	}
	type step struct {
		name    string
		instr   int
		write   bool // access addr x (0: none)
		read    bool
		spawned string
	}
	const x = 0x100
	build := func(steps []step) []Exec {
		seq := make([]Exec, len(steps))
		for k, s := range steps {
			seq[k] = Exec{Step: k, Name: s.name, Instr: &instrs[s.instr], Spawned: s.spawned}
			if s.write || s.read {
				seq[k].Accesses = []AccessRec{{Addr: x, Write: s.write}}
			}
		}
		return seq
	}
	const kw = "kworker:k"
	cases := []struct {
		name  string
		steps []step
		moves []string // flipped thread order the reference produces
	}{
		{
			name: "spawn-before-region",
			steps: []step{
				{name: "A", instr: 0, spawned: kw},
				{name: kw, instr: 1},
				{name: "A", instr: 2, write: true}, // First
				{name: kw, instr: 3},
				{name: "B", instr: 4, read: true}, // Second
				{name: "B", instr: 5, spawned: kw},
				{name: kw, instr: 6},
			},
			moves: []string{"A", kw, kw, "B", "A", "B", kw},
		},
		{
			name: "spawn-inside-region",
			steps: []step{
				{name: "A", instr: 0},
				{name: "A", instr: 2, write: true, spawned: kw}, // First
				{name: kw, instr: 3},
				{name: "B", instr: 4, read: true}, // Second
				{name: "B", instr: 5},
			},
			moves: []string{"A", "B", "A", kw, "B"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq := build(c.steps)
			races := ExtractRaces(&RunResult{Seq: seq})
			var r *Race
			for k := range races {
				if races[k].First.Instr == instrs[2].ID && races[k].Second.Instr == instrs[4].ID {
					r = &races[k]
				}
			}
			if r == nil {
				t.Fatalf("race A => B not extracted: %+v", races)
			}
			var got []string
			for _, e := range refFlipSeqOpt(seq, *r, FlipOptions{}) {
				got = append(got, e.Name)
			}
			if !reflect.DeepEqual(got, c.moves) {
				t.Fatalf("reference flip %v, want %v", got, c.moves)
			}
			for _, fo := range []FlipOptions{{}, {NoCriticalSections: true}} {
				if err := checkTailPlan(seq, *r, []string{"A", "B"}, fo); err != nil {
					t.Errorf("%+v: %v", fo, err)
				}
			}
		})
	}
}
