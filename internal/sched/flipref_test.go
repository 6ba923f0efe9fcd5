package sched

import (
	"fmt"
	"reflect"
	"testing"

	"aitia/internal/kir"
)

// refFlipSeqOpt is the whole-sequence flip FlipSeqOpt replaced: it copies
// seq, reorders the displaced region in the copy and repairs spawn order
// over the entire result, matching threads by name. The tail planning
// must agree with it.
func refFlipSeqOpt(prog *kir.Program, seq *Trace, r Race, fo FlipOptions) Trace {
	i, j := r.FirstStep, r.SecondStep
	if !fo.NoCriticalSections {
		i, j = widenCriticalSections(prog, seq, r)
	}
	tX := r.First.Thread
	steps := seq.Steps
	out := make([]Exec, 0, len(steps))
	out = append(out, steps[:i]...)
	for k := i; k <= j; k++ {
		if seq.Name(k) != tX {
			out = append(out, steps[k])
		}
	}
	for k := i; k <= j; k++ {
		if seq.Name(k) == tX {
			out = append(out, steps[k])
		}
	}
	out = append(out, steps[j+1:]...)
	return Trace{Steps: refRepairSpawnOrder(seq.Names, out), Accs: seq.Accs, Locks: seq.Locks, Names: seq.Names}
}

// refRepairSpawnOrder is repairSpawnOrder over a whole sequence, with no
// knowledge of an untouched prefix. names is the sequence's name table.
func refRepairSpawnOrder(names []string, seq []Exec) []Exec {
	name := func(id int32) string {
		if id < 0 {
			return ""
		}
		return names[id]
	}
	for pass := 0; pass < 8 && refSpawnOrderViolated(names, seq); pass++ {
		spawnAt := make(map[string]int)
		for pos, e := range seq {
			if sp := name(e.Spawned); sp != "" {
				if _, dup := spawnAt[sp]; !dup {
					spawnAt[sp] = pos
				}
			}
		}
		out := make([]Exec, 0, len(seq))
		var held []Exec
		heldOf := func(n string) bool {
			for _, h := range held {
				if name(h.Thread) == n {
					return true
				}
			}
			return false
		}
		for pos, e := range seq {
			sp, spawned := spawnAt[name(e.Thread)]
			if (spawned && sp > pos) || heldOf(name(e.Thread)) {
				held = append(held, e)
				continue
			}
			out = append(out, e)
			if e.Spawned >= 0 {
				var rest []Exec
				for _, h := range held {
					if name(h.Thread) == name(e.Spawned) {
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

func refSpawnOrderViolated(names []string, seq []Exec) bool {
	for pos := range seq {
		if seq[pos].Spawned < 0 {
			continue
		}
		spawned := names[seq[pos].Spawned]
		first := true
		for k := 0; k < pos; k++ {
			if seq[k].Spawned >= 0 && names[seq[k].Spawned] == spawned {
				first = false
				break
			}
		}
		if !first {
			continue
		}
		for k := 0; k < pos; k++ {
			if names[seq[k].Thread] == spawned {
				return true
			}
		}
	}
	return false
}

// checkTailPlan checks that the tail planning of non-phantom race r agrees
// with the whole-sequence reference: the flipped order, the cut (the
// reference's first moved position) and the suffix plan from that cut.
func checkTailPlan(prog *kir.Program, seq *Trace, r Race, fallback []string, fo FlipOptions) error {
	ref := refFlipSeqOpt(prog, seq, r, fo)
	if got := FlipSeqOpt(prog, seq, r, fo); !reflect.DeepEqual(got, ref) {
		return fmt.Errorf("flipped order differs from the whole-sequence flip")
	}
	want := ref.Len()
	for k, e := range ref.Steps {
		if int(e.Step) != k {
			want = k
			break
		}
	}
	cut, suffix := PlanFlipCut(prog, seq, r, fallback, fo)
	if cut != want {
		return fmt.Errorf("cut %d, whole-sequence flip moves position %d first", cut, want)
	}
	if w := FromSeq(&Trace{Steps: ref.Steps[cut:], Names: ref.Names}, fallback); !reflect.DeepEqual(suffix, w) {
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
	type step struct {
		name    string
		instr   int
		write   bool // access addr x (0: none)
		read    bool
		spawned string
	}
	const x = 0x100
	build := func(steps []step) *Trace {
		seq := &Trace{}
		for _, s := range steps {
			var accs []AccessRec
			if s.write || s.read {
				accs = []AccessRec{{Addr: x, Write: s.write}}
			}
			seq.AddStep(s.name, kir.InstrID(s.instr+1), accs)
		}
		for k, s := range steps {
			if s.spawned != "" {
				seq.Steps[k].Spawned = seq.ID(s.spawned)
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
			races := ExtractRaces(&RunResult{Seq: *seq})
			var r *Race
			for k := range races {
				if races[k].First.Instr == 3 && races[k].Second.Instr == 5 {
					r = &races[k]
				}
			}
			if r == nil {
				t.Fatalf("race A => B not extracted: %+v", races)
			}
			var got []string
			ref := refFlipSeqOpt(nil, seq, *r, FlipOptions{})
			for k := range ref.Steps {
				got = append(got, ref.Name(k))
			}
			if !reflect.DeepEqual(got, c.moves) {
				t.Fatalf("reference flip %v, want %v", got, c.moves)
			}
			for _, fo := range []FlipOptions{{}, {NoCriticalSections: true}} {
				if err := checkTailPlan(nil, seq, *r, []string{"A", "B"}, fo); err != nil {
					t.Errorf("%+v: %v", fo, err)
				}
			}
		})
	}
}
