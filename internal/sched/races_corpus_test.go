package sched_test

import (
	"reflect"
	"testing"

	"aitia/internal/core"
	"aitia/internal/kvm"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

// TestRacesMatchReference: the sorted access index extracts exactly the
// races, phantoms included and in the same order, as the map-based
// reference, on the failing run of every corpus scenario (with the
// search's access knowledge) and on the hand-built runs.
func TestRacesMatchReference(t *testing.T) {
	runs := sched.HandBuiltRaceRuns(t)
	for _, sc := range scenarios.All() {
		m, err := kvm.New(sc.MustProgram())
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
		runs = append(runs, sched.RaceRun{Name: sc.Name, Res: rep.Run, Am: rep.Accesses})
	}
	phantoms := 0
	for _, r := range runs {
		want := sched.RefRaces(r.Res, r.Am)
		if got := sched.Races(r.Res, r.Am); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Races\n got %+v\nwant %+v", r.Name, got, want)
		}
		if got, want := sched.ExtractRaces(r.Res), sched.RefRaces(r.Res, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ExtractRaces\n got %+v\nwant %+v", r.Name, got, want)
		}
		if r.Am == nil {
			continue
		}
		ph := sched.PhantomRaces(r.Res, r.Am)
		phantoms += len(ph)
		if want := want[len(want)-len(ph):]; len(ph) > 0 && !reflect.DeepEqual(ph, want) {
			t.Errorf("%s: PhantomRaces\n got %+v\nwant %+v", r.Name, ph, want)
		}
	}
	if phantoms == 0 {
		t.Error("no run had a phantom race")
	}
}
