package sched

import (
	"math/rand"
	"slices"
	"testing"

	"aitia/internal/kir"
	"aitia/internal/kvm"
)

// This file keeps the map-based race extraction the sorted access index
// replaced, as the reference the index is checked against
// (TestRacesMatchReference in races_corpus_test.go).

// refAccessPoint is one access of a run: its step's index in Seq, and
// whether it writes.
type refAccessPoint struct {
	i     int32
	write bool
}

// refAccessesByAddr flattens a run into per-address ordered access
// lists. It also returns the addresses, in the order of their first
// access.
func refAccessesByAddr(res *RunResult) (map[uint64][]refAccessPoint, []uint64) {
	byAddr := make(map[uint64][]refAccessPoint)
	var addrs []uint64
	for i := range res.Seq.Steps {
		for _, a := range res.Seq.Accesses(i) {
			list, ok := byAddr[a.Addr]
			if !ok {
				addrs = append(addrs, a.Addr)
			}
			byAddr[a.Addr] = append(list, refAccessPoint{i: int32(i), write: a.Write})
		}
	}
	return byAddr, addrs
}

// refExtractRaces is the reference ExtractRaces.
func refExtractRaces(res *RunResult) []Race {
	byAddr, addrs := refAccessesByAddr(res)
	seq := &res.Seq
	slices.Sort(addrs)
	seen := make(map[RaceKey]bool)
	var races []Race
	for _, addr := range addrs {
		list := byAddr[addr]
		for i := 0; i < len(list); i++ {
			first := int(list[i].i)
			for j := i + 1; j < len(list); j++ {
				second := int(list[j].i)
				if seq.Name(second) == seq.Name(first) {
					continue
				}
				if !list[i].write && !list[j].write {
					continue
				}
				r := Race{
					First:      seq.Site(first),
					Second:     seq.Site(second),
					Addr:       addr,
					FirstStep:  int(seq.Steps[first].Step),
					SecondStep: int(seq.Steps[second].Step),
					CSLock:     commonLock(seq.Lockset(first), seq.Lockset(second)),
				}
				if !seen[r.Key()] {
					seen[r.Key()] = true
					races = append(races, r)
				}
				break
			}
		}
	}
	sortRaces(races)
	return races
}

// refPhantomRaces is the reference PhantomRaces.
func refPhantomRaces(res *RunResult, am *AccessMap) []Race {
	unfinished := make(map[string]bool)
	for name, st := range res.Threads {
		if st != kvm.Done {
			unfinished[name] = true
		}
	}
	if len(unfinished) == 0 {
		return nil
	}
	byAddr, _ := refAccessesByAddr(res)
	seq := &res.Seq
	executed := make(map[Site]bool, seq.Len())
	for i := range seq.Steps {
		executed[seq.Site(i)] = true
	}
	seen := make(map[RaceKey]bool)
	var races []Race
	for t, name := range am.names {
		if !unfinished[name] {
			continue
		}
		for instr, addrs := range am.threadSites(int32(t)) {
			s := Site{Thread: name, Instr: instr}
			if executed[s] {
				continue
			}
			for _, a := range addrs {
				list := byAddr[a.addr]
				for i := len(list) - 1; i >= 0; i-- {
					p := int(list[i].i)
					if seq.Name(p) == s.Thread {
						continue
					}
					if !list[i].write && a.mode&modeWrite == 0 {
						continue
					}
					r := Race{
						First:      seq.Site(p),
						Second:     s,
						Addr:       a.addr,
						FirstStep:  int(seq.Steps[p].Step),
						SecondStep: -1,
						Phantom:    true,
					}
					if !seen[r.Key()] {
						seen[r.Key()] = true
						races = append(races, r)
					}
					break
				}
			}
		}
	}
	sortRaces(races)
	return races
}

// RefRaces is the reference Races: the map-based extraction, then the
// map-based phantoms against am (none when am is nil).
func RefRaces(res *RunResult, am *AccessMap) []Race {
	races := refExtractRaces(res)
	if am != nil {
		races = append(races, refPhantomRaces(res, am)...)
	}
	return races
}

// recordRun folds every access of a full run into am.
func recordRun(am *AccessMap, res *RunResult) {
	for i := range res.Seq.Steps {
		for _, a := range res.Seq.Accesses(i) {
			am.Record(res.Seq.Site(i), a.Addr, a.Write)
		}
	}
}

// RaceRun is one run the race extraction is checked on, with the access
// knowledge its phantoms are drawn from.
type RaceRun struct {
	Name string
	Res  *RunResult
	Am   *AccessMap
}

// HandBuiltRaceRuns returns the runs of this package's hand-built
// programs, failing and not, and two synthetic runs: one where a phantom
// site's address was accessed several times by other threads (the
// phantom must pair with the last of them), and one long enough that
// only a stable sort keeps each address's accesses in step order.
func HandBuiltRaceRuns(t testing.TB) []RaceRun {
	t.Helper()
	var runs []RaceRun
	enforce := func(name string, prog *kir.Program, am *AccessMap, sch Schedule) *RunResult {
		res, err := NewEnforcer(machine(t, prog)).Run(sch, Options{})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, RaceRun{Name: name, Res: res, Am: am})
		return res
	}

	racy := racyProg(t)
	a2, _ := racy.ByLabel("A2")
	racyAm := NewAccessMap()
	recordRun(racyAm, enforce("racy/serial-AB", racy, nil, Serial("A", "B")))
	recordRun(racyAm, enforce("racy/serial-BA", racy, nil, Serial("B", "A")))
	enforce("racy/A2-to-B", racy, racyAm, Schedule{
		Initial:  "A",
		Points:   []Point{{Run: "A", At: a2.ID, To: "B"}},
		Fallback: []string{"A", "B"},
	})

	ph := phantomProg(t)
	phAm := NewAccessMap()
	recordRun(phAm, enforce("phantom/serial-AB", ph, nil, Serial("A", "B")))
	pa2, _ := ph.ByLabel("A2")
	enforce("phantom/failing", ph, phAm, Schedule{
		Initial:  "A",
		Points:   []Point{{Run: "A", At: pa2.ID, To: "B"}},
		Fallback: []string{"A", "B"},
	})

	two := twoAddrProg(t)
	twoAm := NewAccessMap()
	recordRun(twoAm, enforce("twoaddr/serial-BA", two, nil, Serial("B", "A")))
	enforce("twoaddr/serial-AB", two, twoAm, Serial("A", "B"))

	const x, y = 0x100, 0x108

	// B writes x twice and reads it, A reads x, then B fails: A's
	// never-executed sites 9 (writes x) and 10 (reads x, y) are
	// phantoms, each paired with the last conflicting access to its
	// address.
	rep := &RunResult{Threads: map[string]kvm.ThreadState{"A": kvm.Runnable, "B": kvm.Crashed}}
	rep.Seq.AddStep("B", 1, []AccessRec{{Addr: x, Write: true}})
	rep.Seq.AddStep("A", 8, []AccessRec{{Addr: x}})
	rep.Seq.AddStep("B", 2, []AccessRec{{Addr: x, Write: true}, {Addr: y, Write: true}})
	rep.Seq.AddStep("B", 3, []AccessRec{{Addr: x}})
	repAm := NewAccessMap()
	repAm.Record(Site{Thread: "A", Instr: 8}, x, false)
	repAm.Record(Site{Thread: "A", Instr: 9}, x, true)
	repAm.Record(Site{Thread: "A", Instr: 10}, x, false)
	repAm.Record(Site{Thread: "A", Instr: 10}, y, false)
	runs = append(runs, RaceRun{Name: "synthetic/repeated-phantom-address", Res: rep, Am: repAm})

	// Three threads, 120 steps of one or two accesses over three
	// addresses, some of them two accesses of one step to one address.
	rng := rand.New(rand.NewSource(7))
	names := []string{"A", "B", "C"}
	long := &RunResult{Threads: map[string]kvm.ThreadState{"A": kvm.Done, "B": kvm.Runnable, "C": kvm.Blocked}}
	longAm := NewAccessMap()
	for k := 0; k < 120; k++ {
		name, instr := names[rng.Intn(3)], kir.InstrID(rng.Intn(40))
		var accs []AccessRec
		for n := 1 + rng.Intn(2); n > 0; n-- {
			accs = append(accs, AccessRec{Addr: x + 8*uint64(rng.Intn(3)), Write: rng.Intn(3) == 0})
		}
		long.Seq.AddStep(name, instr, accs)
	}
	for k := 0; k < 30; k++ {
		s := Site{Thread: names[rng.Intn(3)], Instr: kir.InstrID(40 + rng.Intn(24))}
		longAm.Record(s, x+8*uint64(rng.Intn(3)), rng.Intn(2) == 0)
	}
	runs = append(runs, RaceRun{Name: "synthetic/long", Res: long, Am: longAm})
	return runs
}
