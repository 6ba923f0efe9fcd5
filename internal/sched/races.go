package sched

import (
	"fmt"
	"slices"
	"sort"

	"aitia/internal/kir"
	"aitia/internal/kvm"
)

// Race is an ordered data race: two conflicting accesses (same address, at
// least one store) by different threads, with First observed before Second.
// Following the paper's notation, a Race with First=X and Second=Y denotes
// the interleaving order X(addr) => Y(addr).
//
// A Phantom race is one whose Second access never executed in the observed
// run: the failure truncated the thread before it got there, but the access
// is known from other explorations (the paper's B17 => A12, where A12 is
// pre-empted away by the failure at B17). Flipping a phantom race means
// letting Second execute before First.
type Race struct {
	First  Site
	Second Site
	Addr   uint64

	FirstStep  int // index of First in the run's Seq
	SecondStep int // index of Second in the run's Seq; -1 for phantom races
	Phantom    bool

	// CSLock is nonzero when both accesses were performed inside critical
	// sections of the same lock; such races are flipped as whole critical
	// sections (paper §3.4, liveness).
	CSLock uint64
}

// Key identifies a race by its static site pair, the identity used for
// deduplication and for membership in the test/root-cause sets.
type RaceKey struct {
	First  Site
	Second Site
}

// Key returns the race's static identity.
func (r Race) Key() RaceKey { return RaceKey{First: r.First, Second: r.Second} }

// Flipped returns the static identity of the reversed order.
func (r Race) FlippedKey() RaceKey { return RaceKey{First: r.Second, Second: r.First} }

// LastStep returns the run position that orders this race for backward
// processing: the step of its latest involved access.
func (r Race) LastStep() int {
	if r.Phantom || r.SecondStep < 0 {
		return r.FirstStep
	}
	return r.SecondStep
}

// Format renders the race in paper notation, e.g. "A6 => B12".
func (r Race) Format(prog *kir.Program) string {
	return prog.InstrName(r.First.Instr) + " => " + prog.InstrName(r.Second.Instr)
}

// FormatLong renders the race with thread and address detail.
func (r Race) FormatLong(prog *kir.Program) string {
	s := fmt.Sprintf("%s => %s (addr %#x)", SiteName(prog, r.First), SiteName(prog, r.Second), r.Addr)
	if r.Phantom {
		s += " [phantom]"
	}
	if r.CSLock != 0 {
		s += fmt.Sprintf(" [critical section %#x]", r.CSLock)
	}
	return s
}

// commonLock returns a lock present in both locksets (0 if none).
func commonLock(a, b []uint64) uint64 {
	for _, la := range a {
		for _, lb := range b {
			if la == lb {
				return la
			}
		}
	}
	return 0
}

// accessPoint is one access of a run: its step's index in Seq, and
// whether it writes.
type accessPoint struct {
	i     int32
	write bool
}

// accessesByAddr flattens a run into per-address ordered access lists. It
// also returns the addresses, in the order of their first access.
func accessesByAddr(res *RunResult) (map[uint64][]accessPoint, []uint64) {
	byAddr := make(map[uint64][]accessPoint)
	var addrs []uint64
	for i := range res.Seq {
		for _, a := range res.Seq[i].Accesses {
			list, ok := byAddr[a.Addr]
			if !ok {
				addrs = append(addrs, a.Addr)
			}
			byAddr[a.Addr] = append(list, accessPoint{i: int32(i), write: a.Write})
		}
	}
	return byAddr, addrs
}

// ExtractRaces returns the data races observed in a run: for every address
// and every access, the pair formed with the *next conflicting access by a
// different thread* (at least one of the two is a store), in observed
// order, deduplicated by static site pair. Addresses are visited in
// ascending order, so when one site pair races on several addresses the
// race on the lowest address wins.
//
// Pairing with the next conflicting access — rather than only the
// immediately adjacent one — matters for patterns like double frees, where
// both threads read the same pointer before either clears it
// (read_A, read_B, write_B, write_A): the race read_A => write_B is the
// one whose flip prevents the failure, and it is not an adjacent pair.
// The result is sorted by LastStep so that Causality Analysis can pop
// races from the back of the failure-causing sequence. res must be a
// full run (empty Base), such as a reproduction's failing run.
func ExtractRaces(res *RunResult) []Race {
	byAddr, addrs := accessesByAddr(res)
	slices.Sort(addrs)
	seen := make(map[RaceKey]bool)
	var races []Race
	for _, addr := range addrs {
		list := byAddr[addr]
		for i := 0; i < len(list); i++ {
			first := &res.Seq[list[i].i]
			for j := i + 1; j < len(list); j++ {
				second := &res.Seq[list[j].i]
				if second.Name == first.Name {
					continue
				}
				if !list[i].write && !list[j].write {
					continue
				}
				r := Race{
					First:      first.Site(),
					Second:     second.Site(),
					Addr:       addr,
					FirstStep:  first.Step,
					SecondStep: second.Step,
					CSLock:     commonLock(first.Lockset, second.Lockset),
				}
				if !seen[r.Key()] {
					seen[r.Key()] = true
					races = append(races, r)
				}
				break // only the first conflicting successor
			}
		}
	}
	sortRaces(races)
	return races
}

// PhantomRaces returns races whose Second access did not execute in the
// run: an executed access conflicts (per the cross-run AccessMap) with a
// known access of a thread that the failure left unfinished. For each
// (executed-address, unexecuted-site) pair, the *last* executed access is
// used as First, matching the paper's construction where B17 => A12 enters
// the test set although A12 never ran. A site's addresses are visited in
// ascending order, so when one site pair races on several addresses the
// race on the lowest address wins. res must be a full run (empty Base).
func PhantomRaces(res *RunResult, am *AccessMap) []Race {
	// Threads that were cut short: unfinished or crashed.
	unfinished := make(map[string]bool)
	for name, st := range res.Threads {
		if st != kvm.Done {
			unfinished[name] = true
		}
	}
	if len(unfinished) == 0 {
		return nil
	}
	byAddr, _ := accessesByAddr(res)
	executed := make(map[Site]bool, len(res.Seq))
	for _, e := range res.Seq {
		executed[e.Site()] = true
	}
	seen := make(map[RaceKey]bool)
	var races []Race
	for t := range am.threads {
		ts := &am.threads[t]
		if !unfinished[ts.name] {
			continue
		}
		for instr, addrs := range ts.sites {
			s := Site{Thread: ts.name, Instr: kir.InstrID(instr)}
			if len(addrs) == 0 || executed[s] {
				continue
			}
			for _, a := range addrs {
				list := byAddr[a.addr]
				// Last executed *conflicting* access to addr by a
				// different thread (read-read pairs are skipped, not
				// terminal).
				for i := len(list) - 1; i >= 0; i-- {
					p := &res.Seq[list[i].i]
					if p.Name == s.Thread {
						continue
					}
					if !list[i].write && a.mode&modeWrite == 0 {
						continue
					}
					r := Race{
						First:      p.Site(),
						Second:     s,
						Addr:       a.addr,
						FirstStep:  p.Step,
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

// sortRaces orders races by their position in the failure-causing
// sequence (ties broken deterministically by site identity).
func sortRaces(races []Race) {
	sort.Slice(races, func(i, j int) bool {
		a, b := races[i], races[j]
		if a.LastStep() != b.LastStep() {
			return a.LastStep() < b.LastStep()
		}
		if a.FirstStep != b.FirstStep {
			return a.FirstStep < b.FirstStep
		}
		if a.Second.Thread != b.Second.Thread {
			return a.Second.Thread < b.Second.Thread
		}
		return a.Second.Instr < b.Second.Instr
	})
}

// RaceOccurred reports whether the race's conflicting pair happened in the
// run, in either order: both sites executed and touched the race address.
// Causality Analysis uses the *negation* — "R2 does not occur" — to detect
// race-steered control flow when another race is flipped.
func RaceOccurred(res *RunResult, r Race) bool {
	order, _, _ := RaceTrace(res, r)
	return order != 0
}

// RaceTrace scans a run once for a race's pair. order is +1 if First's
// access to the race address precedes Second's, -1 if reversed, and 0 if
// the pair did not occur; firstRan and secondRan report whether each
// site executed at all, touching the address or not. The run may be a
// flip run: its shared Base is scanned before its own steps.
func RaceTrace(res *RunResult, r Race) (order int, firstRan, secondRan bool) {
	firstAt, secondAt := -1, -1
	for _, part := range res.Parts() {
		for i := range part {
			e := &part[i]
			s := e.Site()
			isFirst, isSecond := s == r.First, s == r.Second
			if !isFirst && !isSecond {
				continue
			}
			firstRan = firstRan || isFirst
			secondRan = secondRan || isSecond
			for _, a := range e.Accesses {
				if a.Addr != r.Addr {
					continue
				}
				if isFirst && firstAt < 0 {
					firstAt = e.Step
				}
				if isSecond && secondAt < 0 {
					secondAt = e.Step
				}
			}
		}
	}
	switch {
	case firstAt < 0 || secondAt < 0:
		order = 0
	case firstAt < secondAt:
		order = +1
	default:
		order = -1
	}
	return order, firstRan, secondRan
}
