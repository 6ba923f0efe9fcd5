package sched

import (
	"cmp"
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

// accessPoint is one access of a run: its address, its step's index in
// Seq, and whether it writes.
type accessPoint struct {
	addr  uint64
	i     int32
	write bool
}

// indexAccesses flattens a run into one slice of its accesses sorted by
// (address, step): each address's accesses are one stretch of the slice,
// in execution order. The sort is stable, so two accesses of one step
// keep their order too.
func indexAccesses(res *RunResult) []accessPoint {
	n := 0
	for i := range res.Seq {
		n += len(res.Seq[i].Accesses)
	}
	idx := make([]accessPoint, 0, n)
	for i := range res.Seq {
		for _, a := range res.Seq[i].Accesses {
			idx = append(idx, accessPoint{addr: a.Addr, i: int32(i), write: a.Write})
		}
	}
	slices.SortStableFunc(idx, func(a, b accessPoint) int { return cmp.Compare(a.addr, b.addr) })
	return idx
}

// ofAddr returns the stretch of a sorted index that accesses addr.
func ofAddr(idx []accessPoint, addr uint64) []accessPoint {
	lo, _ := slices.BinarySearchFunc(idx, addr, func(p accessPoint, a uint64) int { return cmp.Compare(p.addr, a) })
	hi := lo
	for hi < len(idx) && idx[hi].addr == addr {
		hi++
	}
	return idx[lo:hi]
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
func ExtractRaces(res *RunResult) []Race { return Races(res, nil) }

// PhantomRaces returns races whose Second access did not execute in the
// run: an executed access conflicts (per the cross-run AccessMap) with a
// known access of a thread that the failure left unfinished. For each
// (executed-address, unexecuted-site) pair, the *last* executed access is
// used as First, matching the paper's construction where B17 => A12 enters
// the test set although A12 never ran. A site's addresses are visited in
// ascending order, so when one site pair races on several addresses the
// race on the lowest address wins. res must be a full run (empty Base).
func PhantomRaces(res *RunResult, am *AccessMap) []Race {
	return phantomRaces(res, am, indexAccesses(res))
}

// Races returns a failing run's test set: ExtractRaces' races, then
// PhantomRaces' against am (none when am is nil), both read from one
// access index of the run. res must be a full run (empty Base).
func Races(res *RunResult, am *AccessMap) []Race {
	idx := indexAccesses(res)
	seen := make(map[RaceKey]bool)
	var races []Race
	for lo := 0; lo < len(idx); {
		hi := lo + 1
		for hi < len(idx) && idx[hi].addr == idx[lo].addr {
			hi++
		}
		list := idx[lo:hi]
		for i := range list {
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
					Addr:       list[i].addr,
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
		lo = hi
	}
	sortRaces(races)
	if am != nil {
		races = append(races, phantomRaces(res, am, idx)...)
	}
	return races
}

// phantomRaces is PhantomRaces over the run's access index. The sites
// each unfinished thread executed are marked in a bitset over
// kir.InstrID; threads are matched by name, as sites are.
func phantomRaces(res *RunResult, am *AccessMap, idx []accessPoint) []Race {
	// Threads that were cut short, unfinished or crashed.
	var cut []int32
	for t, name := range am.names {
		if st, ok := res.Threads[name]; ok && st != kvm.Done {
			cut = append(cut, int32(t))
		}
	}
	if len(cut) == 0 {
		return nil
	}
	words := (len(am.first) + 63) / 64
	executed := make([]uint64, words*len(cut)) // cut[k]'s bits at [k*words, (k+1)*words)
	k := 0
	for i := range res.Seq {
		e := &res.Seq[i]
		if am.names[cut[k]] != e.Name {
			if k = slices.IndexFunc(cut, func(t int32) bool { return am.names[t] == e.Name }); k < 0 {
				k = 0
				continue
			}
		}
		if id := int(e.Instr.ID); id >= 0 && id < len(am.first) {
			executed[k*words+id/64] |= 1 << (id % 64)
		}
	}
	seen := make(map[RaceKey]bool)
	var races []Race
	for k, t := range cut {
		bits := executed[k*words : (k+1)*words]
		for instr, addrs := range am.threadSites(t) {
			if bits[instr/64]&(1<<(instr%64)) != 0 {
				continue
			}
			s := Site{Thread: am.names[t], Instr: instr}
			for _, a := range addrs {
				list := ofAddr(idx, a.addr)
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
