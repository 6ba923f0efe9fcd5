package sched

import (
	"cmp"
	"fmt"
	"slices"

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

// accessIndex groups a full run's accesses by address without sorting
// them. An open-addressing table over addresses leads to each address's
// latest access, and each access links back to the previous access of
// its address, so walking an address's chain visits its accesses in
// reverse execution order. Accesses are named by their index in the
// run's Accs, which holds them in execution order.
type accessIndex struct {
	tr    *Trace
	slots []int32 // 1 + the latest access of the slot's address; 0 for an empty slot
	prev  []int32 // by access: 1 + the previous access to its address; 0 for none
	step  []int32 // by access: its step's index in tr.Steps
	shift uint8   // 64 - log2(len(slots))
}

// newAccessIndex indexes tr's accesses in one pass. Its three arrays
// are one allocation; the table has more slots than the run has
// accesses, so it always has an empty one.
func newAccessIndex(tr *Trace) accessIndex {
	n := len(tr.Accs)
	size, shift := 8, uint8(61)
	for size <= n {
		size, shift = size*2, shift-1
	}
	buf := make([]int32, size+2*n)
	ix := accessIndex{tr: tr, slots: buf[:size:size], prev: buf[size : size+n : size+n], step: buf[size+n:], shift: shift}
	for k, e := range tr.Steps {
		for g := e.accs.lo; g < e.accs.hi; g++ {
			slot := ix.slot(tr.Accs[g].Addr)
			ix.prev[g] = *slot
			ix.step[g] = int32(k)
			*slot = g + 1
		}
	}
	return ix
}

// slot returns the table slot of addr: the one holding its latest
// access, or the empty slot where it belongs.
func (ix *accessIndex) slot(addr uint64) *int32 {
	mask := len(ix.slots) - 1
	// Fibonacci hashing: the top bits of the product pick the slot.
	for i := int((addr * 0x9e3779b97f4a7c15) >> ix.shift); ; i = (i + 1) & mask {
		if h := ix.slots[i]; h == 0 || ix.tr.Accs[h-1].Addr == addr {
			return &ix.slots[i]
		}
	}
}

// thread returns the thread ID of access g's step.
func (ix *accessIndex) thread(g int32) int32 { return ix.tr.Steps[ix.step[g]].Thread }

// pairs hands add, for every access, the pair it forms with its first
// conflicting successor by another thread: the access and the
// successor, by index in the run's Accs. One reverse walk of each
// address's chain finds every partner: it keeps the nearest later
// access and the nearest later one of another thread than that, and the
// same two among the later writes. A write pairs with the nearest later
// access of another thread, a read with the nearest later write of one.
func (ix *accessIndex) pairs(add func(first, second int32)) {
	accs := ix.tr.Accs
	for _, head := range ix.slots {
		// a1 is the nearest later access, by thread at1; a2 the nearest
		// later one by a thread other than at1. w1, wt1, w2: the same
		// among writes. -1 for none.
		a1, a2, w1, w2 := int32(-1), int32(-1), int32(-1), int32(-1)
		var at1, wt1 int32
		for g := head - 1; g >= 0; g = ix.prev[g] - 1 {
			t, write := ix.thread(g), accs[g].Write
			partner := w2
			switch {
			case write && a1 >= 0 && at1 != t:
				partner = a1
			case write:
				partner = a2
			case w1 >= 0 && wt1 != t:
				partner = w1
			}
			if partner >= 0 {
				add(g, partner)
			}
			if a1 < 0 || at1 != t {
				a2 = a1
			}
			a1, at1 = g, t
			if write {
				if w1 < 0 || wt1 != t {
					w2 = w1
				}
				w1, wt1 = g, t
			}
		}
	}
}

// pairSet keeps one pair per site pair: the one on the lowest address,
// and on one address the one with the earliest first access. It is an
// open-addressing table over pairs; sites are compared by thread ID and
// instruction, which within one run name them exactly.
type pairSet struct {
	ix    *accessIndex
	slots []racePair // first is 1 + the access index; 0 marks an empty slot
	n     int
	shift uint8
}

// racePair is a race as two accesses of the run: First's and Second's.
type racePair struct{ first, second int32 }

// sites returns the steps of a pair's two accesses.
func (ps *pairSet) sites(p racePair) (*Exec, *Exec) {
	steps := ps.ix.tr.Steps
	return &steps[ps.ix.step[p.first-1]], &steps[ps.ix.step[p.second]]
}

// add offers the pair of accesses first and second.
func (ps *pairSet) add(first, second int32) {
	if 2*(ps.n+1) > len(ps.slots) {
		ps.grow()
	}
	ps.put(racePair{first + 1, second})
}

// put places p in its slot, or replaces the pair of the same sites there
// when p comes first.
func (ps *pairSet) put(p racePair) {
	accs := ps.ix.tr.Accs
	f, s := ps.sites(p)
	h := (uint64(uint32(f.Thread))<<32|uint64(uint32(f.Instr)))*0x9e3779b97f4a7c15 ^
		(uint64(uint32(s.Thread))<<32|uint64(uint32(s.Instr)))*0xc2b2ae3d27d4eb4f
	mask := len(ps.slots) - 1
	for i := int(h >> ps.shift); ; i = (i + 1) & mask {
		q := &ps.slots[i]
		if q.first == 0 {
			*q = p
			ps.n++
			return
		}
		if qf, qs := ps.sites(*q); qf.Thread == f.Thread && qf.Instr == f.Instr && qs.Thread == s.Thread && qs.Instr == s.Instr {
			if a, b := accs[p.first-1].Addr, accs[q.first-1].Addr; a < b || (a == b && p.first < q.first) {
				*q = p
			}
			return
		}
	}
}

// grow doubles the table (from 8 slots) and re-places its pairs.
func (ps *pairSet) grow() {
	old := ps.slots
	if len(old) == 0 {
		ps.slots, ps.shift = make([]racePair, 8), 61
		return
	}
	ps.slots, ps.shift, ps.n = make([]racePair, 2*len(old)), ps.shift-1, 0
	for _, p := range old {
		if p.first != 0 {
			ps.put(p)
		}
	}
}

// ExtractRaces returns the data races observed in a run: for every address
// and every access, the pair formed with the *next conflicting access by a
// different thread* (at least one of the two is a store), in observed
// order, deduplicated by static site pair. When one site pair races on
// several addresses the race on the lowest address wins, and on one
// address the one with the earliest First access.
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
	ix := newAccessIndex(&res.Seq)
	return phantomRaces(res, am, &ix)
}

// Races returns a failing run's test set: ExtractRaces' races, then
// PhantomRaces' against am (none when am is nil), both read from one
// access index of the run. res must be a full run (empty Base).
func Races(res *RunResult, am *AccessMap) []Race {
	tr := &res.Seq
	ix := newAccessIndex(tr)
	ps := pairSet{ix: &ix}
	ix.pairs(ps.add)
	var races []Race
	if ps.n > 0 {
		races = make([]Race, 0, ps.n)
	}
	for _, p := range ps.slots {
		if p.first == 0 {
			continue
		}
		f, s := int(ix.step[p.first-1]), int(ix.step[p.second])
		races = append(races, Race{
			First:      tr.Site(f),
			Second:     tr.Site(s),
			Addr:       tr.Accs[p.first-1].Addr,
			FirstStep:  int(tr.Steps[f].Step),
			SecondStep: int(tr.Steps[s].Step),
			CSLock:     commonLock(tr.Lockset(f), tr.Lockset(s)),
		})
	}
	sortRaces(races)
	if am != nil {
		races = append(races, phantomRaces(res, am, &ix)...)
	}
	return races
}

// phantomRaces is PhantomRaces over the run's access index. The sites
// each unfinished thread executed are marked in a bitset over
// kir.InstrID; threads are matched by name, as sites are.
func phantomRaces(res *RunResult, am *AccessMap, ix *accessIndex) []Race {
	tr := &res.Seq
	// Threads that were cut short, unfinished or crashed, by index in
	// am and by thread ID in the run (kvm.NoThread if it never ran).
	var cut, cutID []int32
	for t, name := range am.names {
		if st, ok := res.Threads[name]; ok && st != kvm.Done {
			cut = append(cut, int32(t))
			cutID = append(cutID, tr.ID(name))
		}
	}
	if len(cut) == 0 {
		return nil
	}
	words := (len(am.first) + 63) / 64
	executed := make([]uint64, words*len(cut)) // cut[k]'s bits at [k*words, (k+1)*words)
	k := 0
	for _, e := range tr.Steps {
		if cutID[k] != e.Thread {
			if k = slices.Index(cutID, e.Thread); k < 0 {
				k = 0
				continue
			}
		}
		if id := int(e.Instr); id >= 0 && id < len(am.first) {
			executed[k*words+id/64] |= 1 << (id % 64)
		}
	}
	var races []Race
	for k, t := range cut {
		bits := executed[k*words : (k+1)*words]
		for instr, addrs := range am.threadSites(t) {
			if bits[instr/64]&(1<<(instr%64)) != 0 {
				continue
			}
			s := Site{Thread: am.names[t], Instr: instr}
			from := len(races) // this site's races: one per First site
			for _, a := range addrs {
				// Last executed *conflicting* access to addr by a
				// different thread (read-read pairs are skipped, not
				// terminal).
				for g := *ix.slot(a.addr) - 1; g >= 0; g = ix.prev[g] - 1 {
					if ix.thread(g) == cutID[k] {
						continue
					}
					if !tr.Accs[g].Write && a.mode&modeWrite == 0 {
						continue
					}
					p := int(ix.step[g])
					first := tr.Site(p)
					if !slices.ContainsFunc(races[from:], func(r Race) bool { return r.First == first }) {
						races = append(races, Race{
							First:      first,
							Second:     s,
							Addr:       a.addr,
							FirstStep:  int(tr.Steps[p].Step),
							SecondStep: -1,
							Phantom:    true,
						})
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
	slices.SortFunc(races, func(a, b Race) int {
		return cmp.Or(cmp.Compare(a.LastStep(), b.LastStep()), cmp.Compare(a.FirstStep, b.FirstStep),
			cmp.Compare(a.Second.Thread, b.Second.Thread), cmp.Compare(a.Second.Instr, b.Second.Instr))
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
		// Each part names threads by its own IDs.
		t1, t2 := part.ID(r.First.Thread), part.ID(r.Second.Thread)
		for k, e := range part.Steps {
			isFirst := e.Thread == t1 && e.Instr == r.First.Instr
			isSecond := e.Thread == t2 && e.Instr == r.Second.Instr
			if !isFirst && !isSecond {
				continue
			}
			firstRan = firstRan || isFirst
			secondRan = secondRan || isSecond
			for _, a := range part.Accesses(k) {
				if a.Addr != r.Addr {
					continue
				}
				if isFirst && firstAt < 0 {
					firstAt = int(e.Step)
				}
				if isSecond && secondAt < 0 {
					secondAt = int(e.Step)
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
