package sched

import (
	"cmp"
	"iter"
	"slices"

	"aitia/internal/kir"
)

// accessMode records how a site has been observed to access an address.
type accessMode uint8

const (
	modeRead accessMode = 1 << iota
	modeWrite
)

func modeOf(write bool) accessMode {
	if write {
		return modeWrite
	}
	return modeRead
}

// AccessMap accumulates, across many runs, which addresses each site
// accesses and how. LIFS uses it to identify conflicting instructions
// (the scheduling decision points), and Causality Analysis uses it to find
// races whose second access never executed in the failing run (e.g. the
// paper's B17 => A12, where A12 is only known from other explorations).
//
// Thread names are interned into a small per-map table. One index over
// the finalized kir.InstrID, shared by all threads, leads to an
// instruction's sites: one per thread that executed it (shared functions
// give several), usually one. A site lookup is thus a slice index and a
// short chain walk, never a hash, and a thread carries no slots for
// other threads' code. Each site keeps its addresses in ascending order
// with their modes, and each address lists the threads that touched it.
// Sites must carry finalized (non-negative) instruction IDs; queries
// about any other ID find nothing. The map is only written between
// phases of a search (Record, Fold); concurrent readers are safe.
type AccessMap struct {
	names  []string                // interned thread names, by index
	first  []int32                 // by kir.InstrID: 1 + index in sites of the instruction's newest site, 0 for none
	sites  []siteEntry             // every site with at least one address
	byAddr map[uint64][]threadMode // address -> the threads that accessed it
	naddrs int                     // (site, address) entries
}

// siteEntry is one (thread, instruction) site's access knowledge.
type siteEntry struct {
	thread int32
	next   int32      // 1 + index in sites of the instruction's next older site, 0 for none
	addrs  []addrMode // ascending
}

// addrMode is how one site accessed one address.
type addrMode struct {
	addr uint64
	mode accessMode
}

// threadMode is how one thread (all its sites together) accessed an
// address.
type threadMode struct {
	thread int32
	mode   accessMode
}

// NewAccessMap returns an empty access map. Its instruction index grows
// to the highest ID recorded; Reserve sizes it once up front.
func NewAccessMap() *AccessMap {
	return &AccessMap{byAddr: make(map[uint64][]threadMode)}
}

// Reserve sizes the instruction index for IDs below n, so recording
// sites of a program with n instructions never regrows it, and makes
// room for n sites: over the corpus a search finds 0.95 sites per
// instruction (at most 1.5).
func (am *AccessMap) Reserve(n int) {
	if n > len(am.first) {
		am.first = append(am.first, make([]int32, n-len(am.first))...)
		am.sites = slices.Grow(am.sites, max(0, n-len(am.sites)))
	}
}

// ThreadIndex returns the interned index of a thread name, or -1 for a
// thread the map has never seen. An index, once given, names the same
// thread for the life of the map. Programs have a handful of threads, so
// a scan beats hashing the name.
func (am *AccessMap) ThreadIndex(name string) int32 {
	for i, n := range am.names {
		if n == name {
			return int32(i)
		}
	}
	return -1
}

// intern returns the index of a thread name, adding it first if new.
func (am *AccessMap) intern(name string) int32 {
	if t := am.ThreadIndex(name); t >= 0 {
		return t
	}
	am.names = append(am.names, name)
	return int32(len(am.names) - 1)
}

// find returns 1 + the index in sites of thread t's site at instr, or 0
// when the map holds none.
func (am *AccessMap) find(t int32, instr kir.InstrID) int32 {
	if instr < 0 || int(instr) >= len(am.first) {
		return 0
	}
	for i := am.first[instr]; i != 0; i = am.sites[i-1].next {
		if am.sites[i-1].thread == t {
			return i
		}
	}
	return 0
}

// site returns the addresses recorded for thread t's site at instr, nil
// when there are none.
func (am *AccessMap) site(t int32, instr kir.InstrID) []addrMode {
	if t < 0 {
		return nil
	}
	if i := am.find(t, instr); i != 0 {
		return am.sites[i-1].addrs
	}
	return nil
}

// threadSites yields thread t's sites in ascending instruction order.
func (am *AccessMap) threadSites(t int32) iter.Seq2[kir.InstrID, []addrMode] {
	return func(yield func(kir.InstrID, []addrMode) bool) {
		for instr := range am.first {
			if i := am.find(t, kir.InstrID(instr)); i != 0 && !yield(kir.InstrID(instr), am.sites[i-1].addrs) {
				return
			}
		}
	}
}

// search returns the index of addr in a site's ascending addresses, and
// whether it is there.
func search(addrs []addrMode, addr uint64) (int, bool) {
	return slices.BinarySearchFunc(addrs, addr, func(e addrMode, a uint64) int { return cmp.Compare(e.addr, a) })
}

// Record adds one observed access. s.Instr must be non-negative.
func (am *AccessMap) Record(s Site, addr uint64, write bool) {
	am.record(am.intern(s.Thread), s.Instr, addr, write)
}

// record adds one observed access of the thread at index t.
func (am *AccessMap) record(t int32, instr kir.InstrID, addr uint64, write bool) {
	i := am.find(t, instr)
	if i == 0 {
		am.Reserve(int(instr) + 1)
		am.sites = append(am.sites, siteEntry{thread: t, next: am.first[instr]})
		i = int32(len(am.sites))
		am.first[instr] = i
	}
	site := &am.sites[i-1]
	mode := modeOf(write)
	k, found := search(site.addrs, addr)
	switch {
	case found && site.addrs[k].mode&mode != 0:
		return
	case found:
		site.addrs[k].mode |= mode
	default:
		am.naddrs++
		site.addrs = slices.Insert(site.addrs, k, addrMode{addr: addr, mode: mode})
	}
	list := am.byAddr[addr]
	for k := range list {
		if list[k].thread == t {
			list[k].mode |= mode
			return
		}
	}
	am.byAddr[addr] = append(list, threadMode{thread: t, mode: mode})
}

// Has reports whether the map already holds the access: the site has
// been observed to access addr in this mode.
func (am *AccessMap) Has(s Site, addr uint64, write bool) bool {
	return am.HasAt(am.ThreadIndex(s.Thread), s.Instr, addr, write)
}

// HasAt is Has for the site of the thread at index t (ThreadIndex; -1
// holds nothing) at instr.
func (am *AccessMap) HasAt(t int32, instr kir.InstrID, addr uint64, write bool) bool {
	addrs := am.site(t, instr)
	i, found := search(addrs, addr)
	return found && addrs[i].mode&modeOf(write) != 0
}

// ConflictsAt reports whether an access (thread, addr, write) conflicts
// with any access of a different thread recorded so far: the addresses
// match and at least one side writes.
func (am *AccessMap) ConflictsAt(thread string, addr uint64, write bool) bool {
	return am.ConflictsBy(am.ThreadIndex(thread), addr, write)
}

// ConflictsBy is ConflictsAt for the thread at index t (ThreadIndex; -1,
// a thread the map has not seen, differs from every recorded thread).
func (am *AccessMap) ConflictsBy(t int32, addr uint64, write bool) bool {
	list := am.byAddr[addr]
	if len(list) == 0 {
		return false
	}
	for _, tm := range list {
		if tm.thread != t && (write || tm.mode&modeWrite != 0) {
			return true
		}
	}
	return false
}

// NumSites returns the number of known sites.
func (am *AccessMap) NumSites() int { return len(am.sites) }
