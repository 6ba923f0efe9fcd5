package sched

import (
	"cmp"
	"slices"
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
// Thread names are interned into a small per-map table, and each thread
// indexes its sites by the finalized kir.InstrID, so a site lookup is a
// scan of a handful of names and a slice index, never a hash: each site
// keeps its addresses in ascending order with their modes, and each
// address lists the threads that touched it. Sites must carry finalized
// (non-negative) instruction IDs; queries about any other ID find
// nothing.
type AccessMap struct {
	threads []threadSites           // interned threads, by index
	byAddr  map[uint64][]threadMode // address -> the threads that accessed it
	nsites  int                     // sites with at least one address
	naddrs  int                     // (site, address) entries
}

// threadSites is one interned thread's access knowledge.
type threadSites struct {
	name  string
	sites [][]addrMode // by kir.InstrID: the site's addresses, ascending
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

// NewAccessMap returns an empty access map.
func NewAccessMap() *AccessMap {
	return &AccessMap{byAddr: make(map[uint64][]threadMode)}
}

// thread returns the interned index of a thread name, or -1 for a thread
// the map has never seen. Programs have a handful of threads, so a scan
// beats hashing the name.
func (am *AccessMap) thread(name string) int32 {
	for i := range am.threads {
		if am.threads[i].name == name {
			return int32(i)
		}
	}
	return -1
}

// site returns the addresses recorded for s, nil when there are none.
func (am *AccessMap) site(s Site) []addrMode {
	t := am.thread(s.Thread)
	if t < 0 {
		return nil
	}
	sites := am.threads[t].sites
	if s.Instr < 0 || int(s.Instr) >= len(sites) {
		return nil
	}
	return sites[s.Instr]
}

// search returns the index of addr in a site's ascending addresses, and
// whether it is there.
func search(addrs []addrMode, addr uint64) (int, bool) {
	return slices.BinarySearchFunc(addrs, addr, func(e addrMode, a uint64) int { return cmp.Compare(e.addr, a) })
}

// RecordRun folds a run's accesses into the map. res must be a full run
// (empty Base).
func (am *AccessMap) RecordRun(res *RunResult) {
	for _, e := range res.Seq {
		for _, a := range e.Accesses {
			am.Record(e.Site(), a.Addr, a.Write)
		}
	}
}

// Record adds one observed access. s.Instr must be non-negative.
func (am *AccessMap) Record(s Site, addr uint64, write bool) {
	t := am.thread(s.Thread)
	if t < 0 {
		t = int32(len(am.threads))
		am.threads = append(am.threads, threadSites{name: s.Thread})
	}
	ts := &am.threads[t]
	if n := int(s.Instr) + 1; n > len(ts.sites) {
		ts.sites = append(ts.sites, make([][]addrMode, n-len(ts.sites))...)
	}
	addrs := ts.sites[s.Instr]
	mode := modeOf(write)
	i, found := search(addrs, addr)
	switch {
	case found && addrs[i].mode&mode != 0:
		return
	case found:
		addrs[i].mode |= mode
	default:
		if len(addrs) == 0 {
			am.nsites++
		}
		am.naddrs++
		ts.sites[s.Instr] = slices.Insert(addrs, i, addrMode{addr: addr, mode: mode})
	}
	list := am.byAddr[addr]
	for i := range list {
		if list[i].thread == t {
			list[i].mode |= mode
			return
		}
	}
	am.byAddr[addr] = append(list, threadMode{thread: t, mode: mode})
}

// Has reports whether the map already holds the access: the site has
// been observed to access addr in this mode.
func (am *AccessMap) Has(s Site, addr uint64, write bool) bool {
	addrs := am.site(s)
	i, found := search(addrs, addr)
	return found && addrs[i].mode&modeOf(write) != 0
}

// ConflictsAt reports whether an access (thread, addr, write) conflicts
// with any access of a different thread recorded so far: the addresses
// match and at least one side writes.
func (am *AccessMap) ConflictsAt(thread string, addr uint64, write bool) bool {
	list := am.byAddr[addr]
	if len(list) == 0 {
		return false
	}
	t := am.thread(thread)
	for _, tm := range list {
		if tm.thread != t && (write || tm.mode&modeWrite != 0) {
			return true
		}
	}
	return false
}

// NumSites returns the number of known sites.
func (am *AccessMap) NumSites() int { return am.nsites }
