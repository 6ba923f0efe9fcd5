package sched

import (
	"cmp"
	"slices"
	"strings"

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
// Thread names are interned into a small per-map table, so no lookup
// hashes a string: one flat (thread, instruction, address) table holds
// every site's mode per address, each address lists the threads that
// touched it, and each site lists its addresses in ascending order.
type AccessMap struct {
	threads []string                 // interned thread names, by index
	modes   map[accessKey]accessMode // site and address -> mode
	byAddr  map[uint64][]threadMode  // address -> the threads that accessed it
	sites   []siteAddrs              // known sites, in insertion order
	siteIdx map[siteKey]int32        // site -> index in sites
}

// siteKey is a site with its thread interned.
type siteKey struct {
	instr  kir.InstrID
	thread int32
}

type accessKey struct {
	addr uint64
	site siteKey
}

// threadMode is how one thread (all its sites together) accessed an
// address.
type threadMode struct {
	thread int32
	mode   accessMode
}

type siteAddrs struct {
	site  Site
	key   siteKey
	addrs []uint64 // ascending
}

// NewAccessMap returns an empty access map.
func NewAccessMap() *AccessMap {
	return &AccessMap{
		modes:   make(map[accessKey]accessMode),
		byAddr:  make(map[uint64][]threadMode),
		siteIdx: make(map[siteKey]int32),
	}
}

// thread returns the interned index of a thread name, or -1 for a thread
// the map has never seen. Programs have a handful of threads, so a scan
// beats hashing the name.
func (am *AccessMap) thread(name string) int32 {
	for i, t := range am.threads {
		if t == name {
			return int32(i)
		}
	}
	return -1
}

// key returns the site's interned key; ok is false when the site's
// thread is unknown.
func (am *AccessMap) key(s Site) (k siteKey, ok bool) {
	t := am.thread(s.Thread)
	return siteKey{instr: s.Instr, thread: t}, t >= 0
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

// Record adds one observed access.
func (am *AccessMap) Record(s Site, addr uint64, write bool) {
	t := am.thread(s.Thread)
	if t < 0 {
		t = int32(len(am.threads))
		am.threads = append(am.threads, s.Thread)
	}
	mode := modeOf(write)
	sk := siteKey{instr: s.Instr, thread: t}
	k := accessKey{addr: addr, site: sk}
	old := am.modes[k]
	if old&mode != 0 {
		return
	}
	am.modes[k] = old | mode
	if old == 0 {
		si, ok := am.siteIdx[sk]
		if !ok {
			si = int32(len(am.sites))
			am.siteIdx[sk] = si
			am.sites = append(am.sites, siteAddrs{site: Site{Thread: am.threads[t], Instr: s.Instr}, key: sk})
		}
		sa := &am.sites[si]
		i, _ := slices.BinarySearch(sa.addrs, addr)
		sa.addrs = slices.Insert(sa.addrs, i, addr)
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
	sk, ok := am.key(s)
	return ok && am.modes[accessKey{addr: addr, site: sk}]&modeOf(write) != 0
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
func (am *AccessMap) NumSites() int { return len(am.sites) }

// compareSites orders sites by thread name, then instruction.
func compareSites(a, b Site) int {
	if c := strings.Compare(a.Thread, b.Thread); c != 0 {
		return c
	}
	return cmp.Compare(a.Instr, b.Instr)
}
