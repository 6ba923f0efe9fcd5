package sched

import (
	"cmp"
	"maps"
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

// RecordRun folds a run's accesses into the map.
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

// Clone returns an independent copy of the map.
func (am *AccessMap) Clone() *AccessMap {
	cp := &AccessMap{
		threads: slices.Clone(am.threads),
		modes:   maps.Clone(am.modes),
		byAddr:  make(map[uint64][]threadMode, len(am.byAddr)),
		sites:   slices.Clone(am.sites),
		siteIdx: maps.Clone(am.siteIdx),
	}
	for a, list := range am.byAddr {
		cp.byAddr[a] = slices.Clone(list)
	}
	for i := range cp.sites {
		cp.sites[i].addrs = slices.Clone(cp.sites[i].addrs)
	}
	return cp
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

func compareSites(a, b Site) int {
	if c := strings.Compare(a.Thread, b.Thread); c != 0 {
		return c
	}
	return cmp.Compare(a.Instr, b.Instr)
}

// Sites returns all known sites in deterministic order: by thread name,
// then instruction.
func (am *AccessMap) Sites() []Site {
	out := make([]Site, len(am.sites))
	for i := range am.sites {
		out[i] = am.sites[i].site
	}
	slices.SortFunc(out, compareSites)
	return out
}

// siteAddrs returns the addresses a site has been observed to access, in
// ascending order. The slice belongs to the map.
func (am *AccessMap) siteAddrs(s Site) []uint64 {
	sk, ok := am.key(s)
	if !ok {
		return nil
	}
	si, ok := am.siteIdx[sk]
	if !ok {
		return nil
	}
	return am.sites[si].addrs
}

// Addrs returns the addresses a site has been observed to access.
func (am *AccessMap) Addrs(s Site) map[uint64]bool {
	addrs := am.siteAddrs(s)
	out := make(map[uint64]bool, len(addrs))
	for _, a := range addrs {
		out[a] = true
	}
	return out
}

// Writes reports whether the site has been observed to write addr.
func (am *AccessMap) Writes(s Site, addr uint64) bool {
	return am.Has(s, addr, true)
}

// ConflictAddrs returns the addresses where sites a and b conflict: both
// access the address and at least one writes it. Sites on the same thread
// never conflict (conflicts require different threads by definition).
func (am *AccessMap) ConflictAddrs(a, b Site) []uint64 {
	if a.Thread == b.Thread {
		return nil
	}
	ka, okA := am.key(a)
	kb, okB := am.key(b)
	if !okA || !okB {
		return nil
	}
	var out []uint64
	for _, addr := range am.siteAddrs(a) {
		mb := am.modes[accessKey{addr: addr, site: kb}]
		if mb != 0 && (am.modes[accessKey{addr: addr, site: ka}]|mb)&modeWrite != 0 {
			out = append(out, addr)
		}
	}
	return out
}

// ConflictsWithAny reports whether site s conflicts with any known site of
// a different thread, at any of its addresses. LIFS asks the narrower
// ConflictsAt, for the addresses an instruction is about to touch.
func (am *AccessMap) ConflictsWithAny(s Site) bool {
	sk, ok := am.key(s)
	if !ok {
		return false
	}
	for _, addr := range am.siteAddrs(s) {
		ms := am.modes[accessKey{addr: addr, site: sk}]
		for _, tm := range am.byAddr[addr] {
			if tm.thread != sk.thread && (ms|tm.mode)&modeWrite != 0 {
				return true
			}
		}
	}
	return false
}
