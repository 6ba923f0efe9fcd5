package sched

import (
	"fmt"
	"sort"
	"strings"

	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
)

// Site is the static identity of an instruction occurrence within a
// program's thread structure: which thread (by stable name) executes which
// static instruction. Shared functions give the same InstrID different
// Sites in different threads (e.g. fanout_link's list_add as A12 vs B7's
// call of it).
type Site struct {
	Thread string
	Instr  kir.InstrID
}

// AccessRec is one shared-memory access of an executed instruction.
type AccessRec struct {
	Addr  uint64
	Write bool
}

// Exec records one executed instruction in a run. Instr points into the
// finalized program the run executed; finalized programs are immutable,
// so the record shares the instruction instead of copying it. Accesses
// and Lockset are read-only: records of one run may share their backing
// arrays.
type Exec struct {
	Step     int // index in RunResult.Seq
	Thread   kvm.ThreadID
	Name     string // thread name
	Instr    *kir.Instr
	Accesses []AccessRec
	Lockset  []uint64 // locks held by the thread just after this step
	Spawned  string   // name of the thread this step spawned (queue_work/call_rcu)
}

// Site returns the static site of the executed instruction.
func (e Exec) Site() Site { return Site{Thread: e.Name, Instr: e.Instr.ID} }

// RunResult is the outcome of one enforced run: the totally ordered
// instruction sequence that executed (a failure-causing instruction
// sequence when the run failed), the failure, and enforcement metadata.
type RunResult struct {
	Seq      []Exec
	Failure  *sanitizer.Failure
	Switches int                        // context switches performed by the enforcer
	Missed   int                        // schedule points that never fired
	Threads  map[string]kvm.ThreadState // final state by thread name

	executed map[Site]bool
}

// Failed reports whether the run ended in a kernel failure.
func (r *RunResult) Failed() bool { return r.Failure != nil }

// Executed reports whether the given site ran at least once.
func (r *RunResult) Executed(s Site) bool {
	if r.executed == nil {
		r.executed = make(map[Site]bool, len(r.Seq))
		for _, e := range r.Seq {
			r.executed[e.Site()] = true
		}
	}
	return r.executed[s]
}

// SiteName renders a site using the program's instruction labels.
func SiteName(prog *kir.Program, s Site) string {
	return fmt.Sprintf("%s/%s", s.Thread, prog.InstrName(s.Instr))
}

// FormatSeq renders the executed sequence using paper-style labels, e.g.
// "A2 => A5 => B2 => B11 => A6 => B12 => B17". Instructions without labels
// are skipped unless all is true.
func (r *RunResult) FormatSeq(prog *kir.Program, all bool) string {
	var parts []string
	for _, e := range r.Seq {
		in := e.Instr
		if in.Label == "" && !all {
			continue
		}
		parts = append(parts, in.Name())
	}
	return strings.Join(parts, " => ")
}

// accessMode records how a site has been observed to access an address.
type accessMode uint8

const (
	modeRead accessMode = 1 << iota
	modeWrite
)

// AccessMap accumulates, across many runs, which addresses each site
// accesses and how. LIFS uses it to identify conflicting instructions
// (the scheduling decision points), and Causality Analysis uses it to find
// races whose second access never executed in the failing run (e.g. the
// paper's B17 => A12, where A12 is only known from other explorations).
type AccessMap struct {
	m      map[Site]map[uint64]accessMode
	byAddr map[uint64]map[string]accessMode // addr -> thread -> mode
}

// NewAccessMap returns an empty access map.
func NewAccessMap() *AccessMap {
	return &AccessMap{
		m:      make(map[Site]map[uint64]accessMode),
		byAddr: make(map[uint64]map[string]accessMode),
	}
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
	byAddr := am.m[s]
	if byAddr == nil {
		byAddr = make(map[uint64]accessMode)
		am.m[s] = byAddr
	}
	mode := modeRead
	if write {
		mode = modeWrite
	}
	byAddr[addr] |= mode
	byThread := am.byAddr[addr]
	if byThread == nil {
		byThread = make(map[string]accessMode)
		am.byAddr[addr] = byThread
	}
	byThread[s.Thread] |= mode
}

// Clone returns an independent copy of the map.
func (am *AccessMap) Clone() *AccessMap {
	cp := &AccessMap{
		m:      make(map[Site]map[uint64]accessMode, len(am.m)),
		byAddr: make(map[uint64]map[string]accessMode, len(am.byAddr)),
	}
	for s, byAddr := range am.m {
		inner := make(map[uint64]accessMode, len(byAddr))
		for a, mode := range byAddr {
			inner[a] = mode
		}
		cp.m[s] = inner
	}
	for a, byThread := range am.byAddr {
		inner := make(map[string]accessMode, len(byThread))
		for t, mode := range byThread {
			inner[t] = mode
		}
		cp.byAddr[a] = inner
	}
	return cp
}

// ConflictsAt reports whether an access (thread, addr, write) conflicts
// with any access of a different thread recorded so far: the addresses
// match and at least one side writes.
func (am *AccessMap) ConflictsAt(thread string, addr uint64, write bool) bool {
	for other, mode := range am.byAddr[addr] {
		if other == thread {
			continue
		}
		if write || mode&modeWrite != 0 {
			return true
		}
	}
	return false
}

// Sites returns all known sites in deterministic order.
func (am *AccessMap) Sites() []Site {
	out := make([]Site, 0, len(am.m))
	for s := range am.m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Thread != out[j].Thread {
			return out[i].Thread < out[j].Thread
		}
		return out[i].Instr < out[j].Instr
	})
	return out
}

// Addrs returns the addresses a site has been observed to access.
func (am *AccessMap) Addrs(s Site) map[uint64]bool {
	out := make(map[uint64]bool, len(am.m[s]))
	for a := range am.m[s] {
		out[a] = true
	}
	return out
}

// Writes reports whether the site has been observed to write addr.
func (am *AccessMap) Writes(s Site, addr uint64) bool {
	return am.m[s][addr]&modeWrite != 0
}

// ConflictAddrs returns the addresses where sites a and b conflict: both
// access the address and at least one writes it. Sites on the same thread
// never conflict (conflicts require different threads by definition).
func (am *AccessMap) ConflictAddrs(a, b Site) []uint64 {
	if a.Thread == b.Thread {
		return nil
	}
	var out []uint64
	for addr, ma := range am.m[a] {
		mb, ok := am.m[b][addr]
		if !ok {
			continue
		}
		if ma&modeWrite != 0 || mb&modeWrite != 0 {
			out = append(out, addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConflictsWithAny reports whether site s conflicts with any known site of
// a different thread — the test LIFS uses to decide whether an instruction
// is a scheduling decision point.
func (am *AccessMap) ConflictsWithAny(s Site) bool {
	for other := range am.m {
		if other.Thread == s.Thread {
			continue
		}
		if len(am.ConflictAddrs(s, other)) > 0 {
			return true
		}
	}
	return false
}
