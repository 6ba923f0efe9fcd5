package sched

import "aitia/internal/kvm"

// StepLog appends executed steps to a sequence: the enforcer's and the
// fuzzer's run records. Each record's Accesses and Lockset are packed
// into arenas the log shares across its records, so recording a step
// allocates nothing once the arenas have grown. Records point into the
// arenas with clamped capacity; an arena that grows moves on to a new
// backing array and leaves the old records intact.
type StepLog struct {
	Seq   []Exec
	accs  []AccessRec
	locks []uint64
	base  int // Step stamp of Seq[0]: the length of the prefix the log continues
}

// Append records one executed step of thread t (ev as returned by
// m.Step). Its Step field is the record's position in the run: its index
// in Seq, counted from the end of the prefix the log continues.
func (l *StepLog) Append(m *kvm.Machine, t *kvm.Thread, ev kvm.StepEvent) {
	exec := Exec{Step: l.base + len(l.Seq), Thread: t.ID, Name: t.Name, Instr: ev.Instr}
	if len(ev.Accesses) > 0 {
		k := len(l.accs)
		for _, a := range ev.Accesses {
			l.accs = append(l.accs, AccessRec{Addr: a.Addr, Write: a.Write})
		}
		exec.Accesses = l.accs[k:len(l.accs):len(l.accs)]
	}
	if len(t.Locks) > 0 {
		k := len(l.locks)
		l.locks = append(l.locks, t.Locks...)
		exec.Lockset = l.locks[k:len(l.locks):len(l.locks)]
	}
	if ev.Spawned != kvm.NoThread {
		exec.Spawned = m.Thread(ev.Spawned).Name
	}
	l.Seq = append(l.Seq, exec)
}

// LoggedAccess is one observed access of a site.
type LoggedAccess struct {
	Site  Site
	Addr  uint64
	Write bool
}

// AccessLog is an append-only record of observed accesses. Recording is a
// slice append, with none of an AccessMap's map work; Fold merges a log
// into a map. Folding unions access modes bitwise, so folding any number
// of logs, in any order, yields the same map — the property the parallel
// LIFS search relies on when it merges its units' logs. A log may hold
// the same access many times; Fold and Export dedupe.
type AccessLog []LoggedAccess

// Add appends one observed access.
func (l *AccessLog) Add(s Site, addr uint64, write bool) {
	*l = append(*l, LoggedAccess{Site: s, Addr: addr, Write: write})
}

// Fold records every access of l into am.
func (am *AccessMap) Fold(l AccessLog) {
	for _, a := range l {
		am.Record(a.Site, a.Addr, a.Write)
	}
}

// Export flattens the log into the records of a map holding exactly its
// accesses (AccessMap.Export).
func (l AccessLog) Export() []AccessExport {
	am := NewAccessMap()
	am.Fold(l)
	return am.Export()
}

// ImportAccessLog rebuilds an AccessLog from exported records.
func ImportAccessLog(recs []AccessExport) AccessLog {
	var l AccessLog
	for _, r := range recs {
		s := Site{Thread: r.Thread, Instr: r.Instr}
		if r.Read {
			l.Add(s, r.Addr, false)
		}
		if r.Write {
			l.Add(s, r.Addr, true)
		}
	}
	return l
}
