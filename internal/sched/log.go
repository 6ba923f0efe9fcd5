package sched

import (
	"slices"

	"aitia/internal/kvm"
)

// StepLog appends executed steps to a sequence. Each record's Accesses
// and Lockset are packed into arenas the log shares across its records,
// so recording a step allocates nothing once the arenas have grown.
// Records point into the arenas with clamped capacity; an arena that
// grows moves on to a new backing array and leaves the old records
// intact.
type StepLog struct {
	Seq   []Exec
	accs  []AccessRec
	locks []uint64
	base  int // Step stamp of Seq[0]: the length of the prefix the log continues
}

// LogMark is a position in a StepLog, for Rewind.
type LogMark struct{ seq, accs, locks int }

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

// Grow reserves room for n more records with n accesses among them, so a
// log sized once for the runs it will hold appends without regrowing.
// Locksets are rare enough to grow on demand.
func (l *StepLog) Grow(n int) {
	l.Seq = slices.Grow(l.Seq, n)
	l.accs = slices.Grow(l.accs, n)
}

// Mark returns the log's current position.
func (l *StepLog) Mark() LogMark {
	return LogMark{seq: len(l.Seq), accs: len(l.accs), locks: len(l.locks)}
}

// Rewind truncates the log back to mk and reuses the space after it:
// records appended since mk — and any shallow copy of them — become
// invalid. Records that must outlive a rewind are copied with CloneSeq.
func (l *StepLog) Rewind(mk LogMark) {
	l.Seq = l.Seq[:mk.seq]
	l.accs = l.accs[:mk.accs]
	l.locks = l.locks[:mk.locks]
}

// Reset empties the log, keeping its capacity, and adopts seq as its
// first records (shallowly: seq's accesses and locksets must stay
// unmodified while the log uses them).
func (l *StepLog) Reset(seq []Exec) {
	l.Rewind(LogMark{})
	l.Seq = append(l.Seq, seq...)
}

// CloneSeq returns a copy of seq that shares no memory with it apart from
// the immutable instructions: one array for the records and one each for
// all their accesses and locksets.
func CloneSeq(seq []Exec) []Exec {
	if seq == nil {
		return nil
	}
	var na, nl int
	for i := range seq {
		na += len(seq[i].Accesses)
		nl += len(seq[i].Lockset)
	}
	out := slices.Clone(seq)
	accs := make([]AccessRec, 0, na)
	locks := make([]uint64, 0, nl)
	for i := range out {
		if a := out[i].Accesses; len(a) > 0 {
			k := len(accs)
			accs = append(accs, a...)
			out[i].Accesses = accs[k:len(accs):len(accs)]
		}
		if ls := out[i].Lockset; len(ls) > 0 {
			k := len(locks)
			locks = append(locks, ls...)
			out[i].Lockset = locks[k:len(locks):len(locks)]
		}
	}
	return out
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
