package sched

import "aitia/internal/kir"

// LoggedAccess is one observed access: 16 bytes with no pointer, so the
// garbage collector never scans a log's records. Its thread is an index
// into the Names of the log that holds it.
type LoggedAccess struct {
	Addr  uint64
	Instr kir.InstrID
	tw    uint32 // thread index << 1, | 1 for a write
}

// Logged returns the record of an access by the thread at index t of a
// log's Names.
func Logged(t int32, instr kir.InstrID, addr uint64, write bool) LoggedAccess {
	tw := uint32(t) << 1
	if write {
		tw |= 1
	}
	return LoggedAccess{Addr: addr, Instr: instr, tw: tw}
}

// Thread returns the index of the access's thread in its log's Names.
func (a LoggedAccess) Thread() int32 { return int32(a.tw >> 1) }

// Write reports whether the access is a write.
func (a LoggedAccess) Write() bool { return a.tw&1 != 0 }

// AccessLog is an append-only record of observed accesses. Recording is a
// slice append, with none of an AccessMap's map work; Fold merges a log
// into a map. Folding unions access modes bitwise, so folding any number
// of logs, in any order, yields the same map — the property the parallel
// LIFS search relies on when it merges its units' logs. A log may hold
// the same access many times; Fold and Export dedupe.
//
// Names is the log's thread-name table, appended to and never rewritten,
// so a range of the log (From) shares it and stays valid as the log
// grows. Names are resolved once per log at its boundaries: by Intern
// when recording, and by Fold for each distinct thread of the records.
type AccessLog struct {
	Names []string
	Accs  []LoggedAccess
}

// Intern returns the index of a thread name in Names, adding it first if
// the log has not seen it. Programs have a handful of threads, so a scan
// beats hashing the name.
func (l *AccessLog) Intern(name string) int32 {
	for i, n := range l.Names {
		if n == name {
			return int32(i)
		}
	}
	l.Names = append(l.Names, name)
	return int32(len(l.Names) - 1)
}

// Add appends one observed access.
func (l *AccessLog) Add(s Site, addr uint64, write bool) {
	l.Accs = append(l.Accs, Logged(l.Intern(s.Thread), s.Instr, addr, write))
}

// From returns the records from index lo on as a log of their own. It
// shares the arrays of l, capped so that appending to either never
// writes into the other.
func (l AccessLog) From(lo int) AccessLog {
	n, k := len(l.Names), len(l.Accs)
	return AccessLog{Names: l.Names[:n:n], Accs: l.Accs[lo:k:k]}
}

// Fold records every access of l into am, resolving each of the log's
// threads that the records name to the map's own index once.
func (am *AccessMap) Fold(l AccessLog) {
	var small [8]int32
	idx := small[:0]
	if len(l.Names) > len(small) {
		idx = make([]int32, 0, len(l.Names))
	}
	for range l.Names {
		idx = append(idx, -1)
	}
	for _, a := range l.Accs {
		t := &idx[a.Thread()]
		if *t < 0 {
			*t = am.intern(l.Names[a.Thread()])
		}
		am.record(*t, a.Instr, a.Addr, a.Write())
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
