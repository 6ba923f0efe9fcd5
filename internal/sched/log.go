package sched

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
