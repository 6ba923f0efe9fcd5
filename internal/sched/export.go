package sched

import (
	"slices"
	"strings"

	"aitia/internal/kir"
)

// AccessExport is the serializable form of one AccessMap entry: a site's
// observed access to an address, split into read/write flags. It exists
// for durable checkpoints — the in-memory AccessMap holds unexported
// interned tables that neither encoding/json nor a future format could
// reach.
type AccessExport struct {
	Thread string      `json:"t"`
	Instr  kir.InstrID `json:"i"`
	Addr   uint64      `json:"a"`
	Read   bool        `json:"r,omitempty"`
	Write  bool        `json:"w,omitempty"`
}

// Export flattens the map into a deterministic record list: sites by
// thread name, then instruction, addresses ascending within a site.
// Import(Export()) is an identity (the map is a pure union of such
// records).
func (am *AccessMap) Export() []AccessExport {
	if am.naddrs == 0 {
		return nil
	}
	order := make([]int32, len(am.names))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(am.names[a], am.names[b]) })
	out := make([]AccessExport, 0, am.naddrs)
	for _, t := range order {
		for instr, addrs := range am.threadSites(t) {
			for _, a := range addrs {
				out = append(out, AccessExport{
					Thread: am.names[t],
					Instr:  instr,
					Addr:   a.addr,
					Read:   a.mode&modeRead != 0,
					Write:  a.mode&modeWrite != 0,
				})
			}
		}
	}
	return out
}

// ImportAccessMap rebuilds an AccessMap from exported records.
func ImportAccessMap(recs []AccessExport) *AccessMap {
	am := NewAccessMap()
	n := 0
	for _, r := range recs {
		n = max(n, int(r.Instr)+1)
	}
	am.Reserve(n)
	am.Fold(ImportAccessLog(recs))
	return am
}
