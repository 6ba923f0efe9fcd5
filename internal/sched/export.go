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
	order := make([]*threadSites, len(am.threads))
	for i := range am.threads {
		order[i] = &am.threads[i]
	}
	slices.SortFunc(order, func(a, b *threadSites) int { return strings.Compare(a.name, b.name) })
	out := make([]AccessExport, 0, am.naddrs)
	for _, ts := range order {
		for instr, addrs := range ts.sites {
			for _, a := range addrs {
				out = append(out, AccessExport{
					Thread: ts.name,
					Instr:  kir.InstrID(instr),
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
	am.Fold(ImportAccessLog(recs))
	return am
}
