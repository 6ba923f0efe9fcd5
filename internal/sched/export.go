package sched

import (
	"slices"

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
// thread name, then instruction, addresses ascending within a site. Import(Export()) is
// an identity (the map is a pure union of such records).
func (am *AccessMap) Export() []AccessExport {
	if len(am.modes) == 0 {
		return nil
	}
	order := make([]*siteAddrs, len(am.sites))
	for i := range am.sites {
		order[i] = &am.sites[i]
	}
	slices.SortFunc(order, func(a, b *siteAddrs) int { return compareSites(a.site, b.site) })
	out := make([]AccessExport, 0, len(am.modes))
	for _, sa := range order {
		for _, a := range sa.addrs {
			mode := am.modes[accessKey{addr: a, site: sa.key}]
			out = append(out, AccessExport{
				Thread: sa.site.Thread,
				Instr:  sa.site.Instr,
				Addr:   a,
				Read:   mode&modeRead != 0,
				Write:  mode&modeWrite != 0,
			})
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
