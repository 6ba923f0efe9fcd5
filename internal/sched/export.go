package sched

import (
	"sort"

	"aitia/internal/kir"
)

// AccessExport is the serializable form of one AccessMap entry: a site's
// observed access to an address, split into read/write flags. It exists
// for durable checkpoints — the in-memory AccessMap holds unexported
// nested maps that neither encoding/json nor a future format could reach.
type AccessExport struct {
	Thread string      `json:"t"`
	Instr  kir.InstrID `json:"i"`
	Addr   uint64      `json:"a"`
	Read   bool        `json:"r,omitempty"`
	Write  bool        `json:"w,omitempty"`
}

// Export flattens the map into a deterministic record list: sites in
// Sites() order, addresses ascending within a site. Import(Export()) is
// an identity (the map is a pure union of such records).
func (am *AccessMap) Export() []AccessExport {
	var out []AccessExport
	for _, s := range am.Sites() {
		byAddr := am.m[s]
		addrs := make([]uint64, 0, len(byAddr))
		for a := range byAddr {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			mode := byAddr[a]
			out = append(out, AccessExport{
				Thread: s.Thread,
				Instr:  s.Instr,
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
