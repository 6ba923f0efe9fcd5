package prior

import (
	"encoding/json"
	"errors"
	"fmt"

	"aitia/internal/durable"
)

// CheckpointKey is the key the prior persists under in a durable
// checkpoint store (one prior per store). Only the aitia CLI's -prior
// directory uses it; the service has a job journal and rebuilds its
// prior from the journaled verdicts instead.
const CheckpointKey = "prior.flips"

// checkpointVersion is the durable envelope version; formatVersion is
// the payload layout version. Bump the latter when snapshot fields
// change incompatibly — loads of other versions degrade to fresh.
const (
	checkpointVersion = 1
	formatVersion     = 1
	formatMagic       = "aitia-prior"
)

// snapshot is the serialized store. Snapshots written before the prior
// stopped settling chain members also hold a "kills" map of kill
// relations; decoding ignores it.
type snapshot struct {
	Magic        string                `json:"magic"`
	Version      int                   `json:"version"`
	Observations uint64                `json:"observations"`
	Pairs        map[string]*PairStats `json:"pairs"`
}

// Encode serializes the store. The encoding is deterministic: the same
// statistics produce the same bytes regardless of observation order
// (JSON object keys are sorted).
func (s *Store) Encode() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := json.Marshal(snapshot{
		Magic:        formatMagic,
		Version:      formatVersion,
		Observations: s.observations,
		Pairs:        s.pairs,
	})
	if err != nil {
		// A map[string]*PairStats cannot fail to marshal.
		panic(err)
	}
	return data
}

// Decode parses an encoded prior into a fresh store under cfg. Any
// malformed input — bad JSON, wrong magic or version, inconsistent
// counts — returns an error; callers degrade to an empty store.
func Decode(data []byte, cfg Config) (*Store, error) {
	var sn snapshot
	if err := json.Unmarshal(data, &sn); err != nil {
		return nil, fmt.Errorf("prior: decode: %w", err)
	}
	if sn.Magic != formatMagic {
		return nil, fmt.Errorf("prior: decode: bad magic %q", sn.Magic)
	}
	if sn.Version != formatVersion {
		return nil, fmt.Errorf("prior: decode: version %d, want %d", sn.Version, formatVersion)
	}
	st := NewStore(cfg)
	var total uint64
	for sig, ps := range sn.Pairs {
		if sig == "" || ps == nil {
			return nil, errors.New("prior: decode: empty signature or stats")
		}
		cp := *ps
		st.pairs[sig] = &cp
		total += cp.total()
	}
	if total != sn.Observations {
		return nil, fmt.Errorf("prior: decode: %d observations recorded, %d counted", sn.Observations, total)
	}
	st.observations = total
	return st, nil
}

// LoadFrom loads the persisted prior from the durable store under cfg.
// An absent or corrupt snapshot degrades to a fresh empty store, which
// ranks everything equally and skips nothing: exact fixed-order
// analysis.
func LoadFrom(store *durable.CheckpointStore, cfg Config) *Store {
	payload, err := store.Load(CheckpointKey, checkpointVersion)
	if err != nil {
		return NewStore(cfg)
	}
	st, err := Decode(payload, cfg)
	if err != nil {
		return NewStore(cfg)
	}
	return st
}

// SaveTo persists the store into the durable layer (atomic write; see
// durable.CheckpointStore).
func (s *Store) SaveTo(store *durable.CheckpointStore) error {
	return store.Save(CheckpointKey, checkpointVersion, s.Encode())
}
