// Package prior learns race priors from settled causality analyses and
// feeds them back as a flip-test ordering: per-race-pair verdict
// statistics, keyed by a stable cross-program pair signature, rank the
// flips of the next diagnosis by expected root-cause probability and
// settle the flips the corpus has unanimously proven benign without
// executing them. Ranking changes the work, never the answer — the
// causality chain of a ranked analysis is byte-identical to fixed-order
// analysis (see core.AnalysisOptions.Ranker for the invariant).
package prior

import (
	"strconv"
	"sync"

	"aitia/internal/core"
	"aitia/internal/kir"
	"aitia/internal/sched"
)

// Signature returns the stable pair signature of a race: per side the
// opcode, the enclosing function symbol and the static access shape
// (r/w/rw), plus the pair-level relations the flip rule depends on
// (phantom pair, shared critical section). Raw instruction IDs, step
// numbers, thread names and addresses are deliberately excluded, so
// priors learned on one program transfer to any program with the same
// code structure.
func Signature(prog *kir.Program, r sched.Race) string {
	sig := side(prog, r.First) + "=>" + side(prog, r.Second)
	if r.Phantom {
		sig += "|ph"
	}
	if r.CSLock != 0 {
		sig += "|cs"
	}
	return sig
}

func side(prog *kir.Program, s sched.Site) string {
	in, ok := prog.Instr(s.Instr)
	if !ok {
		return "?"
	}
	return in.Op.String() + "@" + in.Fn + symbol(in.A) + ":" + shape(in.Op)
}

// symbol names the accessed datum of a memory op's address operand: the
// global symbol (with its word offset), or the word offset into a heap
// object for register-indirect accesses — the structural "field", with
// the codegen-dependent base register left out. Two races on different
// variables inside one function must not share statistics.
func symbol(o kir.Operand) string {
	switch o.Kind {
	case kir.KindGlobal:
		if o.Off != 0 {
			return "[" + o.Sym + "+" + strconv.FormatInt(o.Off, 10) + "]"
		}
		return "[" + o.Sym + "]"
	case kir.KindInd:
		return "[heap+" + strconv.FormatInt(o.Off, 10) + "]"
	}
	return ""
}

func shape(op kir.Op) string {
	switch {
	case op.ReadsMemory() && op.WritesMemory():
		return "rw"
	case op.WritesMemory():
		return "w"
	case op.ReadsMemory():
		return "r"
	}
	return "-"
}

// Config tunes the prior.
type Config struct {
	// MinSupport is how many settled benign verdicts a signature needs —
	// with zero root-cause or ambiguous verdicts ever recorded — before
	// the prior settles its flips without executing them. Zero means the
	// default (1: one full corpus pass warms the prior). Raise it to
	// demand more evidence before skipping.
	MinSupport int
}

func (c Config) minSupport() uint64 {
	if c.MinSupport <= 0 {
		return 1
	}
	return uint64(c.MinSupport)
}

// PairStats are one signature's settled verdict counts. Unknown verdicts
// are never recorded: an exhausted flip test says nothing about the race.
type PairStats struct {
	Benign    uint64 `json:"benign,omitempty"`
	RootCause uint64 `json:"root_cause,omitempty"`
	Ambiguous uint64 `json:"ambiguous,omitempty"`
}

func (p PairStats) total() uint64 { return p.Benign + p.RootCause + p.Ambiguous }

// KillStats count, for an ordered signature pair "A->B", whether flipping
// a race with signature A made a race with signature B disappear from the
// flip run — the chain builder's kill relation, aggregated like verdicts.
// Unanimous kill rows are what let the prior settle a chain member
// without executing its flip: the row stands in for the flip run.
type KillStats struct {
	Killed   uint64 `json:"killed,omitempty"`
	Survived uint64 `json:"survived,omitempty"`
}

func (k KillStats) total() uint64 { return k.Killed + k.Survived }

func killKey(sigA, sigB string) string { return sigA + "->" + sigB }

// score is the expected root-cause probability under a Laplace-smoothed
// Bernoulli model; an unseen signature scores 0.5 (no information).
func (p PairStats) score() float64 {
	return (float64(p.RootCause+p.Ambiguous) + 1) / (float64(p.total()) + 2)
}

// Store aggregates settled flip verdicts into per-signature statistics
// and ranks candidate flips from them. It is safe for concurrent use,
// and aggregation is order-independent: any interleaving of the same
// observations yields the same statistics (counts commute), so
// concurrent jobs feeding one store stay deterministic.
type Store struct {
	cfg Config

	mu           sync.RWMutex
	pairs        map[string]*PairStats
	kills        map[string]*KillStats
	observations uint64
	loadReason   string
}

// NewStore returns an empty store. Empty is the degraded mode: RankFlips
// scores every race equally and skips nothing, which reproduces exact
// fixed-order analysis.
func NewStore(cfg Config) *Store {
	return &Store{
		cfg:   cfg,
		pairs: make(map[string]*PairStats),
		kills: make(map[string]*KillStats),
	}
}

// Observe records one settled flip verdict for a signature. Unknown
// verdicts are ignored.
func (s *Store) Observe(sig string, v core.Verdict) {
	if sig == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observe(sig, v)
}

func (s *Store) observe(sig string, v core.Verdict) {
	st := s.pairs[sig]
	if st == nil {
		st = &PairStats{}
		s.pairs[sig] = st
	}
	switch v {
	case core.VerdictBenign:
		st.Benign++
	case core.VerdictRootCause:
		st.RootCause++
	case core.VerdictAmbiguous:
		st.Ambiguous++
	default:
		return
	}
	s.observations++
}

// ObserveDiagnosis folds a completed analysis into the store: every
// executed flip's final (post-ambiguity) verdict, and for every executed
// chain member, its kill relation against each other tested race (did
// the flip make that pair disappear?). Prior-skipped races are excluded
// — their verdict came from this store, and feeding it back would let
// the prior reinforce itself without evidence.
func (s *Store) ObserveDiagnosis(prog *kir.Program, d *core.Diagnosis) {
	if d == nil {
		return
	}
	sigs := make([]string, len(d.Tested))
	for i, tr := range d.Tested {
		sigs[i] = Signature(prog, tr.Race)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, tr := range d.Tested {
		if tr.PriorSkipped || tr.Verdict == core.VerdictUnknown {
			continue
		}
		s.observe(sigs[i], tr.Verdict)
		if tr.FlipRun == nil || (tr.Verdict != core.VerdictRootCause && tr.Verdict != core.VerdictAmbiguous) {
			continue
		}
		for j, other := range d.Tested {
			if j == i {
				continue
			}
			key := killKey(sigs[i], sigs[j])
			ks := s.kills[key]
			if ks == nil {
				ks = &KillStats{}
				s.kills[key] = ks
			}
			if sched.RaceOccurred(tr.FlipRun, other.Race) {
				ks.Survived++
			} else {
				ks.Killed++
			}
		}
	}
}

// ObserveVerdict records a verdict by its wire name ("benign",
// "root-cause", "ambiguous") — the feed used when rebuilding the store
// from journaled result summaries. Other names are ignored.
func (s *Store) ObserveVerdict(sig, verdict string) {
	switch verdict {
	case "benign":
		s.Observe(sig, core.VerdictBenign)
	case "root-cause":
		s.Observe(sig, core.VerdictRootCause)
	case "ambiguous":
		s.Observe(sig, core.VerdictAmbiguous)
	}
}

// RankFlips implements core.FlipRanker: one prior per candidate race.
// Settling is unanimous-evidence only. A race settles benign with at
// least MinSupport benign verdicts and not a single root-cause or
// ambiguous one ever recorded for its signature; it settles root-cause
// with the dual condition (no benign verdict ever) AND a complete,
// unanimous kill row against every other candidate that might enter the
// chain — the row stands in for the flip run when the chain is built,
// so a single disagreeing observation disables the skip.
func (s *Store) RankFlips(prog *kir.Program, races []sched.Race) []core.FlipPrior {
	out := make([]core.FlipPrior, len(races))
	sigs := make([]string, len(races))
	s.mu.RLock()
	defer s.mu.RUnlock()
	min := s.cfg.minSupport()
	for i, r := range races {
		sigs[i] = Signature(prog, r)
		st := s.pairs[sigs[i]]
		if st == nil {
			out[i].Score = 0.5
			continue
		}
		out[i] = core.FlipPrior{
			Score:         st.score(),
			Hit:           true,
			SettledBenign: st.RootCause == 0 && st.Ambiguous == 0 && st.Benign >= min,
		}
	}
	for i := range races {
		st := s.pairs[sigs[i]]
		if st == nil || out[i].SettledBenign {
			continue
		}
		if st.Benign != 0 || st.RootCause+st.Ambiguous < min {
			continue
		}
		kills := make([]bool, len(races))
		complete := true
		for j := range races {
			if j == i || out[j].SettledBenign {
				// A settled-benign candidate never becomes a chain
				// member, so its kill relation is never consulted.
				continue
			}
			ks := s.kills[killKey(sigs[i], sigs[j])]
			if ks == nil || ks.total() < min || (ks.Killed != 0 && ks.Survived != 0) {
				complete = false
				break
			}
			kills[j] = ks.Killed > 0
		}
		if complete {
			out[i].SettledRootCause = true
			out[i].Kills = kills
		}
	}
	return out
}

// Pairs returns the number of distinct signatures with statistics.
func (s *Store) Pairs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pairs)
}

// KillPairs returns the number of ordered signature pairs with kill
// statistics. Zero after a journal rebuild: result summaries carry
// verdicts but not flip-run footprints, so only benign skips are
// available until fresh diagnoses repopulate the kill relations.
func (s *Store) KillPairs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.kills)
}

// Observations returns the number of verdicts folded into the store.
func (s *Store) Observations() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.observations
}

// LoadReason reports how this store came to be, machine-readably:
// ReasonLoaded, ReasonAbsent, or ReasonInvalid-prefixed detail (see
// LoadFrom). Empty for stores never loaded from a durable layer.
func (s *Store) LoadReason() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.loadReason
}
