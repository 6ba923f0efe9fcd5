// Package prior learns race priors from settled causality analyses and
// feeds them back as a flip-test ordering: per-race-pair verdict counts,
// keyed by a stable cross-program pair signature, rank the flips of the
// next diagnosis by expected root-cause probability.
//
// What the prior guarantees: it reorders flips, and it may settle a race
// as benign without running its flip. It never settles a chain member —
// every root-cause or ambiguous verdict, and every chain edge, comes
// from a flip run. Reordering alone never changes a diagnosis (flip
// tests are independent). Benign settlement is a cross-program
// inference: a signature that was benign in every program seen so far
// is assumed benign here too. Nothing proves that in general; the
// leave-one-out pass of aitia-bench -check-flips checks it on this
// repository's corpus only, where every scenario diagnosed under a
// prior learned from all the others keeps its cold chain.
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
	observations uint64
}

// NewStore returns an empty store. Empty is the degraded mode: RankFlips
// scores every race equally and skips nothing, which reproduces exact
// fixed-order analysis.
func NewStore(cfg Config) *Store {
	return &Store{cfg: cfg, pairs: make(map[string]*PairStats)}
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

// ObserveDiagnosis folds every executed flip's final (post-ambiguity)
// verdict of a completed analysis into the store. Prior-skipped races
// are excluded — their verdict came from this store, and feeding it back
// would let the prior reinforce itself without evidence.
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
// A race settles benign with at least MinSupport benign verdicts and not
// a single root-cause or ambiguous one ever recorded for its signature,
// so one disagreeing observation disables the skip. Every other race is
// only scored, and its flip runs.
func (s *Store) RankFlips(prog *kir.Program, races []sched.Race) []core.FlipPrior {
	out := make([]core.FlipPrior, len(races))
	s.mu.RLock()
	defer s.mu.RUnlock()
	min := s.cfg.minSupport()
	for i, r := range races {
		st := s.pairs[Signature(prog, r)]
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
	return out
}

// Pairs returns the number of distinct signatures with statistics.
func (s *Store) Pairs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pairs)
}

// Observations returns the number of verdicts folded into the store.
func (s *Store) Observations() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.observations
}
