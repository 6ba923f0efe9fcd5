package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"aitia/internal/durable"
	"aitia/internal/kir"
	"aitia/internal/sched"
)

// CheckpointConfig arms durable checkpointing of a diagnosis. With it
// set, the LIFS search persists its frontier at every deepening-phase
// boundary (and, serially, every Every schedules within a phase), the
// causality analysis persists every settled flip verdict, and both
// resume from the latest valid snapshot instead of starting over. A
// resumed run is deterministic: it produces the same reproduction,
// verdicts and causality chain as an uninterrupted one, having executed
// only the schedules the crash lost.
type CheckpointConfig struct {
	// Store holds the snapshots. Nil disables checkpointing entirely.
	Store *durable.CheckpointStore
	// Every additionally checkpoints mid-phase after this many schedules
	// (serial searches only — a parallel phase is in flight on many
	// machines at once and only its boundary is a consistent cut).
	// Zero checkpoints at phase boundaries only.
	Every int
	// OnSave, when set, runs after each durable save with the snapshot
	// key. It is a test seam: kill-and-recover tests use it to cut the
	// process at exact checkpoint cadence points.
	OnSave func(key string)
}

func (c *CheckpointConfig) enabled() bool { return c != nil && c.Store != nil }

func (c *CheckpointConfig) saved(key string) {
	if c.OnSave != nil {
		c.OnSave(key)
	}
}

// Checkpoint format versions. Bump when the payload layout changes;
// loads reject other versions and the search falls back to fresh. LIFS
// version 2 dropped the visited-state claims a version-1 partial phase
// carried: a version-1 snapshot loads as absent.
const (
	lifsCheckpointVersion = 2
	caCheckpointVersion   = 1
)

// lifsCheckpoint is the serialized frontier of a LIFS search: enough to
// re-enter the deepening loop at (Round, NextPhase) with the access
// knowledge, per-phase stats and (optionally) the partially explored
// phase restored. A Done checkpoint is terminal: the search succeeded
// and the found schedule replays the failure in one run.
type lifsCheckpoint struct {
	InitSig uint64 `json:"init_sig"` // machine state signature at search start
	SavedAt int64  `json:"saved_at"` // unix nanoseconds

	Round             int                  `json:"round"`
	NextPhase         int                  `json:"next_phase"`
	SitesAtRoundStart int                  `json:"sites_at_round_start"`
	Phases            []PhaseStat          `json:"phases,omitempty"`
	Accesses          []sched.AccessExport `json:"accesses,omitempty"`
	Leaves            []LeafTrace          `json:"leaves,omitempty"`
	Partial           *partialPhase        `json:"partial,omitempty"`

	Done          bool            `json:"done,omitempty"`
	Schedule      *sched.Schedule `json:"schedule,omitempty"`
	Interleavings int             `json:"interleavings,omitempty"`
}

// partialPhase captures a serial phase cut at a group boundary: the
// units explored so far (all complete, none accepted — an accepted
// candidate ends the phase). Units prune only on their own visited
// states, so the resumed remainder of the phase explores the same tree
// as the lost run from these alone.
type partialPhase struct {
	Budget     int        `json:"budget"`
	GroupsDone int        `json:"groups_done"`
	Units      []unitSnap `json:"units,omitempty"`
}

// unitSnap is the serializable outcome of one completed search unit.
type unitSnap struct {
	Group         int                  `json:"group"`
	Probe         bool                 `json:"probe,omitempty"`
	Choice        int                  `json:"choice"`
	Initial       int                  `json:"initial"`
	Ran           bool                 `json:"ran,omitempty"`
	BranchNatural bool                 `json:"branch_natural,omitempty"`
	BranchChoices int                  `json:"branch_choices,omitempty"`
	Accesses      []sched.AccessExport `json:"accesses,omitempty"`
	Leaves        []LeafTrace          `json:"leaves,omitempty"`
}

// lifsCheckpointKey derives the snapshot key for a search: the program
// hash plus a digest of every option that shapes the explored tree.
// MaxSchedules and Workers are deliberately excluded — the former only
// bounds how far a process gets before aborting (the exact situation a
// resume continues from), and serial/parallel searches of the same tree
// return the same reproduction.
func lifsCheckpointKey(prog *kir.Program, opts LIFSOptions) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "mi=%d|sb=%d|leak=%t|kind=%d|instr=%d|leaves=%t|np=%t|nlf=%t|nph=%t",
		opts.MaxInterleavings, opts.StepBudget, opts.LeakCheck,
		opts.WantKind, opts.WantInstr, opts.RecordLeaves,
		opts.NoPruning, opts.NoLeastFirst, opts.NoPhantom)
	if opts.Guide != nil {
		// A guided search explores (seeds and prunes) a different tree:
		// its frontier must never resume a blind search or a search
		// guided by different suspects.
		for _, sa := range opts.Guide.Suspects {
			fmt.Fprintf(h, "|g=%d:%s:%x:%t", sa.Instr, sa.Thread, sa.Addr, sa.Write)
		}
	}
	return fmt.Sprintf("%s.lifs.%016x", prog.Hash(), h.Sum64())
}

// loadLIFSCheckpoint returns the stored frontier for the key, or nil
// when none exists, the snapshot is invalid (wrong version, key, or
// checksum), it was taken from a different initial machine state, or it
// is not a frontier a search of prog with at most maxK interleavings
// writes (validFrontier). Invalid snapshots are indistinguishable from
// absent ones by design: the search falls back to fresh.
func loadLIFSCheckpoint(cfg *CheckpointConfig, key string, prog *kir.Program, maxK int, initSig uint64) *lifsCheckpoint {
	payload, err := cfg.Store.Load(key, lifsCheckpointVersion)
	if err != nil {
		return nil
	}
	var ck lifsCheckpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return nil
	}
	if ck.InitSig != initSig || !ck.validFrontier(prog, maxK) {
		return nil
	}
	return &ck
}

// validFrontier checks a decoded checkpoint against the shapes a search
// of prog with at most maxK interleavings saves: a terminal one carries
// its schedule; a frontier names a round (0 or 1) and a next phase
// (0..maxK+1, the latter once the round's last phase is done), and its
// round began with no more sites than its access records hold; a
// partial phase is the next phase, cut after at most every declared
// thread's group, and holds only units of the groups before the cut
// with declared initial threads. Every access record must name an
// instruction of prog.
func (ck *lifsCheckpoint) validFrontier(prog *kir.Program, maxK int) bool {
	if ck.Done && ck.Schedule == nil {
		return false
	}
	if ck.Round < 0 || ck.Round > 1 || ck.NextPhase < 0 || ck.NextPhase > maxK+1 || ck.SitesAtRoundStart < 0 {
		return false
	}
	if checkAccesses(prog, ck.Accesses) != nil || ck.SitesAtRoundStart > sched.ImportAccessMap(ck.Accesses).NumSites() {
		return false
	}
	if pp := ck.Partial; pp != nil {
		groups := len(prog.Threads)
		if pp.Budget != ck.NextPhase || pp.GroupsDone < 0 || pp.GroupsDone > groups {
			return false
		}
		for _, us := range pp.Units {
			if us.Group < 0 || us.Group >= pp.GroupsDone || us.Initial < 0 || us.Initial >= groups ||
				us.Choice < -1 || us.BranchChoices < 0 || checkAccesses(prog, us.Accesses) != nil {
				return false
			}
		}
	}
	return true
}

func saveLIFSCheckpoint(cfg *CheckpointConfig, key string, ck *lifsCheckpoint) {
	ck.SavedAt = time.Now().UnixNano()
	payload, err := json.Marshal(ck)
	if err != nil {
		return
	}
	if err := cfg.Store.Save(key, lifsCheckpointVersion, payload); err != nil {
		return
	}
	cfg.saved(key)
}

// caCheckpoint is the serialized progress of a causality analysis: the
// settled flip verdicts in deterministic test order. Fingerprint guards
// against resuming over a different test set (e.g. a reproduction that
// found a different run).
type caCheckpoint struct {
	Fingerprint string     `json:"fingerprint"`
	SavedAt     int64      `json:"saved_at"`
	Flips       []flipSnap `json:"flips,omitempty"`
}

// flipSnap is one settled flip test: its index in the deterministic
// test order, the pre-ambiguity verdict, and a compressed form of the
// flip run — just the executed (site, accesses) sequence, which is all
// the chain construction (sched.RaceOccurred/RaceTrace, executed sites)
// consumes from it.
type flipSnap struct {
	Idx      int        `json:"idx"`
	Verdict  uint8      `json:"verdict"`
	Realized bool       `json:"realized,omitempty"`
	Failed   bool       `json:"failed,omitempty"`
	Skipped  bool       `json:"skipped,omitempty"`
	Seq      []flipExec `json:"seq,omitempty"`
}

// flipExec is one executed step of a flip run, reduced to its causal
// footprint.
type flipExec struct {
	Thread   string            `json:"t"`
	Instr    kir.InstrID       `json:"i"`
	Accesses []sched.AccessRec `json:"a,omitempty"`
}

// snapFlip compresses a settled flip test for the checkpoint.
func snapFlip(idx int, tr TestedRace) flipSnap {
	fs := flipSnap{
		Idx:      idx,
		Verdict:  uint8(tr.Verdict),
		Realized: tr.FlipRealized,
		Skipped:  tr.PriorSkipped,
	}
	if tr.FlipRun != nil {
		fs.Failed = tr.FlipRun.Failed()
		fs.Seq = make([]flipExec, 0, tr.FlipRun.Base.Len()+tr.FlipRun.Seq.Len())
		for _, part := range tr.FlipRun.Parts() {
			for k, e := range part.Steps {
				fs.Seq = append(fs.Seq, flipExec{
					Thread:   part.Name(k),
					Instr:    e.Instr,
					Accesses: part.Accesses(k),
				})
			}
		}
	}
	return fs
}

// restoreFlip rebuilds a TestedRace from its snapshot. The rebuilt run
// carries exactly what chain construction reads: the ordered executed
// sites and their accesses, in the same records every run uses, with
// threads numbered by first appearance. Enforcement metadata, locksets
// and spawns are not reconstructed.
func restoreFlip(r sched.Race, fs flipSnap) TestedRace {
	tr := TestedRace{
		Race:         r,
		Verdict:      Verdict(fs.Verdict),
		FlipRealized: fs.Realized,
	}
	if fs.Skipped {
		// Settled benign by the learned prior without a run; restores to
		// the same shape a fresh skip settles to (nil FlipRun).
		tr.PriorSkipped = true
		return tr
	}
	if Verdict(fs.Verdict) == VerdictUnknown {
		return tr
	}
	run := &sched.RunResult{}
	for _, fe := range fs.Seq {
		run.Seq.AddStep(fe.Thread, fe.Instr, fe.Accesses)
	}
	tr.FlipRun = run
	return tr
}

// caFingerprint identifies one analysis problem: the program, the full
// test set (order and identity of every race), the failing sequence
// length, the options that decide verdicts, and — under a ranker — the
// prior's skip set. A checkpoint whose fingerprint mismatches is
// ignored; in particular, resuming under a prior snapshot that skips a
// different set of flips restarts fresh rather than mixing the two.
func caFingerprint(progHash string, rep *Reproduction, order []sched.Race, opts AnalysisOptions, skip []bool) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|seq=%d|sb=%d|leak=%t|ncs=%t|ranked=%t|races=%d",
		progHash, rep.Run.Seq.Len(), opts.StepBudget, opts.LeakCheck, opts.NoCriticalSections, opts.Ranker != nil, len(order))
	for i, s := range skip {
		if s {
			fmt.Fprintf(h, "|sk%d", i)
		}
	}
	for _, r := range order {
		fmt.Fprintf(h, "|%s/%d=>%s/%d@%x:%d,%d,%t,%x",
			r.First.Thread, r.First.Instr, r.Second.Thread, r.Second.Instr,
			r.Addr, r.FirstStep, r.SecondStep, r.Phantom, r.CSLock)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func caCheckpointKey(progHash, fingerprint string) string {
	return fmt.Sprintf("%s.ca.%s", progHash, fingerprint)
}

// loadCACheckpoint returns the settled flips for the key, or nil when
// absent, invalid, or fingerprinted for a different test set. skip is
// the analysis's prior-skip set, one entry per test. A flip is invalid
// unless it is one an analysis of the test set settles (flipSnap.valid).
func loadCACheckpoint(cfg *CheckpointConfig, key, fingerprint string, skip []bool, instrs int) *caCheckpoint {
	payload, err := cfg.Store.Load(key, caCheckpointVersion)
	if err != nil {
		return nil
	}
	var ck caCheckpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return nil
	}
	if ck.Fingerprint != fingerprint {
		return nil
	}
	for _, fs := range ck.Flips {
		if !fs.valid(skip, instrs) {
			return nil
		}
	}
	return &ck
}

// valid checks a settled flip against the shapes snapFlip writes: it
// indexes the test set, and is skipped exactly where the prior skips
// (benign, without a run), or settled undecided without a run, or
// settled benign or root cause by a run whose steps name instructions of
// the program; a benign run failed.
func (fs *flipSnap) valid(skip []bool, instrs int) bool {
	if fs.Idx < 0 || fs.Idx >= len(skip) || fs.Skipped != skip[fs.Idx] {
		return false
	}
	v := Verdict(fs.Verdict)
	if fs.Skipped {
		return v == VerdictBenign && len(fs.Seq) == 0
	}
	switch {
	case v == VerdictUnknown:
		return len(fs.Seq) == 0
	case v != VerdictBenign && v != VerdictRootCause, len(fs.Seq) == 0, v == VerdictBenign && !fs.Failed:
		return false
	}
	for _, fe := range fs.Seq {
		if fe.Instr < 0 || int(fe.Instr) >= instrs {
			return false
		}
	}
	return true
}

func saveCACheckpoint(cfg *CheckpointConfig, key string, ck *caCheckpoint) {
	ck.SavedAt = time.Now().UnixNano()
	payload, err := json.Marshal(ck)
	if err != nil {
		return
	}
	if err := cfg.Store.Save(key, caCheckpointVersion, payload); err != nil {
		return
	}
	cfg.saved(key)
}
