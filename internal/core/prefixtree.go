package core

import (
	"fmt"
	"sync/atomic"

	"aitia/internal/faultinject"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sched"
)

// This file implements the incremental-replay prefix cache: the search
// and the causality analysis both execute large families of schedules
// that share long prefixes (every task unit of a LIFS group replays the
// group's prefix; every flip test replays the failing run up to its
// race). Instead of re-enforcing each schedule from instruction 0, the
// pipeline pins copy-on-write snapshots (kvm.Machine.Snapshot, O(1)) at
// interior states of that shared prefix tree and starts each run from
// the deepest pinned ancestor, replaying only the suffix.
//
// The cache is purely a work optimization: the explored tree, the
// reproduction, every flip verdict and the diagnosis are identical
// whatever it pins, down to a budget that pins nothing. Pins live only
// in memory — a checkpoint-resumed search starts cold — and
// journal-based snapshots force LIFO restores, so eviction is
// structural: seeking below a pin drops everything deeper (the deepest
// pins go first), and creation stops once the pinned bytes exceed the
// budget.

// DefaultPinBudget bounds the bytes pinned by live prefix snapshots
// (64 MiB; scenario-sized kernels pin a few KiB per run).
const DefaultPinBudget = 64 << 20

// PrefixConfig configures the incremental-replay prefix cache. The zero
// value is the default byte budget.
type PrefixConfig struct {
	// BudgetBytes bounds the bytes pinned by live prefix snapshots
	// (measured with kvm.Machine.LiveBytes). Zero means
	// DefaultPinBudget. When the budget is exhausted no further pins
	// are created — deeper states replay from the deepest affordable
	// ancestor — so the budget caps memory without affecting results.
	BudgetBytes uint64
}

func (c PrefixConfig) budget() uint64 {
	if c.BudgetBytes > 0 {
		return c.BudgetBytes
	}
	return DefaultPinBudget
}

// prefixStats aggregates the cache's work counters across a search or
// analysis (shared by every worker machine).
type prefixStats struct {
	replayed atomic.Uint64 // instructions spent re-executing known prefixes
	saved    atomic.Uint64 // prefix instructions skipped via pin restores
	hits     atomic.Int64  // runs started from a pinned snapshot
	pinned   atomic.Uint64 // peak LiveBytes at any pin creation
}

// notePinned records the pinned-bytes high-water mark (CAS-max).
func (ps *prefixStats) notePinned(b uint64) {
	for {
		cur := ps.pinned.Load()
		if b <= cur || ps.pinned.CompareAndSwap(cur, b) {
			return
		}
	}
}

// branchScript is the machine-independent half of a LIFS branch pin: the
// exploration state a task unit needs to resume from its group's branch
// event without replaying the prefix. The probe captures it at the
// branch; the machine-specific half (the snapshot) is pinned separately
// per machine, so parallel workers share one script but own their pins.
type branchScript struct {
	path    path             // executed prefix (the script's own copy; resume copies it)
	seen    uint32           // guide suspects executed on the prefix
	div     sched.Diversions // lock-diversion return stack at the branch
	natural bool             // natural switch (else conflict preemption)
	choices []kvm.ThreadID   // natural: viable threads; conflict: preemption targets
	cur     kvm.ThreadID     // conflict: the thread at the conflict point
}

// traceBuf is one machine's reusable LIFS exploration scratch: the path
// the explorer's trace lives in (rewound at every backtrack), the access
// log its units record into, the visited-state set of the unit it runs,
// and the arena branch scripts copy their paths into. Units on one
// machine run one at a time, so one buffer per machine — the searcher's
// main machine, each workerVM — serves them all, and none of it is
// allocated again per unit. The path and the visited set do not outlive
// a unit: startUnit empties them. A branch script's path copy lives in
// the arena until searcher.phase rewinds it (when a phase starts, and
// before each probe of a serial phase), and an accepted leaf builds its
// run records from the path once (path.records). The
// access log's records live until the phase merge: each unit appends its
// accesses and keeps their range (unit.log), and the merge, having
// folded every unit's range, empties the log.
type traceBuf struct {
	path path
	log  sched.AccessLog
	// recent is a direct-mapped cache of accesses the current unit has
	// already logged, so a unit re-executing the same suffix in schedule
	// after schedule logs each access about once. A slot holds 1 + the
	// index in log.Accs of the access last logged there, 0 when empty. A
	// miss only costs a duplicate record, which Fold dedupes.
	recent [1 << 6]int32 // indexed by a 6-bit hash
	// threads caches the current unit's thread-name resolutions by
	// kvm.ThreadID (see thread).
	threads []threadRef
	// visited holds the states the current unit reached (see pruneCheck);
	// made by the machine's first insert, cleared per unit.
	visited map[visKey]struct{}
	// scripts is the arena of the phase's branch-script paths (keep).
	scripts path
}

// threadRef is one thread name's index in the machine's access log and
// in the unit's phase base (sched.AccessMap.ThreadIndex, -1 for a thread
// the base has not seen).
type threadRef struct {
	name      string
	log, base int32
}

// thread resolves t's name in the log and in base, once per thread and
// unit. A thread ID names different threads in different schedules (a
// spawned thread's ID is its spawn order), so a cached entry counts only
// while its name is t's.
func (b *traceBuf) thread(t *kvm.Thread, base *sched.AccessMap) threadRef {
	id := int(t.ID)
	for len(b.threads) <= id {
		b.threads = append(b.threads, threadRef{log: -1})
	}
	r := &b.threads[id]
	if r.log < 0 || r.name != t.Name {
		*r = threadRef{name: t.Name, log: b.log.Intern(t.Name), base: base.ThreadIndex(t.Name)}
	}
	return *r
}

// path is the explorer's current path: the order of (thread,
// instruction) decisions LIFS needs, and each step's accesses. It holds
// no pointer, so the garbage collector never scans it and copying it
// copies two flat arrays. An accepted leaf turns it into a run's
// records once (records).
type path struct {
	steps []pathStep
	accs  []kvm.Access // all steps' accesses, in step order
}

// pathStep is one executed step of a path: 16 bytes, no pointers.
type pathStep struct {
	thread  int32       // kvm.ThreadID of the executing thread
	instr   kir.InstrID // the executed instruction
	spawned int32       // kvm.ThreadID the step spawned, or kvm.NoThread
	accEnd  int32       // end of the step's accesses in path.accs
}

// append records one executed step of thread t (ev as returned by Step).
func (p *path) append(t kvm.ThreadID, ev kvm.StepEvent) {
	p.accs = append(p.accs, ev.Accesses...)
	p.steps = append(p.steps, pathStep{
		thread:  int32(t),
		instr:   ev.Instr.ID,
		spawned: int32(ev.Spawned),
		accEnd:  int32(len(p.accs)),
	})
}

// rewind truncates the path to its first n steps.
func (p *path) rewind(n int) {
	p.steps = p.steps[:n]
	end := 0
	if n > 0 {
		end = int(p.steps[n-1].accEnd)
	}
	p.accs = p.accs[:end]
}

// copyFrom makes p a copy of q, reusing p's arrays.
func (p *path) copyFrom(q *path) {
	p.steps = append(p.steps[:0], q.steps...)
	p.accs = append(p.accs[:0], q.accs...)
}

// keep appends a copy of q to p, an arena of paths, and returns the
// copy: ranges of p's arrays, capped so that nothing appends into them.
// The copy stays valid until p is rewound below it.
func (p *path) keep(q *path) path {
	s0, a0 := len(p.steps), len(p.accs)
	p.steps = append(p.steps, q.steps...)
	p.accs = append(p.accs, q.accs...)
	s1, a1 := len(p.steps), len(p.accs)
	return path{steps: p.steps[s0:s1:s1], accs: p.accs[a0:a1:a1]}
}

// records builds the path's run records, each stamped with its
// position, in arrays of their own. m is the machine that executed the
// path and still holds its threads, whose names the trace takes. The
// records carry no locksets: the final replay, which records into this
// same trace (sched.Options.Log), fills them in.
func (p *path) records(m *kvm.Machine) sched.Trace {
	tr := sched.Trace{
		Steps: make([]sched.Exec, 0, len(p.steps)),
		Accs:  make([]sched.AccessRec, 0, len(p.accs)),
		Names: sched.ThreadNames(m),
	}
	start := 0
	for k, st := range p.steps {
		end := int(st.accEnd)
		tr.Append(k, kvm.ThreadID(st.thread), st.instr, kvm.ThreadID(st.spawned), p.accs[start:end], nil)
		start = end
	}
	return tr
}

// startUnit readies the buffer for a new unit: it empties the path, the
// cache of logged accesses, the thread resolutions (the unit's phase
// base may differ from the last unit's) and the visited set, and returns
// where the unit's accesses start in the log.
func (b *traceBuf) startUnit() int {
	b.path.rewind(0)
	clear(b.recent[:])
	b.threads = b.threads[:0]
	if len(b.visited) > 0 {
		clear(b.visited)
	}
	return len(b.log.Accs)
}

// logAccess appends an access unless the cache has seen it in this unit.
func (b *traceBuf) logAccess(a sched.LoggedAccess) {
	// Threads running the same code differ only in their index.
	h := uint64(a.Instr)<<32 ^ a.Addr ^ uint64(a.Thread())<<48
	// Fibonacci hashing: the top bits of the product pick the slot.
	slot := &b.recent[(h*0x9e3779b97f4a7c15)>>58]
	if *slot != 0 && b.log.Accs[*slot-1] == a {
		return
	}
	b.log.Accs = append(b.log.Accs, a)
	*slot = int32(len(b.log.Accs))
}

// flipCache incrementally replays prefixes of the canonical failing
// sequence for the analysis's flip tests. A flip at cut n shares
// seq[:n] with the failing run verbatim; the cache pins snapshots at the
// positions a flip can cut at (sched.CutPoints) and serves each Seek
// from the deepest pinned ancestor, replaying only the gap. A pin is two
// heap snapshots plus a thread clone on the next step, so positions no
// flip cuts at are not pinned. One cache per machine: serial analysis
// has one, each parallel flip worker its own.
type flipCache struct {
	m      *kvm.Machine
	init   *kvm.Snapshot
	seq    *sched.Trace // canonical failing sequence (position-stamped)
	cuts   []bool       // sched.CutPoints(seq): the positions to pin
	budget uint64
	fault  *faultinject.Plan
	stats  *prefixStats
	pins   []flipPin // ascending pos; restores are LIFO by construction
}

type flipPin struct {
	pos  int
	snap *kvm.Snapshot
}

func newFlipCache(m *kvm.Machine, init *kvm.Snapshot, seq *sched.Trace, cuts []bool, cfg PrefixConfig, fault *faultinject.Plan, stats *prefixStats) *flipCache {
	return &flipCache{
		m: m, init: init, seq: seq, cuts: cuts,
		budget: cfg.budget(), fault: fault, stats: stats,
	}
}

// Seek brings the machine to schedule position n of the failing
// sequence, after which the caller enforces the flip suffix with
// sched.Options.Prefix = seq.Prefix(n). The snapshot-restore check is
// drawn first with the flip's (op, key, attempt), so a flip's chaos fate
// does not depend on what the cache holds. A fired prefix-restore fault
// (a corrupt pin) degrades to a from-scratch replay and never surfaces
// as an error — degradation costs work, not correctness.
func (c *flipCache) Seek(n int, op string, key uint64, attempt int) error {
	if err := c.fault.Check(faultinject.KindSnapshotRestore, op, key, attempt); err != nil {
		return err
	}
	i := len(c.pins) - 1
	for i >= 0 && c.pins[i].pos > n {
		i--
	}
	from := 0
	if i >= 0 {
		if err := c.fault.Check(faultinject.KindPrefixRestore, op, key, attempt); err != nil {
			// Corrupt pin: any cached node may share the corruption, so
			// drop the whole cache and replay from the initial state.
			c.drop(0)
			c.m.Restore(c.init)
		} else {
			from = c.pins[i].pos
			c.drop(i + 1) // the restore truncates the journal above the pin
			c.m.Restore(c.pins[i].snap)
			c.stats.hits.Add(1)
			c.stats.saved.Add(uint64(from))
		}
	} else {
		c.drop(0)
		c.m.Restore(c.init)
	}
	return c.replay(from, n, false)
}

// replay re-executes seq[from:n] step by step, re-pinning at every cut
// position on the way. A divergence from a pinned state degrades to one
// from-scratch replay; diverging from the initial state is a real bug
// and fails loudly.
func (c *flipCache) replay(from, n int, retried bool) error {
	for j := from; j < n; j++ {
		ev, err := c.m.Step(kvm.ThreadID(c.seq.Steps[j].Thread))
		if err != nil || !ev.Executed {
			if retried {
				return fmt.Errorf("core: prefix replay diverged from the recorded sequence at step %d of %d", j, n)
			}
			c.drop(0)
			c.m.Restore(c.init)
			return c.replay(0, n, true)
		}
		c.stats.replayed.Add(1)
		if pos := j + 1; c.cuts[pos] {
			c.pin(pos)
		}
	}
	return nil
}

// pin snapshots the machine's current position unless the pinned-bytes
// budget is exhausted.
func (c *flipCache) pin(pos int) {
	lb := c.m.LiveBytes()
	if lb > c.budget {
		return
	}
	c.pins = append(c.pins, flipPin{pos: pos, snap: c.m.Snapshot()})
	c.stats.notePinned(lb)
}

// drop evicts pins[i:], clearing references so snapshots can be
// collected.
func (c *flipCache) drop(i int) {
	for j := i; j < len(c.pins); j++ {
		c.pins[j] = flipPin{}
	}
	c.pins = c.pins[:i]
}

// prefixSeed carries warm pins from a reproduction's final replay into
// the analysis. Reproduce already executes the winning schedule once (to
// validate it and leave the machine in the failing state); pinning along
// that replay, at the positions a flip can cut at (sched.CutPoints of the
// found trace), means the analysis's flip cache starts with every cut
// already cached instead of rebuilding the failing sequence from
// instruction 0; the seed carries the marks, so the adopting cache pins
// where the seed did. A terminal-checkpoint resume has no found trace before
// its replay and hands Analyze no seed; the analysis's cache then pins
// the cuts as it seeks them. The seed is memory-only and machine-bound:
// Analyze adopts it only when handed the same machine with the pins still
// live (SnapshotLive), and falls back to a cold cache otherwise.
type prefixSeed struct {
	m    *kvm.Machine
	init *kvm.Snapshot
	pins []flipPin
	cuts []bool // the positions pinned; the adopting cache pins there too
}

// adopt validates the seed against the machine and returns the still-live
// pins. Pins die from the deepest position down (journal truncation), so
// filtering preserves the ascending LIFO order the cache requires.
func (sd *prefixSeed) adopt(m *kvm.Machine) ([]flipPin, bool) {
	if sd == nil || sd.m != m || !m.SnapshotLive(sd.init) {
		return nil, false
	}
	var live []flipPin
	for _, p := range sd.pins {
		if m.SnapshotLive(p.snap) {
			live = append(live, p)
		}
	}
	return live, true
}
