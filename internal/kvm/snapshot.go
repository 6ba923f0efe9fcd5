package kvm

import (
	"slices"

	"aitia/internal/kir"
	"aitia/internal/mem"
	"aitia/internal/sanitizer"
)

// mundoKind tags one machine journal entry.
type mundoKind uint8

const (
	muThread   mundoKind = iota // a thread about to be mutated (saved to the slab)
	muLock                      // a lockOwner entry mutated
	muSpawnSeq                  // a spawnSeq counter mutated
	muSpawn                     // a thread appended by queue_work/call_rcu
)

// mundo is one reverse-replayable machine mutation record. It holds no
// pointer: a saved thread is an index into the machine's slab.
type mundo struct {
	kind  mundoKind
	seq   uint64
	tid   ThreadID // muThread
	addr  uint64   // lock address (muLock)
	owner ThreadID // previous owner (muLock)
	had   bool     // the lockOwner/spawnSeq key was present before
	instr kir.InstrID
	n     int // previous spawnSeq value (muSpawnSeq); slab index (muThread)
}

// savedThread is the mutable state of a thread as saveThread found it.
// Its locks and frames are the given ranges of the machine's savedLocks
// and savedFrames arenas. A thread's identity (ID, name, kind, spawner)
// never changes, so it is not saved.
type savedThread struct {
	regs     [kir.NumRegs]int64
	waitLock uint64
	locks    int32 // offset in savedLocks
	nlocks   int32
	frames   int32 // offset in savedFrames
	nframes  int32
	state    ThreadState
}

// mappend adds one machine journal entry with the next sequence id.
func (m *Machine) mappend(r mundo) {
	m.mseq++
	r.seq = m.mseq
	m.journal = append(m.journal, r)
}

// saveThread journals t's mutable state before its first mutation in
// the current snapshot epoch, copying it onto the machine's slab and its
// locks and frames onto their arenas. Only the stepping thread is ever
// mutated (fail crashes the stepping thread; the blocked-retry path
// mutates it too), so one call at the top of Step covers every thread
// mutation.
func (m *Machine) saveThread(t *Thread) {
	if !m.journaling || t.savedEpoch == m.epoch {
		return
	}
	t.savedEpoch = m.epoch
	m.mappend(mundo{kind: muThread, tid: t.ID, n: len(m.saved)})
	m.saved = append(m.saved, savedThread{
		regs:     t.Regs,
		waitLock: t.WaitLock,
		locks:    int32(len(m.savedLocks)),
		nlocks:   int32(len(t.Locks)),
		frames:   int32(len(m.savedFrames)),
		nframes:  int32(len(t.frames)),
		state:    t.State,
	})
	m.savedLocks = append(m.savedLocks, t.Locks...)
	m.savedFrames = append(m.savedFrames, t.frames...)
	m.copied += threadBytes + 8*uint64(len(t.Locks)) + 16*uint64(len(t.frames))
	m.live += threadBytes + 8*uint64(len(t.Locks)) + 16*uint64(len(t.frames))
}

// restoreThread writes slab entry i back into its live thread, in place,
// and truncates the slab and arenas to before it.
func (m *Machine) restoreThread(tid ThreadID, i int) {
	st := &m.saved[i]
	t := m.threads[tid]
	t.Regs, t.WaitLock, t.State = st.regs, st.waitLock, st.state
	t.Locks = append(t.Locks[:0], m.savedLocks[st.locks:st.locks+st.nlocks]...)
	t.frames = append(t.frames[:0], m.savedFrames[st.frames:st.frames+st.nframes]...)
	m.live -= threadBytes + 8*uint64(st.nlocks) + 16*uint64(st.nframes)
	m.saved = m.saved[:i]
	m.savedLocks = m.savedLocks[:st.locks]
	m.savedFrames = m.savedFrames[:st.frames]
}

// journalThreads is the number of thread saves (and machine journal
// entries, and saved frames) the journals are first sized for.
const journalThreads = 8

// threadBytes approximates the fixed size of one saved thread, for the
// snapshot-bytes metric.
const threadBytes = 64 + 8*kir.NumRegs

// saveLock journals the lockOwner entry at addr before a mutation.
func (m *Machine) saveLock(addr uint64) {
	if !m.journaling {
		return
	}
	o, had := m.lockOwner[addr]
	m.mappend(mundo{kind: muLock, addr: addr, owner: o, had: had})
	m.copied += 24
	m.live += 24
}

// saveSpawnSeq journals the spawnSeq counter for instr before a mutation.
func (m *Machine) saveSpawnSeq(instr kir.InstrID) {
	if !m.journaling {
		return
	}
	n, had := m.spawnSeq[instr]
	m.mappend(mundo{kind: muSpawnSeq, instr: instr, n: n, had: had})
	m.copied += 24
	m.live += 24
}

// noteSpawn journals the append of a freshly spawned thread; undo pops it.
func (m *Machine) noteSpawn() {
	if !m.journaling {
		return
	}
	m.mappend(mundo{kind: muSpawn})
	m.copied += 8
	m.live += 8
}

// Snapshot is a copy-on-write machine checkpoint: a position in the
// machine's undo journal plus the space's journal mark and the scalar
// counters. Taking one is O(1); restoring costs O(mutations since it was
// taken) — the VM-revert the LIFS searcher performs at every scheduling
// decision point.
//
// Snapshots form a stack: restores must be LIFO-ordered. An outer snapshot
// stays valid across any number of inner snapshot/restore cycles and can
// itself be restored repeatedly; restoring a stale snapshot panics.
type Snapshot struct {
	space   mem.Snapshot
	pos     int
	seq     uint64
	gen     uint64
	failure *sanitizer.Failure
	steps   uint64
}

// Snapshot captures the machine state and enables mutation journaling (the
// first call flips the machine into CoW mode; machines that are never
// snapshotted pay nothing per Step). It inlines, so a snapshot that does
// not outlive its caller's frame is not allocated.
func (m *Machine) Snapshot() *Snapshot {
	sn := m.mark()
	return &sn
}

// mark is Snapshot's value.
func (m *Machine) mark() Snapshot {
	if !m.journaling {
		// The first snapshot sizes the journals once. Over the corpus,
		// a diagnosis's deepest memory journal holds 0.48 records per
		// program instruction (0.86 at most), and its slab holds at
		// most 8 saved threads in 97 of the 105 scenarios.
		m.journaling = true
		m.journal = slices.Grow(m.journal, journalThreads)
		m.saved = slices.Grow(m.saved, journalThreads)
		m.savedFrames = slices.Grow(m.savedFrames, journalThreads)
		m.space.ReserveJournal(m.prog.NumInstrs() / 2)
	}
	m.epoch++
	m.snapshots++
	// Match against the last live entry's id, not the monotonic counter
	// (which outruns the journal after a restore).
	var last uint64
	if len(m.journal) > 0 {
		last = m.journal[len(m.journal)-1].seq
	}
	return Snapshot{
		space:   *m.space.Snapshot(),
		pos:     len(m.journal),
		seq:     last,
		gen:     m.gen,
		failure: m.failure,
		steps:   m.steps,
	}
}

// SnapshotLive reports whether sn is still restorable on this machine:
// taken in the machine's current generation (no Reset since) and not
// truncated away by a restore to an older snapshot. The prefix cache
// uses it to validate warm pins handed from a reproduction to the
// analysis.
func (m *Machine) SnapshotLive(sn *Snapshot) bool {
	return sn.gen == m.gen && sn.pos <= len(m.journal) &&
		(sn.pos == 0 || m.journal[sn.pos-1].seq == sn.seq)
}

// Restore rewinds the machine to a snapshot by reverse-replaying the undo
// journal. The snapshot remains usable for further LIFO restores.
func (m *Machine) Restore(sn *Snapshot) {
	if !m.SnapshotLive(sn) {
		panic("kvm: restore of a stale snapshot (restores must be LIFO-ordered)")
	}
	live := m.live
	for i := len(m.journal) - 1; i >= sn.pos; i-- {
		r := &m.journal[i]
		switch r.kind {
		case muThread:
			m.restoreThread(r.tid, r.n)
		case muLock:
			if r.had {
				m.lockOwner[r.addr] = r.owner
			} else {
				delete(m.lockOwner, r.addr)
			}
			m.live -= 24
		case muSpawnSeq:
			if r.had {
				m.spawnSeq[r.instr] = r.n
			} else {
				delete(m.spawnSeq, r.instr)
			}
			m.live -= 24
		case muSpawn:
			m.threads = m.threads[:len(m.threads)-1]
			m.live -= 8
		}
	}
	m.restored += live - m.live // the rewound entries are the bytes written back
	m.journal = m.journal[:sn.pos]
	m.space.Restore(&sn.space)
	m.failure = sn.failure
	m.steps = sn.steps
	m.restores++
	m.epoch++
}

// SnapshotBytes returns the approximate number of bytes copied by the
// machine's copy-on-write journaling (thread clones, lock/spawn records
// and memory undo entries) since the machine was created, for metrics.
func (m *Machine) SnapshotBytes() uint64 { return m.copied + m.space.CopiedBytes() }

// RestoredBytes returns the approximate number of bytes the machine's
// restores have written back since it was created: the undo-journal
// entries each Restore rewinds. It counts restore work in the same units
// as LiveBytes, so restore cost can be gated exactly, without a clock.
func (m *Machine) RestoredBytes() uint64 { return m.restored + m.space.RestoredBytes() }

// LiveBytes returns the approximate number of bytes currently held by the
// machine's undo journals (thread clones, lock/spawn records and memory
// undo entries) — the memory a snapshot of the present state pins relative
// to the oldest live snapshot. The prefix cache uses it to enforce its
// pinned-bytes budget.
func (m *Machine) LiveBytes() uint64 { return m.live + m.space.LiveBytes() }

// StateBytes returns the approximate number of bytes of the machine's
// whole mutable state — memory, threads, lock owners and spawn counters —
// at the sizes the undo journals charge per entry: what restoring the
// present state by a full copy would write back, in RestoredBytes' units.
func (m *Machine) StateBytes() uint64 {
	n := m.space.StateBytes() + 24*uint64(len(m.lockOwner)+len(m.spawnSeq))
	for _, t := range m.threads {
		n += threadBytes + 8*uint64(len(t.Locks)) + 16*uint64(len(t.frames))
	}
	return n
}

// Reset rewinds the machine to its initial state (equivalent to New).
// The armed fault plan, if any, survives the reset.
func (m *Machine) Reset() error {
	fresh, err := New(m.prog)
	if err != nil {
		return err
	}
	if m.fault != nil {
		fresh.SetFaultPlan(m.fault)
	}
	fresh.gen = m.gen + 1 // stale out snapshots of the pre-reset machine
	*m = *fresh
	return nil
}
