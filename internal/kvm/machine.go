// Package kvm implements the simulated kernel virtual machine: threads
// (system calls, kworkers, RCU softirq callbacks) executing kir programs
// over a mem.Space, one instruction per Step, under full control of the
// caller — the role the KVM/QEMU-based AITIA hypervisor plays for the real
// kernel.
//
// The machine is deterministic: given the same program and the same
// sequence of Step(thread) calls, it produces the same execution. It is
// sequentially consistent by construction, matching the paper's memory
// model assumption (§3.2). Snapshot/Restore provide the VM-revert
// operation used between search and diagnosis runs.
package kvm

import (
	"fmt"
	"strconv"

	"aitia/internal/faultinject"
	"aitia/internal/kir"
	"aitia/internal/mem"
	"aitia/internal/sanitizer"
)

// ThreadID identifies a thread within one machine (its index in spawn
// order; statically declared threads come first).
type ThreadID int

// NoThread is the "no thread" sentinel.
const NoThread ThreadID = -1

// ThreadState is the scheduling state of a thread.
type ThreadState uint8

const (
	// Runnable threads can execute their next instruction.
	Runnable ThreadState = iota
	// Blocked threads are waiting on a mutex held by another thread.
	Blocked
	// Done threads have finished.
	Done
	// Crashed threads triggered the machine's failure.
	Crashed
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	case Crashed:
		return "crashed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// frame is one call-stack entry.
type frame struct {
	fn *kir.Func
	pc int
}

// Thread is an execution context.
type Thread struct {
	ID        ThreadID
	Name      string
	Kind      kir.ThreadKind
	Regs      [kir.NumRegs]int64
	State     ThreadState
	WaitLock  uint64      // lock address while Blocked
	Locks     []uint64    // held locks in acquisition order
	SpawnedBy ThreadID    // NoThread for declared threads
	SpawnSite kir.InstrID // instruction that spawned it (queue_work/call_rcu)
	frames    []frame

	// savedEpoch is the snapshot epoch in which this thread was last
	// journaled; a thread is cloned into the undo journal at most once per
	// epoch (copy-on-write).
	savedEpoch uint64
}

// HoldsLock reports whether the thread currently holds the lock at addr.
func (t *Thread) HoldsLock(addr uint64) bool {
	for _, l := range t.Locks {
		if l == addr {
			return true
		}
	}
	return false
}

// Access is one shared-memory access performed by a step.
type Access struct {
	Addr  uint64
	Write bool
}

// StepEvent reports what one Step did. Instr points into the machine's
// finalized (immutable) program. Accesses is backed by a buffer the
// machine owns: it stays valid only until the next Step, so a caller that
// keeps the accesses must copy them.
type StepEvent struct {
	Thread   ThreadID
	Instr    *kir.Instr
	Executed bool     // false when the step blocked on a lock
	Accesses []Access // shared-memory accesses performed; reused by the next Step
	Spawned  ThreadID // thread created by queue_work/call_rcu, else NoThread
	Failure  *sanitizer.Failure
	Done     bool // thread finished with this step
}

// Machine is a simulated kernel instance.
type Machine struct {
	prog      *kir.Program
	space     *mem.Space
	gbase     []uint64 // base address of each of prog.Globals, by index
	threads   []*Thread
	lockOwner map[uint64]ThreadID
	failure   *sanitizer.Failure
	steps     uint64
	spawnSeq  map[kir.InstrID]int
	fault     *faultinject.Plan // armed by SetFaultPlan; nil = no injection

	// Copy-on-write checkpointing state (see snapshot.go). Journaling is
	// off until the first Snapshot call.
	journal     []mundo
	saved       []savedThread // thread states muThread entries index
	savedLocks  []uint64      // the saved threads' held locks
	savedFrames []frame       // the saved threads' call stacks
	mseq        uint64
	journaling  bool
	epoch       uint64
	copied      uint64 // approximate bytes journaled, for metrics
	live        uint64 // approximate bytes currently held by the journal
	restored    uint64 // approximate bytes written back by restores
	snapshots   uint64
	restores    uint64
	executed    uint64 // total instructions ever executed; never rewound
	gen         uint64 // bumped by Reset; stales every Snapshot

	// Scratch buffers reused across calls so the step path allocates
	// nothing: stepAcc backs StepEvent.Accesses until the next Step,
	// peekAcc backs PeekAccesses' result until the next PeekAccesses.
	stepAcc []Access
	peekAcc []Access
}

// New creates a machine with the program's declared threads ready to run.
func New(prog *kir.Program) (*Machine, error) {
	if !prog.Finalized() {
		return nil, fmt.Errorf("kvm: program not finalized")
	}
	space, err := mem.NewSpace(prog.Globals)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		prog:      prog,
		space:     space,
		gbase:     make([]uint64, len(prog.Globals)),
		lockOwner: make(map[uint64]ThreadID),
		spawnSeq:  make(map[kir.InstrID]int),
	}
	for i, g := range prog.Globals {
		m.gbase[i], _ = space.GlobalAddr(g.Name)
	}
	for _, td := range prog.Threads {
		t := &Thread{
			ID:        ThreadID(len(m.threads)),
			Name:      td.Name,
			Kind:      td.Kind,
			State:     Runnable,
			SpawnedBy: NoThread,
			SpawnSite: kir.NoInstr,
			frames:    []frame{{fn: m.prog.Funcs[td.Entry]}},
		}
		t.Regs[0] = td.Arg
		m.threads = append(m.threads, t)
	}
	return m, nil
}

// Prog returns the program the machine executes.
func (m *Machine) Prog() *kir.Program { return m.prog }

// Space returns the machine's address space (for reports and tests).
func (m *Machine) Space() *mem.Space { return m.space }

// Steps returns the number of instructions executed so far.
func (m *Machine) Steps() uint64 { return m.steps }

// Executed returns the total number of instructions the machine has ever
// executed. Unlike Steps, it is monotonic: Restore rewinds the logical
// step counter but not this one, so it measures real execution work across
// an entire search, replays included.
func (m *Machine) Executed() uint64 { return m.executed }

// NumThreads returns the number of threads spawned so far.
func (m *Machine) NumThreads() int { return len(m.threads) }

// Thread returns the thread with the given id, or nil.
func (m *Machine) Thread(tid ThreadID) *Thread {
	if tid < 0 || int(tid) >= len(m.threads) {
		return nil
	}
	return m.threads[tid]
}

// ThreadByName returns the thread with the given name, or nil.
func (m *Machine) ThreadByName(name string) *Thread {
	for _, t := range m.threads {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Failure returns the machine's failure, or nil while it is healthy.
func (m *Machine) Failure() *sanitizer.Failure { return m.failure }

// Runnable lists the threads that could make progress right now: Runnable
// threads plus Blocked threads whose awaited lock has been released.
func (m *Machine) Runnable() []ThreadID {
	var out []ThreadID
	for _, t := range m.threads {
		if m.CanRun(t.ID) {
			out = append(out, t.ID)
		}
	}
	return out
}

// FirstRunnable returns the lowest-ID thread Runnable would list, or
// NoThread when none can make progress. Unlike Runnable it allocates
// nothing.
func (m *Machine) FirstRunnable() ThreadID {
	for _, t := range m.threads {
		if m.CanRun(t.ID) {
			return t.ID
		}
	}
	return NoThread
}

// CanRun reports whether the thread could make progress right now: it is
// Runnable, or Blocked on a lock since released; false for NoThread. It is
// the one viability rule: the enforcer and the LIFS explorer use it too.
func (m *Machine) CanRun(tid ThreadID) bool {
	if tid < 0 || int(tid) >= len(m.threads) {
		return false
	}
	t := m.threads[tid]
	switch t.State {
	case Runnable:
		return true
	case Blocked:
		_, held := m.lockOwner[t.WaitLock]
		return !held
	default:
		return false
	}
}

// AllDone reports whether every thread has finished.
func (m *Machine) AllDone() bool {
	for _, t := range m.threads {
		if t.State != Done {
			return false
		}
	}
	return len(m.threads) > 0
}

// Deadlocked reports whether the machine is healthy but cannot make
// progress: at least one unfinished thread and no runnable one.
func (m *Machine) Deadlocked() bool {
	if m.failure != nil || m.AllDone() {
		return false
	}
	return m.FirstRunnable() == NoThread
}

// LockOwner returns the thread currently holding the lock at addr.
func (m *Machine) LockOwner(addr uint64) (ThreadID, bool) {
	o, ok := m.lockOwner[addr]
	return o, ok
}

// NumFrames returns the depth of the thread's call stack; 0 for finished
// and crashed threads. With Frame it walks the stack in place:
// report-guided search uses the positions to decide whether a thread can
// still reach a suspect instruction.
func (m *Machine) NumFrames(tid ThreadID) int {
	t := m.Thread(tid)
	if t == nil || (t.State != Runnable && t.State != Blocked) {
		return 0
	}
	return len(t.frames)
}

// Frame returns call-stack position i of the thread, outermost first
// (0 <= i < NumFrames): the function and the index of the next
// instruction to execute within it. For outer frames the index is the
// continuation after the active call.
func (m *Machine) Frame(tid ThreadID, i int) (fn *kir.Func, pc int) {
	fr := &m.threads[tid].frames[i]
	return fr.fn, fr.pc
}

// NextInstr returns the instruction the thread would execute next, as a
// pointer into the finalized program. ok is false (and the pointer nil)
// for finished or crashed threads.
func (m *Machine) NextInstr(tid ThreadID) (*kir.Instr, bool) {
	t := m.Thread(tid)
	if t == nil || (t.State != Runnable && t.State != Blocked) {
		return nil, false
	}
	fr := &t.frames[len(t.frames)-1]
	return &fr.fn.Instrs[fr.pc], true
}

// CheckLeaks runs the end-of-execution memory-leak check and records a
// failure if live heap objects remain. It should be called only when
// AllDone reports true and no failure occurred.
func (m *Machine) CheckLeaks() *sanitizer.Failure {
	if m.failure != nil {
		return m.failure
	}
	leaked := m.space.Leaked()
	if len(leaked) == 0 {
		return nil
	}
	o := leaked[0]
	m.failure = &sanitizer.Failure{
		Kind:  sanitizer.KindMemoryLeak,
		Instr: o.AllocSite,
		Addr:  o.Base,
		Msg:   strconv.Itoa(len(leaked)) + " object(s) never freed; first allocated at " + m.prog.InstrName(o.AllocSite),
	}
	return m.failure
}

// InjectFailure records an externally detected failure (deadlock and
// watchdog conditions are observed by the scheduler, not by any single
// instruction). It is a no-op if the machine has already failed.
func (m *Machine) InjectFailure(f *sanitizer.Failure) {
	if m.failure == nil {
		m.failure = f
	}
}

// fail records the machine failure and crashes the thread.
func (m *Machine) fail(t *Thread, in *kir.Instr, kind sanitizer.Kind, addr uint64, msg string) *sanitizer.Failure {
	f := &sanitizer.Failure{Kind: kind, Thread: t.Name, Instr: in.ID, Addr: addr, Msg: msg}
	m.failure = f
	t.State = Crashed
	return f
}

// failFault records a memory-fault failure with object context.
func (m *Machine) failFault(t *Thread, in *kir.Instr, fault *mem.Fault) *sanitizer.Failure {
	msg := ""
	if fault.Object != nil {
		msg = "object 0x" + strconv.FormatUint(fault.Object.Base, 16) +
			" (size " + strconv.FormatInt(fault.Object.Size, 10) + ") allocated at " +
			m.prog.InstrName(fault.Object.AllocSite)
		if fault.Object.FreeSite != kir.NoInstr {
			msg += ", freed at " + m.prog.InstrName(fault.Object.FreeSite)
		}
	}
	return m.fail(t, in, sanitizer.FromFault(fault), fault.Addr, msg)
}

// value evaluates a value operand, in place in its instruction, against
// the thread's registers.
func value(t *Thread, o *kir.Operand) int64 {
	switch o.Kind {
	case kir.KindImm:
		return o.Imm
	case kir.KindReg:
		return t.Regs[o.Reg]
	case kir.KindNone:
		return 0
	}
	panic(badOperand{o, "a value"})
}

// addr resolves an address operand, in place in its instruction. Global
// operands were resolved to global indices at Finalize; indirect
// addresses may be anything (that is the point — wild and NULL pointers
// fault at access time).
func (m *Machine) addr(t *Thread, o *kir.Operand) uint64 {
	switch o.Kind {
	case kir.KindGlobal:
		return m.gbase[o.Global()] + uint64(o.Off)
	case kir.KindInd:
		return uint64(t.Regs[o.Reg] + o.Off)
	}
	panic(badOperand{o, "an address"})
}

// badOperand is the panic of value and addr on an operand of the wrong
// kind, which a finalized program never holds. Its message is built only
// when printed, which keeps both functions small enough to inline.
type badOperand struct {
	o    *kir.Operand
	want string
}

func (b badOperand) Error() string { return "kvm: operand " + b.o.String() + " is not " + b.want }

// normalize pops exhausted frames (implicit returns) and marks the thread
// Done when its stack empties.
func (t *Thread) normalize() {
	for len(t.frames) > 0 {
		fr := &t.frames[len(t.frames)-1]
		if fr.pc < len(fr.fn.Instrs) {
			return
		}
		t.frames = t.frames[:len(t.frames)-1]
	}
	t.State = Done
}

// Step executes (or re-attempts) one instruction of the given thread.
// Stepping a thread blocked on a held lock returns Executed=false without
// advancing. Stepping after a machine failure, or stepping a finished
// thread, is an error — callers drive scheduling and must consult
// Runnable/Failure first. The returned event's Accesses are overwritten
// by the next Step.
func (m *Machine) Step(tid ThreadID) (StepEvent, error) {
	ev, err := m.step(tid)
	if cap(ev.Accesses) > cap(m.stepAcc) {
		m.stepAcc = ev.Accesses[:0] // keep the grown buffer for later steps
	}
	return ev, err
}

func (m *Machine) step(tid ThreadID) (StepEvent, error) {
	if m.failure != nil {
		return StepEvent{}, fmt.Errorf("kvm: machine has failed: %v", m.failure)
	}
	t := m.Thread(tid)
	if t == nil {
		return StepEvent{}, fmt.Errorf("kvm: no thread %d", tid)
	}
	if t.State != Runnable && t.State != Blocked {
		return StepEvent{}, fmt.Errorf("kvm: thread %s is %s", t.Name, t.State)
	}
	// Every mutation below touches only the stepping thread (plus the
	// machine maps, journaled at their mutation sites), so one clone here
	// covers the whole step.
	m.saveThread(t)

	fr := &t.frames[len(t.frames)-1]
	in := &fr.fn.Instrs[fr.pc]
	ev := StepEvent{Thread: tid, Instr: in, Executed: true, Accesses: m.stepAcc[:0], Spawned: NoThread}

	if t.State == Blocked {
		// Only a Lock instruction can block; re-attempt it.
		la := t.WaitLock
		if _, held := m.lockOwner[la]; held {
			ev.Executed = false
			return ev, nil
		}
		m.saveLock(la)
		m.lockOwner[la] = tid
		t.Locks = append(t.Locks, la)
		t.State = Runnable
		t.WaitLock = 0
		fr.pc++
		m.steps++
		m.executed++
		t.normalize()
		ev.Done = t.State == Done
		return ev, nil
	}

	advance := true
	switch in.Op {
	case kir.OpNop, kir.OpYield:
		// observable scheduling points only

	case kir.OpMov:
		t.Regs[in.Dst] = value(t, &in.A)
	case kir.OpAdd:
		t.Regs[in.Dst] += value(t, &in.A)
	case kir.OpSub:
		t.Regs[in.Dst] -= value(t, &in.A)
	case kir.OpAnd:
		t.Regs[in.Dst] &= value(t, &in.A)
	case kir.OpOr:
		t.Regs[in.Dst] |= value(t, &in.A)
	case kir.OpXor:
		t.Regs[in.Dst] ^= value(t, &in.A)

	case kir.OpLoad:
		a := m.addr(t, &in.A)
		v, fault := m.space.Load(a)
		ev.Accesses = append(ev.Accesses, Access{Addr: a})
		if fault != nil {
			ev.Failure = m.failFault(t, in, fault)
			return ev, nil
		}
		t.Regs[in.Dst] = v

	case kir.OpStore:
		a := m.addr(t, &in.A)
		ev.Accesses = append(ev.Accesses, Access{Addr: a, Write: true})
		if fault := m.space.Store(a, value(t, &in.B)); fault != nil {
			ev.Failure = m.failFault(t, in, fault)
			return ev, nil
		}

	case kir.OpBeq, kir.OpBne, kir.OpBlt, kir.OpBge:
		a, bv := value(t, &in.A), value(t, &in.B)
		var taken bool
		switch in.Op {
		case kir.OpBeq:
			taken = a == bv
		case kir.OpBne:
			taken = a != bv
		case kir.OpBlt:
			taken = a < bv
		case kir.OpBge:
			taken = a >= bv
		}
		if taken {
			fr.pc = m.prog.BranchTarget(in)
			advance = false
		}

	case kir.OpJmp:
		fr.pc = m.prog.BranchTarget(in)
		advance = false

	case kir.OpCall:
		fr.pc++
		advance = false
		t.frames = append(t.frames, frame{fn: m.prog.Funcs[in.Target]})

	case kir.OpRet:
		t.frames = t.frames[:len(t.frames)-1]
		advance = false

	case kir.OpLock:
		la := m.addr(t, &in.A)
		owner, held := m.lockOwner[la]
		switch {
		case !held:
			m.saveLock(la)
			m.lockOwner[la] = tid
			t.Locks = append(t.Locks, la)
		case owner == tid:
			ev.Failure = m.fail(t, in, sanitizer.KindDeadlock, la, "recursive lock acquisition")
			return ev, nil
		default:
			t.State = Blocked
			t.WaitLock = la
			ev.Executed = false
			return ev, nil
		}

	case kir.OpUnlock:
		la := m.addr(t, &in.A)
		if m.lockOwner[la] != tid || !t.HoldsLock(la) {
			ev.Failure = m.fail(t, in, sanitizer.KindBadUnlock, la, "unlock of a lock not held by this thread")
			return ev, nil
		}
		m.saveLock(la)
		delete(m.lockOwner, la)
		for i, l := range t.Locks {
			if l == la {
				t.Locks = append(t.Locks[:i], t.Locks[i+1:]...)
				break
			}
		}

	case kir.OpAlloc:
		t.Regs[in.Dst] = int64(m.space.Alloc(in.Size, in.ID))

	case kir.OpFree:
		base := uint64(value(t, &in.A))
		if base == 0 {
			break // kfree(NULL) is a no-op
		}
		// A free conflicts with every access to the object, so it emits a
		// write access per payload word (this is what makes use-after-free
		// *races* detectable, not just use-after-free *faults*).
		if obj := m.space.ObjectAt(base); obj != nil && obj.Base == base {
			for a := obj.Base; a < obj.Base+uint64(obj.Size); a++ {
				ev.Accesses = append(ev.Accesses, Access{Addr: a, Write: true})
			}
		} else {
			ev.Accesses = append(ev.Accesses, Access{Addr: base, Write: true})
		}
		if fault := m.space.Free(base, in.ID); fault != nil {
			ev.Failure = m.failFault(t, in, fault)
			return ev, nil
		}

	case kir.OpBugOn:
		if value(t, &in.A) != 0 {
			ev.Failure = m.fail(t, in, sanitizer.KindBugOn, 0, "BUG_ON("+in.A.String()+" != 0)")
			return ev, nil
		}

	case kir.OpListAdd:
		a := m.addr(t, &in.A)
		v := value(t, &in.B)
		ev.Accesses = append(ev.Accesses, Access{Addr: a, Write: true})
		// CONFIG_DEBUG_LIST semantics: inserting an entry that is already
		// on the list corrupts its links; the kernel's list debugging
		// catches it at the insertion point.
		dup, fault := m.space.ListHas(a, v)
		if fault == nil && dup {
			ev.Failure = m.fail(t, in, sanitizer.KindBugOn, a,
				"list_add corruption: entry "+strconv.FormatInt(v, 10)+" is already on the list")
			return ev, nil
		}
		if fault == nil {
			fault = m.space.ListAdd(a, v)
		}
		if fault != nil {
			ev.Failure = m.failFault(t, in, fault)
			return ev, nil
		}

	case kir.OpListDel:
		a := m.addr(t, &in.A)
		ev.Accesses = append(ev.Accesses, Access{Addr: a, Write: true})
		if fault := m.space.ListDel(a, value(t, &in.B)); fault != nil {
			ev.Failure = m.failFault(t, in, fault)
			return ev, nil
		}

	case kir.OpListHas:
		a := m.addr(t, &in.A)
		ev.Accesses = append(ev.Accesses, Access{Addr: a})
		has, fault := m.space.ListHas(a, value(t, &in.B))
		if fault != nil {
			ev.Failure = m.failFault(t, in, fault)
			return ev, nil
		}
		if has {
			t.Regs[in.Dst] = 1
		} else {
			t.Regs[in.Dst] = 0
		}

	case kir.OpRefGet, kir.OpRefPut:
		a := m.addr(t, &in.A)
		ev.Accesses = append(ev.Accesses, Access{Addr: a, Write: true})
		v, fault := m.space.Load(a)
		if fault != nil {
			ev.Failure = m.failFault(t, in, fault)
			return ev, nil
		}
		var nv int64
		if in.Op == kir.OpRefGet {
			if v == 0 {
				ev.Failure = m.fail(t, in, sanitizer.KindRefcount, a, "refcount increment from zero")
				return ev, nil
			}
			nv = v + 1
		} else {
			nv = v - 1
			if nv < 0 {
				ev.Failure = m.fail(t, in, sanitizer.KindRefcount, a, "refcount underflow")
				return ev, nil
			}
		}
		if fault := m.space.Store(a, nv); fault != nil {
			ev.Failure = m.failFault(t, in, fault)
			return ev, nil
		}
		t.Regs[in.Dst] = nv

	case kir.OpQueueWork, kir.OpCallRCU:
		// Spawned threads are named by their spawn site so that the same
		// logical thread has the same name in every run of the same
		// program, regardless of interleaving — schedules and races refer
		// to threads by name across runs.
		kind, prefix := kir.KindKWorker, "kworker"
		if in.Op == kir.OpCallRCU {
			kind, prefix = kir.KindSoftirq, "rcu"
		}
		name := prefix + ":" + m.prog.InstrName(in.ID)
		if n := m.spawnSeq[in.ID]; n > 0 {
			name += "#" + strconv.Itoa(n)
		}
		m.saveSpawnSeq(in.ID)
		m.spawnSeq[in.ID]++
		nt := &Thread{
			ID:        ThreadID(len(m.threads)),
			Name:      name,
			Kind:      kind,
			State:     Runnable,
			SpawnedBy: tid,
			SpawnSite: in.ID,
			frames:    []frame{{fn: m.prog.Funcs[in.Target]}},
		}
		nt.Regs[0] = value(t, &in.A)
		// The spawned thread is born in the current epoch: any restore
		// crossing its creation pops it whole, so it needs no clone until
		// the next snapshot.
		nt.savedEpoch = m.epoch
		m.threads = append(m.threads, nt)
		m.noteSpawn()
		ev.Spawned = nt.ID

	case kir.OpExit:
		t.frames = t.frames[:0]
		advance = false

	default:
		return StepEvent{}, fmt.Errorf("kvm: unknown opcode %v", in.Op)
	}

	if advance {
		fr.pc++
	}
	m.steps++
	m.executed++
	t.normalize()
	ev.Done = t.State == Done
	return ev, nil
}
