package sched

import (
	"fmt"
	"slices"
	"strings"

	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
)

// Site is the static identity of an instruction occurrence within a
// program's thread structure: which thread (by stable name) executes which
// static instruction. Shared functions give the same InstrID different
// Sites in different threads (e.g. fanout_link's list_add as A12 vs B7's
// call of it).
type Site struct {
	Thread string
	Instr  kir.InstrID
}

// AccessRec is one shared-memory access of an executed instruction.
type AccessRec struct {
	Addr  uint64
	Write bool
}

// Exec records one executed step of a run: 32 bytes and no pointers, so
// a run's records are one flat array the garbage collector never scans.
// It names its thread and instruction by ID, and its accesses and
// lockset are ranges of the arrays the Trace holding it owns; read them
// through the Trace (Name, Site, Accesses, Lockset) and the instruction
// through the program (kir.Program.InstrAt).
type Exec struct {
	Step    int32       // position in the run: index in RunResult.Base, then Seq
	Thread  int32       // kvm.ThreadID of the executing thread
	Instr   kir.InstrID // the executed instruction
	Spawned int32       // kvm.ThreadID of the thread this step spawned (queue_work/call_rcu), or kvm.NoThread
	accs    span        // the step's accesses in Trace.Accs
	locks   span        // locks held by the thread just after the step, in Trace.Locks
}

// span is a range [lo, hi) of one of a Trace's arrays.
type span struct{ lo, hi int32 }

// Trace is one part of a run (RunResult.Base or Seq): its step records,
// the arrays of accesses and locks they index, and the names of the
// run's threads by kvm.ThreadID. Thread IDs are a machine's spawn order,
// so two runs agree on them only up to where their spawns diverge: each
// part carries its own name table, and the parts of one run share the
// IDs of every thread that exists where Base ends.
type Trace struct {
	Steps []Exec
	Accs  []AccessRec
	Locks []uint64
	Names []string // thread names by kvm.ThreadID
}

// Len returns the number of steps.
func (t *Trace) Len() int { return len(t.Steps) }

// Name returns the name of the thread that executed step k.
func (t *Trace) Name(k int) string { return t.Names[t.Steps[k].Thread] }

// Site returns the static site of step k.
func (t *Trace) Site(k int) Site { return Site{Thread: t.Name(k), Instr: t.Steps[k].Instr} }

// Accesses returns step k's shared-memory accesses, read-only.
func (t *Trace) Accesses(k int) []AccessRec {
	s := t.Steps[k].accs
	return t.Accs[s.lo:s.hi:s.hi]
}

// Lockset returns the locks step k's thread held just after the step,
// read-only.
func (t *Trace) Lockset(k int) []uint64 {
	s := t.Steps[k].locks
	return t.Locks[s.lo:s.hi:s.hi]
}

// Spawned returns the name of the thread step k spawned, "" for none.
func (t *Trace) Spawned(k int) string {
	if id := t.Steps[k].Spawned; id >= 0 {
		return t.Names[id]
	}
	return ""
}

// ID returns the thread ID of the named thread, or kvm.NoThread when the
// trace names no such thread.
func (t *Trace) ID(name string) int32 {
	for i, n := range t.Names {
		if n == name {
			return int32(i)
		}
	}
	return int32(kvm.NoThread)
}

// Prefix returns the trace's first n steps. It shares the arrays and the
// name table: the records index the arrays by absolute position.
func (t *Trace) Prefix(n int) Trace {
	return Trace{Steps: t.Steps[:n:n], Accs: t.Accs, Locks: t.Locks, Names: t.Names}
}

// Append records one step of thread tid at position step: instr with
// its accesses (kvm.StepEvent.Accesses, copied), the thread's locks just
// after it, and the thread it spawned (kvm.NoThread for none). It
// allocates nothing once the arrays have grown.
func (t *Trace) Append(step int, tid kvm.ThreadID, instr kir.InstrID, spawned kvm.ThreadID, accs []kvm.Access, locks []uint64) {
	e := Exec{Step: int32(step), Thread: int32(tid), Instr: instr, Spawned: int32(spawned)}
	e.accs.lo = int32(len(t.Accs))
	for _, a := range accs {
		t.Accs = append(t.Accs, AccessRec{Addr: a.Addr, Write: a.Write})
	}
	e.accs.hi = int32(len(t.Accs))
	e.locks.lo = int32(len(t.Locks))
	t.Locks = append(t.Locks, locks...)
	e.locks.hi = int32(len(t.Locks))
	t.Steps = append(t.Steps, e)
}

// AddStep appends a step of the thread called name, interning the name,
// with the given accesses and no lockset or spawn: the form of a run
// rebuilt from thread names alone, such as a checkpointed flip run.
func (t *Trace) AddStep(name string, instr kir.InstrID, accs []AccessRec) {
	e := Exec{Step: int32(len(t.Steps)), Thread: t.Intern(name), Instr: instr, Spawned: int32(kvm.NoThread)}
	e.accs = span{int32(len(t.Accs)), int32(len(t.Accs) + len(accs))}
	t.Accs = append(t.Accs, accs...)
	e.locks = span{int32(len(t.Locks)), int32(len(t.Locks))}
	t.Steps = append(t.Steps, e)
}

// Intern returns the thread ID of the named thread, adding the name to
// the table when the trace names no such thread yet.
func (t *Trace) Intern(name string) int32 {
	id := t.ID(name)
	if id < 0 {
		id = int32(len(t.Names))
		t.Names = append(t.Names, name)
	}
	return id
}

// ThreadNames returns the names of m's threads by ID: the name table of
// a trace m just executed.
func ThreadNames(m *kvm.Machine) []string {
	names := make([]string, m.NumThreads())
	for i := range names {
		names[i] = m.Thread(kvm.ThreadID(i)).Name
	}
	return names
}

// RunResult is the outcome of one enforced run: the totally ordered
// instruction sequence that executed (a failure-causing instruction
// sequence when the run failed), the failure, and enforcement metadata.
//
// The sequence comes in two parts. Base is the prefix the run started
// from (Options.Prefix, held by reference and shared with whoever
// recorded it — for a flip run, the failing run's first cut records);
// Seq holds the steps this run executed itself, stamped from Base's
// length. A run enforced from the initial state has an empty Base.
// Readers that may be handed a flip run read both parts (Parts); readers
// documented as taking only full runs read Seq alone.
type RunResult struct {
	Base     Trace // read-only shared prefix
	Seq      Trace
	Failure  *sanitizer.Failure
	Switches int                        // context switches performed by the enforcer
	Missed   int                        // schedule points that never fired
	Threads  map[string]kvm.ThreadState // final state by thread name
}

// Failed reports whether the run ended in a kernel failure.
func (r *RunResult) Failed() bool { return r.Failure != nil }

// Parts returns the run's executed sequence as its two parts, Base then
// Seq, for range loops that read both without concatenating them.
func (r *RunResult) Parts() [2]*Trace { return [2]*Trace{&r.Base, &r.Seq} }

// Joined returns a copy of r whose Seq is its whole sequence, Base
// followed by Seq, in arrays of its own, and whose Base is empty: the
// shape of the same run enforced from the initial state. Seq's name
// table serves both parts: it names every thread Base's does, by the
// same IDs.
func (r *RunResult) Joined() *RunResult {
	cp := *r
	n := r.Base.Len()
	if n == 0 {
		return &cp
	}
	b, s := &r.Base, &r.Seq
	last := b.Steps[n-1]
	cp.Base = Trace{}
	cp.Seq = Trace{
		Steps: append(slices.Clone(b.Steps), s.Steps...),
		Accs:  joinArrays(b.Accs[:last.accs.hi], s.Accs),
		Locks: joinArrays(b.Locks[:last.locks.hi], s.Locks),
		Names: s.Names,
	}
	for k := n; k < len(cp.Seq.Steps); k++ {
		e := &cp.Seq.Steps[k]
		e.accs = span{e.accs.lo + last.accs.hi, e.accs.hi + last.accs.hi}
		e.locks = span{e.locks.lo + last.locks.hi, e.locks.hi + last.locks.hi}
	}
	return &cp
}

// joinArrays returns a followed by b in a new array, nil when both are
// empty, as a run that records nothing into an array leaves it.
func joinArrays[E any](a, b []E) []E {
	if len(a)+len(b) == 0 {
		return nil
	}
	return append(slices.Clone(a), b...)
}

// SiteName renders a site using the program's instruction labels.
func SiteName(prog *kir.Program, s Site) string {
	return fmt.Sprintf("%s/%s", s.Thread, prog.InstrName(s.Instr))
}

// FormatSeq renders the executed sequence using paper-style labels, e.g.
// "A2 => A5 => B2 => B11 => A6 => B12 => B17". Instructions without labels
// are skipped unless all is true.
func (r *RunResult) FormatSeq(prog *kir.Program, all bool) string {
	var names []string
	for _, part := range r.Parts() {
		for _, e := range part.Steps {
			in := prog.InstrAt(e.Instr)
			if in.Label == "" && !all {
				continue
			}
			names = append(names, in.Name())
		}
	}
	return strings.Join(names, " => ")
}
