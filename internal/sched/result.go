package sched

import (
	"fmt"
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

// Exec records one executed instruction in a run. Instr points into the
// finalized program the run executed; finalized programs are immutable,
// so the record shares the instruction instead of copying it. Accesses
// and Lockset are read-only: records of one run may share their backing
// arrays.
type Exec struct {
	Step     int // position in the run: index in RunResult.Base, then Seq
	Thread   kvm.ThreadID
	Name     string // thread name
	Instr    *kir.Instr
	Accesses []AccessRec
	Lockset  []uint64 // locks held by the thread just after this step
	Spawned  string   // name of the thread this step spawned (queue_work/call_rcu)
}

// Site returns the static site of the executed instruction.
func (e Exec) Site() Site { return Site{Thread: e.Name, Instr: e.Instr.ID} }

// RunResult is the outcome of one enforced run: the totally ordered
// instruction sequence that executed (a failure-causing instruction
// sequence when the run failed), the failure, and enforcement metadata.
//
// The sequence comes in two parts. Base is the prefix the run started
// from (Options.Prefix, held by reference and shared with whoever
// recorded it — for a flip run, the failing run's first cut records);
// Seq holds the steps this run executed itself, stamped from len(Base).
// A run enforced from the initial state has an empty Base. Readers that
// may be handed a flip run read both parts (Parts); readers documented
// as taking only full runs read Seq alone.
type RunResult struct {
	Base     []Exec // read-only shared prefix
	Seq      []Exec
	Failure  *sanitizer.Failure
	Switches int                        // context switches performed by the enforcer
	Missed   int                        // schedule points that never fired
	Threads  map[string]kvm.ThreadState // final state by thread name
}

// Failed reports whether the run ended in a kernel failure.
func (r *RunResult) Failed() bool { return r.Failure != nil }

// Parts returns the run's executed sequence as its two parts, Base then
// Seq, for range loops that read both without concatenating them.
func (r *RunResult) Parts() [2][]Exec { return [2][]Exec{r.Base, r.Seq} }

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
		for i := range part {
			in := part[i].Instr
			if in.Label == "" && !all {
				continue
			}
			names = append(names, in.Name())
		}
	}
	return strings.Join(names, " => ")
}
