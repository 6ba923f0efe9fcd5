package ingest

import (
	"fmt"
	"strings"

	"aitia/internal/kir"
	"aitia/internal/sanitizer"
	"aitia/internal/sched"
)

// separator mirrors the sanitizer framing lines of real reports.
const separator = "=================================================================="

// Synthesize renders a reproduced failing run as a KCSAN-style crash
// report: the sanitizer title for the failure, and a data-race section
// for the race nearest the failure with one access block per side —
// address, access type, task, and a static call path from the thread's
// entry to the access. The output parses back (Parse + Resolve) into the
// constraints that reproduce the same failure, which is what lets the
// scenario corpus double as a report workload.
func Synthesize(prog *kir.Program, run *sched.RunResult, races []sched.Race) (string, error) {
	if run == nil || run.Failure == nil {
		return "", fmt.Errorf("ingest: cannot synthesize a report from a non-failing run")
	}
	f := run.Failure

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", title(prog, f), separator)

	// The race pair: the last race fully observed in the failing run
	// (phantom races have no second access to report a stack for —
	// exactly the accesses a real sanitizer cannot have seen either).
	var race *sched.Race
	for i := len(races) - 1; i >= 0; i-- {
		if !races[i].Phantom && races[i].SecondStep >= 0 {
			race = &races[i]
			break
		}
	}
	if race != nil {
		first, second := race.FirstStep, race.SecondStep
		fmt.Fprintf(&b, "BUG: KCSAN: data-race in %s / %s\n\n",
			prog.InstrAt(run.Seq.Steps[first].Instr).Fn, prog.InstrAt(run.Seq.Steps[second].Instr).Fn)
		writeAccess(&b, prog, run, first, race.Addr)
		b.WriteString("\n")
		writeAccess(&b, prog, run, second, race.Addr)
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "Reported by Kernel Concurrency Sanitizer on:\n%s\n", separator)
	return b.String(), nil
}

// title renders the sanitizer header for a failure.
func title(prog *kir.Program, f *sanitizer.Failure) string {
	loc := "unknown"
	if in, ok := prog.Instr(f.Instr); ok {
		loc = fmt.Sprintf("%s+0x%x", in.Fn, in.Idx)
	}
	for _, p := range titlePatterns {
		if p.kind == f.Kind {
			return p.prefix + loc + p.suffix
		}
	}
	return fmt.Sprintf("BUG: %s in %s", f.Kind, loc)
}

// writeAccess renders the access block of step k of the run: the
// header line with access type, address, size and task, then the static
// call path from the thread's entry function to the access, innermost
// first.
func writeAccess(b *strings.Builder, prog *kir.Program, run *sched.RunResult, k int, addr uint64) {
	in := prog.InstrAt(run.Seq.Steps[k].Instr)
	write := in.Op.WritesMemory()
	for _, a := range run.Seq.Accesses(k) {
		if a.Addr == addr {
			write = a.Write
			break
		}
	}
	mode := "read"
	if write {
		mode = "write"
	}
	size := int(in.Size)
	if size <= 0 {
		size = 8
	}
	fmt.Fprintf(b, "%s to 0x%x of %d bytes by task %s on cpu %d:\n",
		mode, addr, size, run.Seq.Name(k), int(run.Seq.Steps[k].Thread))
	for _, f := range stackFor(prog, run, k) {
		fn := prog.Funcs[f.Fn]
		fmt.Fprintf(b, " %s+0x%x/0x%x\n", f.Fn, f.Off, len(fn.Instrs))
	}
}

// stackFor reconstructs a plausible call stack for the instruction step
// k of the run executed: the shortest static call path from the thread's
// entry function to the access function. Inner frame first (the access
// itself); outer frames carry their call-site offsets, like a real
// unwinder.
func stackFor(prog *kir.Program, run *sched.RunResult, k int) []Frame {
	in := prog.InstrAt(run.Seq.Steps[k].Instr)
	frames := []Frame{{Fn: in.Fn, Off: int64(in.Idx)}}
	entry := entryFn(prog, run, run.Seq.Name(k))
	if entry == "" || entry == in.Fn {
		return frames
	}
	path := callPath(prog, entry, in.Fn)
	// path[i] calls path[i+1] at call-site callSites[i]; render outermost
	// last, each with its call-site offset.
	for i := len(path) - 2; i >= 0; i-- {
		frames = append(frames, Frame{Fn: path[i].fn, Off: int64(path[i].site)})
	}
	return frames
}

// entryFn finds the entry function of a thread: declared threads from
// the program's thread table, spawned threads from the spawning step in
// the run (queue_work/call_rcu record the spawned name).
func entryFn(prog *kir.Program, run *sched.RunResult, name string) string {
	for _, td := range prog.Threads {
		if td.Name == name {
			return td.Entry
		}
	}
	for k, e := range run.Seq.Steps {
		if run.Seq.Spawned(k) == name {
			return prog.InstrAt(e.Instr).Target
		}
	}
	return ""
}

// callEdge is one hop of a static call path.
type callEdge struct {
	fn   string
	site int // call-site instruction index within fn
}

// callPath returns the shortest static call chain from entry to target
// (BFS over call/queue_work/call_rcu edges), or nil when none exists.
// The last element is the target itself (site -1).
func callPath(prog *kir.Program, entry, target string) []callEdge {
	type node struct {
		fn   string
		path []callEdge
	}
	queue := []node{{fn: entry}}
	seen := map[string]bool{entry: true}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.fn == target {
			return append(n.path, callEdge{fn: target, site: -1})
		}
		fn := prog.Funcs[n.fn]
		if fn == nil {
			continue
		}
		for idx, in := range fn.Instrs {
			if !in.Op.UsesFunc() || seen[in.Target] {
				continue
			}
			seen[in.Target] = true
			path := make([]callEdge, len(n.path), len(n.path)+1)
			copy(path, n.path)
			queue = append(queue, node{fn: in.Target, path: append(path, callEdge{fn: n.fn, site: idx})})
		}
	}
	return nil
}
