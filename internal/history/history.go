// Package history models AITIA's input side (paper §4.2): timestamped
// execution traces from a bug-finding system — system calls with their
// arguments and the invocation events of kernel background threads — and
// the slicing of those traces into groups of concurrently executed
// threads (slices) created backward from the failure point.
//
// In the paper the traces come from ftrace and a crash coredump; here they
// come from the fuzzer's (or any run's) event log, carrying the same
// information: what ran when, who invoked which background thread, and
// where the kernel failed.
package history

import (
	"fmt"
	"sort"
	"strings"

	"aitia/internal/sanitizer"
	"aitia/internal/sched"
)

// EventKind classifies trace events.
type EventKind uint8

const (
	// SyscallEnter marks a system-call thread starting.
	SyscallEnter EventKind = iota
	// SyscallExit marks a system-call thread finishing.
	SyscallExit
	// ThreadInvoke marks a background-thread invocation (queue_work or
	// call_rcu), with Source naming the invoking thread.
	ThreadInvoke
	// CrashEvent marks the failure manifestation.
	CrashEvent
)

// String returns the trace name of the event kind.
func (k EventKind) String() string {
	switch k {
	case SyscallEnter:
		return "sys_enter"
	case SyscallExit:
		return "sys_exit"
	case ThreadInvoke:
		return "invoke"
	case CrashEvent:
		return "crash"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one timestamped trace entry. Timestamps are fine-grained
// logical times (instruction step numbers in the simulated kernel), which
// is what AITIA needs them for: identifying concurrent events.
type Event struct {
	TS     uint64
	Kind   EventKind
	Thread string
	Source string // invoking thread, for ThreadInvoke
	FD     int    // file descriptor the syscall operates on; -1 if none
}

// Trace is a full execution history with failure information.
type Trace struct {
	Events []Event
	Crash  *sanitizer.Failure
	// FDs maps each thread to the file descriptor its syscall operates
	// on (used for the open/close semantic closure); -1 or absent if none.
	FDs map[string]int
}

// Format renders the trace like a compact ftrace log.
func (t *Trace) Format() string {
	var b strings.Builder
	for _, e := range t.Events {
		switch e.Kind {
		case ThreadInvoke:
			fmt.Fprintf(&b, "[%06d] %s: %s (from %s)\n", e.TS, e.Kind, e.Thread, e.Source)
		default:
			fmt.Fprintf(&b, "[%06d] %s: %s\n", e.TS, e.Kind, e.Thread)
		}
	}
	if t.Crash != nil {
		fmt.Fprintf(&b, "crash: %v\n", t.Crash)
	}
	return b.String()
}

// FromRun synthesizes a trace from an executed run: enter/exit events at
// each thread's first/last step, invoke events at spawn steps, and the
// crash. fds optionally assigns file descriptors to syscall threads.
// res must be a full run (empty Base).
func FromRun(res *sched.RunResult, fds map[string]int) *Trace {
	tr := &Trace{Crash: res.Failure, FDs: fds}
	seq := &res.Seq
	first := make(map[string]int)
	last := make(map[string]int)
	for k, e := range seq.Steps {
		name := seq.Name(k)
		if _, ok := first[name]; !ok {
			first[name] = int(e.Step)
		}
		last[name] = int(e.Step)
	}
	for k, e := range seq.Steps {
		name, step := seq.Name(k), int(e.Step)
		if first[name] == step {
			tr.Events = append(tr.Events, Event{
				TS: uint64(step), Kind: SyscallEnter, Thread: name, FD: fdOf(fds, name),
			})
		}
		if spawned := seq.Spawned(k); spawned != "" {
			tr.Events = append(tr.Events, Event{
				TS: uint64(step), Kind: ThreadInvoke, Thread: spawned, Source: name,
			})
		}
		if last[name] == step {
			tr.Events = append(tr.Events, Event{
				TS: uint64(step), Kind: SyscallExit, Thread: name, FD: fdOf(fds, name),
			})
		}
	}
	if res.Failure != nil {
		tr.Events = append(tr.Events, Event{
			TS: uint64(seq.Len()), Kind: CrashEvent, Thread: res.Failure.Thread,
		})
	}
	return tr
}

func fdOf(fds map[string]int, thread string) int {
	if fds == nil {
		return -1
	}
	if fd, ok := fds[thread]; ok {
		return fd
	}
	return -1
}

// Slice is a group of threads that executed concurrently — the unit of
// work handed to one reproducer (§4.2). Threads holds the system-call
// thread names to schedule (background threads spawn dynamically and are
// not listed).
type Slice struct {
	Threads []string
	// Window is the [start, end] logical-time span the slice covers.
	Window [2]uint64
	// Distance orders slices by how far their window sits from the
	// failure point (0 = contains the failure).
	Distance uint64
}

// String renders the slice for logs.
func (s Slice) String() string {
	return fmt.Sprintf("{%s}", strings.Join(s.Threads, ", "))
}

// MaxSliceThreads caps the number of threads per slice; the paper finds
// failures needing more than three contexts to be rare (§4.2 fn. 3) and
// splits larger concurrency groups.
const MaxSliceThreads = 3

// Model splits a trace into candidate slices, backward from the failure
// point: threads whose [enter, exit] windows overlap are grouped; groups
// larger than MaxSliceThreads are split into all combinations of that
// size that include the group's latest thread; and the open/close
// semantic closure adds the syscalls operating on the same file
// descriptor as any slice member. Slices are ordered nearest-to-failure
// first — the order reproducers should try them in.
func Model(tr *Trace) []Slice {
	var wins []window
	enter := make(map[string]uint64)
	byName := make(map[string]*window)
	for _, e := range tr.Events {
		switch e.Kind {
		case SyscallEnter:
			enter[e.Thread] = e.TS
		case SyscallExit:
			w := window{name: e.Thread, start: enter[e.Thread], end: e.TS, fd: fdOf(tr.FDs, e.Thread)}
			wins = append(wins, w)
			byName[e.Thread] = &wins[len(wins)-1]
		}
	}
	// Threads cut short by the crash never exit; close their windows at
	// the crash time.
	var crashTS uint64
	for _, e := range tr.Events {
		if e.Kind == CrashEvent {
			crashTS = e.TS
		}
	}
	for name, ts := range enter {
		if _, ok := byName[name]; !ok {
			w := window{name: name, start: ts, end: crashTS, fd: fdOf(tr.FDs, name)}
			wins = append(wins, w)
			byName[name] = &wins[len(wins)-1]
		}
	}
	// Skip dynamically spawned threads: they are re-created by the
	// replayed syscalls themselves.
	spawned := make(map[string]bool)
	for _, e := range tr.Events {
		if e.Kind == ThreadInvoke {
			spawned[e.Thread] = true
		}
	}
	var syscalls []window
	for _, w := range wins {
		if !spawned[w.name] {
			syscalls = append(syscalls, w)
		}
	}
	sort.Slice(syscalls, func(i, j int) bool { return syscalls[i].end > syscalls[j].end })

	// Group overlapping windows, starting from the thread closest to the
	// failure and walking backward.
	var slices []Slice
	seen := make(map[string]bool)
	for _, anchor := range syscalls {
		group := []window{anchor}
		for _, w := range syscalls {
			if w.name == anchor.name {
				continue
			}
			if w.start <= anchor.end && anchor.start <= w.end {
				group = append(group, w)
			}
		}
		group = fdClosure(group, syscalls)
		for _, combo := range combinations(group, anchor) {
			sl := Slice{}
			for _, w := range combo {
				sl.Threads = append(sl.Threads, w.name)
				if w.start < sl.Window[0] || sl.Window[0] == 0 {
					sl.Window[0] = w.start
				}
				if w.end > sl.Window[1] {
					sl.Window[1] = w.end
				}
			}
			sort.Strings(sl.Threads)
			if crashTS >= sl.Window[1] {
				sl.Distance = crashTS - sl.Window[1]
			}
			key := strings.Join(sl.Threads, "\x00")
			if !seen[key] {
				seen[key] = true
				slices = append(slices, sl)
			}
		}
	}
	sort.SliceStable(slices, func(i, j int) bool {
		if slices[i].Distance != slices[j].Distance {
			return slices[i].Distance < slices[j].Distance
		}
		return len(slices[i].Threads) > len(slices[j].Threads)
	})
	return slices
}

// fdClosure adds, for every fd used in the group, the other syscalls
// operating on the same fd ("if write() is in a slice, add open() and
// close() of the same file descriptor", §4.2).
func fdClosure(group, all []window) []window {
	fds := make(map[int]bool)
	have := make(map[string]bool)
	for _, w := range group {
		have[w.name] = true
		if w.fd >= 0 {
			fds[w.fd] = true
		}
	}
	for _, w := range all {
		if w.fd >= 0 && fds[w.fd] && !have[w.name] {
			group = append(group, w)
			have[w.name] = true
		}
	}
	return group
}

// window is a thread's [enter, exit] span in the trace.
type window struct {
	name       string
	start, end uint64
	fd         int
}

// combinations yields the ≤MaxSliceThreads-sized thread combinations of a
// group; every combination keeps the anchor (the thread nearest the
// failure). Small inputs only: groups have at most a handful of threads.
func combinations(group []window, anchor window) [][]window {
	if len(group) <= MaxSliceThreads {
		return [][]window{group}
	}
	var rest []window
	for _, w := range group {
		if w.name != anchor.name {
			rest = append(rest, w)
		}
	}
	var out [][]window
	k := MaxSliceThreads - 1
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		combo := []window{anchor}
		for _, i := range idx {
			combo = append(combo, rest[i])
		}
		out = append(out, combo)
		// next combination
		i := k - 1
		for i >= 0 && idx[i] == len(rest)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}
