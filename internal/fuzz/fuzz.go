// Package fuzz implements the bug-finding side of the pipeline: a
// Syzkaller/SKI-style randomized schedule fuzzer that executes a kernel
// program under random thread interleavings until a failure manifests,
// then emits exactly what AITIA consumes as input (§4.1): a timestamped
// execution trace (the ftrace analogue) and the failure information (the
// crash report).
//
// The fuzzer is deliberately unsophisticated — its role in the paper's
// evaluation is to *find* failures, not to explain them; AITIA's LIFS and
// Causality Analysis do the explaining.
package fuzz

import (
	"fmt"
	"math/rand"

	"aitia/internal/history"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
	"aitia/internal/sched"
)

// Strategy selects the scheduling policy a campaign fuzzes under. The
// SKI/eBPF-concurrency line of work (SNIPPETS §2) observes that different
// contention patterns surface qualitatively different bug classes, so the
// scenario factory cycles campaigns through all of them.
type Strategy uint8

const (
	// StrategyRandom is the default uniform policy: at every step, with
	// probability PreemptProb, control moves to a uniformly random
	// runnable thread.
	StrategyRandom Strategy = iota
	// StrategyStress maximizes contention: the preemption probability is
	// raised to stressPreemptProb so threads interleave at nearly every
	// shared access — the shortest route to atomicity violations.
	StrategyStress
	// StrategyPriority emulates priority-based contention: each thread
	// draws a random priority and the highest-priority runnable thread
	// always runs; with probability PreemptProb the priorities are
	// redrawn (a priority-change event). Long uninterrupted runs followed
	// by abrupt reordering expose order violations.
	StrategyPriority
	// StrategyInversion emulates priority inversion: the highest-priority
	// runnable thread runs except that, with probability PreemptProb, the
	// *lowest*-priority thread is scheduled instead — modelling a
	// low-priority lock holder starving the high-priority path, the
	// pattern that surfaces lock-ordering deadlocks.
	StrategyInversion
)

// stressPreemptProb is the per-step switch probability under
// StrategyStress.
const stressPreemptProb = 0.5

// String names the strategy for manifests and logs.
func (s Strategy) String() string {
	switch s {
	case StrategyRandom:
		return "random"
	case StrategyStress:
		return "stress"
	case StrategyPriority:
		return "priority"
	case StrategyInversion:
		return "inversion"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// Strategies lists every scheduling strategy in cycling order.
func Strategies() []Strategy {
	return []Strategy{StrategyRandom, StrategyStress, StrategyPriority, StrategyInversion}
}

// Options configure a fuzzing campaign.
type Options struct {
	// Seed makes the campaign reproducible.
	Seed int64
	// MaxRuns bounds the campaign (default DefaultMaxRuns).
	MaxRuns int
	// PreemptProb is the per-step probability of switching to a random
	// runnable thread (default 0.15). Under StrategyPriority and
	// StrategyInversion it is the probability of the strategy's
	// perturbation event instead.
	PreemptProb float64
	// Strategy selects the scheduling policy (default StrategyRandom).
	Strategy Strategy
	// StepBudget is the per-run watchdog limit.
	StepBudget int
	// LeakCheck enables the end-of-run memory-leak oracle.
	LeakCheck bool
	// FDs assigns file descriptors to syscall threads for the trace.
	FDs map[string]int
	// WantKind restricts Campaign to failures of this kind (KindNone
	// accepts any failure); WantInstr further restricts the failing
	// instruction. Non-matching failing runs are skipped, not returned —
	// used when comparing reproduction cost against LIFS for a specific
	// crash report.
	WantKind  sanitizer.Kind
	WantInstr kir.InstrID
}

// DefaultMaxRuns bounds campaigns when Options.MaxRuns is zero.
const DefaultMaxRuns = 10000

// Finding is one discovered failure with everything AITIA needs.
type Finding struct {
	Failure *sanitizer.Failure
	Trace   *history.Trace
	Report  string // rendered crash report
	Run     *sched.RunResult
	Runs    int   // runs executed until the failure surfaced
	Seed    int64 // seed that reproduces the campaign
}

// Fuzzer drives random-schedule campaigns over one program.
type Fuzzer struct {
	prog *kir.Program
	opts Options
	rng  *rand.Rand
}

// New creates a fuzzer for a finalized program.
func New(prog *kir.Program, opts Options) (*Fuzzer, error) {
	if !prog.Finalized() {
		return nil, fmt.Errorf("fuzz: program not finalized")
	}
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = DefaultMaxRuns
	}
	if opts.PreemptProb <= 0 || opts.PreemptProb >= 1 {
		opts.PreemptProb = 0.15
	}
	if opts.StepBudget <= 0 {
		opts.StepBudget = sched.DefaultStepBudget
	}
	return &Fuzzer{prog: prog, opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}, nil
}

// Campaign runs random schedules until a failure is found or MaxRuns is
// exhausted (in which case it returns nil, nil).
func (f *Fuzzer) Campaign() (*Finding, error) {
	m, err := kvm.New(f.prog)
	if err != nil {
		return nil, err
	}
	init := m.Snapshot()
	for run := 1; run <= f.opts.MaxRuns; run++ {
		m.Restore(init)
		res, err := f.randomRun(m)
		if err != nil {
			return nil, err
		}
		if res.Failure != nil && !f.accepts(res.Failure) {
			continue
		}
		if res.Failure != nil {
			return &Finding{
				Failure: res.Failure,
				Trace:   history.FromRun(res, f.opts.FDs),
				Report:  res.Failure.Report(f.prog),
				Run:     res,
				Runs:    run,
				Seed:    f.opts.Seed,
			}, nil
		}
	}
	return nil, nil
}

// CollectRuns executes n random-schedule runs and returns all of them,
// failing and passing alike — the execution corpus that statistical
// baselines (cooperative bug localization, MUVI) learn from.
func (f *Fuzzer) CollectRuns(n int) ([]*sched.RunResult, error) {
	m, err := kvm.New(f.prog)
	if err != nil {
		return nil, err
	}
	init := m.Snapshot()
	out := make([]*sched.RunResult, 0, n)
	for i := 0; i < n; i++ {
		m.Restore(init)
		res, err := f.randomRun(m)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// accepts mirrors LIFS's crash-report matching.
func (f *Fuzzer) accepts(fail *sanitizer.Failure) bool {
	if f.opts.WantInstr != kir.NoInstr && f.opts.WantInstr != 0 && fail.Instr != f.opts.WantInstr {
		return false
	}
	return f.opts.WantKind == sanitizer.KindNone || fail.Kind == f.opts.WantKind
}

// randomRun executes one run under the campaign's scheduling strategy
// (StrategyRandom: at every step, with probability PreemptProb, control
// moves to a uniformly random runnable thread).
func (f *Fuzzer) randomRun(m *kvm.Machine) (*sched.RunResult, error) {
	res := &sched.RunResult{Threads: make(map[string]kvm.ThreadState)}
	cur := kvm.NoThread
	// Per-run thread priorities for the priority strategies, assigned
	// lazily in deterministic (runnable-slice) order.
	var prio map[kvm.ThreadID]int
	prioOf := func(id kvm.ThreadID) int {
		p, ok := prio[id]
		if !ok {
			p = f.rng.Intn(1 << 20)
			prio[id] = p
		}
		return p
	}
	if f.opts.Strategy == StrategyPriority || f.opts.Strategy == StrategyInversion {
		prio = make(map[kvm.ThreadID]int)
	}
	for steps := 0; ; steps++ {
		if m.Failure() != nil {
			break
		}
		if m.AllDone() {
			if f.opts.LeakCheck {
				m.CheckLeaks()
			}
			break
		}
		runnable := m.Runnable()
		if len(runnable) == 0 {
			// Deadlock: surface it like the enforcement engine would.
			m.InjectFailure(&sanitizer.Failure{
				Kind: sanitizer.KindDeadlock, Instr: kir.NoInstr,
				Msg: "no runnable thread under fuzzed schedule",
			})
			break
		}
		if steps > f.opts.StepBudget {
			t := m.Thread(cur)
			name := ""
			if t != nil {
				name = t.Name
			}
			m.InjectFailure(&sanitizer.Failure{
				Kind: sanitizer.KindWatchdog, Thread: name, Instr: kir.NoInstr,
				Msg: "step budget exceeded under fuzzed schedule",
			})
			break
		}

		switch f.opts.Strategy {
		case StrategyPriority:
			if f.rng.Float64() < f.opts.PreemptProb {
				prio = make(map[kvm.ThreadID]int) // priority-change event
			}
			cur = pickByPrio(runnable, prioOf, true)
		case StrategyInversion:
			cur = pickByPrio(runnable, prioOf, f.rng.Float64() >= f.opts.PreemptProb)
		default:
			pp := f.opts.PreemptProb
			if f.opts.Strategy == StrategyStress && pp < stressPreemptProb {
				pp = stressPreemptProb
			}
			if !contains(runnable, cur) || f.rng.Float64() < pp {
				cur = runnable[f.rng.Intn(len(runnable))]
			}
		}
		ev, err := m.Step(cur)
		if err != nil {
			return nil, err
		}
		if !ev.Executed {
			// Blocked: try someone else next iteration.
			cur = kvm.NoThread
			continue
		}
		res.Seq.Append(res.Seq.Len(), cur, ev.Instr.ID, ev.Spawned, ev.Accesses, m.Thread(cur).Locks)
	}
	res.Seq.Names = sched.ThreadNames(m)
	res.Failure = m.Failure()
	for i := 0; i < m.NumThreads(); i++ {
		t := m.Thread(kvm.ThreadID(i))
		res.Threads[t.Name] = t.State
	}
	return res, nil
}

// pickByPrio returns the highest- (or lowest-) priority runnable thread;
// ties break to the earliest thread in the runnable slice, so the pick is
// deterministic for a given rng stream.
func pickByPrio(runnable []kvm.ThreadID, prioOf func(kvm.ThreadID) int, highest bool) kvm.ThreadID {
	best := runnable[0]
	bp := prioOf(best)
	for _, id := range runnable[1:] {
		p := prioOf(id)
		if (highest && p > bp) || (!highest && p < bp) {
			best, bp = id, p
		}
	}
	return best
}

func contains(ids []kvm.ThreadID, id kvm.ThreadID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
