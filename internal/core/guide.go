package core

import (
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
)

// SuspectAccess is one racing access extracted from a crash report and
// resolved against the program: the instruction suspected to participate
// in the root-cause race, the thread the report attributes it to (when a
// stack could be resolved) and the raced address (when the report carried
// one).
type SuspectAccess struct {
	// Instr is the suspect instruction. Required.
	Instr kir.InstrID
	// Thread is the resolved thread name; empty when unknown.
	Thread string
	// Addr is the raced address from the report; zero when unknown.
	Addr uint64
	// Write marks the access a store (from the report's "write to ...").
	Write bool
}

// Guide switches a LIFS search into constrained, report-driven mode: the
// search is seeded from the crash report's suspect access pair instead of
// starting blind.
//
// Three mechanisms apply, all deterministic functions of the path (so
// serial and parallel searches stay equivalent) and all winner-preserving
// (they never cut a subtree that could contain an accepted leaf, so the
// reproduction equals the unguided one):
//
//   - Suspect seeding: suspects with a known thread and address are
//     pre-recorded into the access knowledge, making the suspect pair a
//     conflict point — and hence a preemption candidate ordering the pair
//     both ways — from the very first phase, before any discovery run.
//
//   - Off-report flip: a path goes off-report as soon as no live thread
//     can reach the accepted failing instruction anymore (nothing below
//     can produce the reported failure), or as soon as a suspect
//     instruction that has not executed on the current path has become
//     unreachable (the reported race can no longer occur below). An
//     off-report path stops branching — the subtree fan-out is the saved
//     work — but still runs one straight-line completion, because the
//     accesses it records feed conflict-point discovery and race
//     identification exactly as a blind search's benign runs do.
//
//   - Leaf discard: a run that ends off-report, or with a failure the
//     accept filter rejects (including none at all), is not credited as a
//     schedule. A blind search must execute and count those same runs,
//     which is what makes guided Stats.Schedules strictly smaller
//     whenever any run ends benignly.
type Guide struct {
	// Suspects are the report's racing accesses, typically two. At most
	// maxSuspects are honored; extras are ignored.
	Suspects []SuspectAccess
}

// maxSuspects bounds the per-path suspect bookkeeping (a bitmask).
const maxSuspects = 16

// guideState is the compiled form of a Guide for one search: static
// reachability oracles for the accept site and each suspect.
type guideState struct {
	suspects []SuspectAccess
	susReach []*reach
	byInstr  map[kir.InstrID]uint32 // suspect instr -> bitmask bits

	// accept is the reachability oracle of the accepted failing
	// instruction (LIFSOptions.WantInstr); nil when the report did not
	// pin one. acceptLeakSafe is true when pruning on accept-site
	// unreachability must additionally prove no live object allocated at
	// the site remains (leak failures manifest at run completion, long
	// after the allocation site was passed).
	accept         *reach
	acceptInstr    kir.InstrID
	acceptLeakSafe bool
}

// newGuideState compiles the options' guide against the program.
func newGuideState(prog *kir.Program, opts LIFSOptions) *guideState {
	g := &guideState{byInstr: make(map[kir.InstrID]uint32)}
	for _, sa := range opts.Guide.Suspects {
		if len(g.suspects) >= maxSuspects {
			break
		}
		if _, ok := prog.Instr(sa.Instr); !ok {
			continue
		}
		bit := uint32(1) << uint(len(g.suspects))
		g.suspects = append(g.suspects, sa)
		g.susReach = append(g.susReach, newReach(prog, sa.Instr))
		g.byInstr[sa.Instr] |= bit
	}
	if opts.WantInstr != kir.NoInstr && opts.WantInstr != 0 {
		if _, ok := prog.Instr(opts.WantInstr); ok {
			g.acceptInstr = opts.WantInstr
			g.accept = newReach(prog, opts.WantInstr)
			// Leak failures (and unconstrained kinds, which admit them)
			// manifest at completion: the site prune must also prove no
			// live allocation from the site remains.
			g.acceptLeakSafe = opts.WantKind == sanitizer.KindMemoryLeak ||
				opts.WantKind == sanitizer.KindNone
		}
	}
	if len(g.suspects) == 0 && g.accept == nil {
		return nil
	}
	return g
}

// pruned decides whether exploration below the machine's current state is
// dead under the guide. seen is the path's executed-suspect bitmask.
func (g *guideState) pruned(m *kvm.Machine, seen uint32) bool {
	if g.accept != nil && !g.accept.anyThread(m) {
		// No live thread can execute the reported failing instruction
		// anymore: failures of every site-bound kind are impossible below.
		// Completion-time leak failures remain possible while an object
		// allocated at the site lives; rule those out too when needed.
		if !g.acceptLeakSafe || !m.Space().LiveAllocSite(g.acceptInstr) {
			return true
		}
	}
	for i, r := range g.susReach {
		if seen&(uint32(1)<<uint(i)) != 0 {
			continue
		}
		if !r.anyThread(m) {
			// A reported racing access can no longer execute on this
			// path: per the report's testimony the failure needs it, so
			// everything below is off-target.
			return true
		}
	}
	return false
}

// reach is a static reachability oracle for one target instruction:
// whether execution continuing from a given call-stack position can still
// execute the target. It over-approximates (both branch directions are
// taken, calls may return), which is the safe direction — a position the
// oracle calls reachable is never pruned.
type reach struct {
	// pos[fn][i]: executing from instruction i of fn — including its
	// callees and anything they spawn — can reach the target without
	// returning from fn.
	pos map[string][]bool
	// exit[fn][i]: from instruction i the frame can pop (ret or falling
	// off the end), making the caller's continuation live. OpExit ends
	// the whole thread and does not count.
	exit map[string][]bool
}

// newReach builds the oracle with an interprocedural fixed point: a
// function's entry reachability feeds its call sites, spawn sites count
// as calls (the spawned thread runs later), and loops converge because
// the bit only ever flips one way.
func newReach(p *kir.Program, target kir.InstrID) *reach {
	r := &reach{
		pos:  make(map[string][]bool, len(p.Funcs)),
		exit: make(map[string][]bool, len(p.Funcs)),
	}
	for name, f := range p.Funcs {
		r.pos[name] = make([]bool, len(f.Instrs))
		r.exit[name] = computeExit(p, f)
	}
	for changed := true; changed; {
		changed = false
		for name, f := range p.Funcs {
			if r.flowFunc(p, f, r.pos[name], target) {
				changed = true
			}
		}
	}
	return r
}

// computeExit runs the intra-function "can this frame pop" backward pass.
func computeExit(p *kir.Program, f *kir.Func) []bool {
	ex := make([]bool, len(f.Instrs))
	for changed := true; changed; {
		changed = false
		for i := len(f.Instrs) - 1; i >= 0; i-- {
			if ex[i] {
				continue
			}
			in := &f.Instrs[i]
			var v bool
			switch {
			case in.Op == kir.OpRet:
				v = true
			case in.Op == kir.OpExit:
				v = false
			case in.Op == kir.OpJmp:
				v = exitBit(ex, p.BranchTarget(in))
			case in.Op.IsBranch():
				v = exitBit(ex, p.BranchTarget(in)) || exitBit(ex, i+1)
			default:
				// Calls may return (over-approximation), falling off the
				// end pops the frame.
				v = exitBit(ex, i+1)
			}
			if v {
				ex[i] = true
				changed = true
			}
		}
	}
	return ex
}

// flowFunc runs one backward pass of the target-reachability flow over a
// function, reading entry reachability of callees from the shared state.
// It reports whether any bit flipped.
func (r *reach) flowFunc(p *kir.Program, f *kir.Func, pos []bool, target kir.InstrID) bool {
	changed := false
	for pass := true; pass; {
		pass = false
		for i := len(f.Instrs) - 1; i >= 0; i-- {
			if pos[i] {
				continue
			}
			in := &f.Instrs[i]
			v := in.ID == target
			if !v {
				switch {
				case in.Op == kir.OpJmp:
					v = bit(pos, p.BranchTarget(in))
				case in.Op.IsBranch():
					v = bit(pos, p.BranchTarget(in)) || next(pos, i)
				case in.Op == kir.OpRet || in.Op == kir.OpExit:
					v = false
				case in.Op.UsesFunc():
					// The callee (or spawned thread) may reach the
					// target; otherwise execution continues after the
					// call site.
					v = r.entry(in.Target) || next(pos, i)
				default:
					v = next(pos, i)
				}
			}
			if v {
				pos[i] = true
				pass, changed = true, true
			}
		}
	}
	return changed
}

// entry returns the reachability of a function's first instruction.
func (r *reach) entry(fn string) bool {
	pp := r.pos[fn]
	return len(pp) > 0 && pp[0]
}

func next(bits []bool, i int) bool { return bit(bits, i+1) }

// bit reads a function's target-reachability bit at instruction index j.
// A branch may target the end of the function (j == len(bits), an
// implicit return), which reads false, as falling off the end does in
// next: the end itself executes no target.
func bit(bits []bool, j int) bool {
	return j < len(bits) && bits[j]
}

// exitBit reads a function's exit bit at instruction index j. The end of
// the function (falling off it, or a branch to it) reads true: the kvm
// pops a frame that runs off its end, as it pops one at ret.
func exitBit(ex []bool, j int) bool {
	return j >= len(ex) || ex[j]
}

// thread reports whether the thread's call stack can still execute the
// target: some frame's continuation reaches it, walking outward only
// while inner frames can pop. It reads the frames in place.
func (r *reach) thread(m *kvm.Machine, tid kvm.ThreadID) bool {
	for i := m.NumFrames(tid) - 1; i >= 0; i-- {
		fn, pc := m.Frame(tid, i)
		pp := r.pos[fn.Name]
		if pc >= len(pp) {
			// Exhausted frame: it pops on normalize; the next outer
			// continuation decides.
			continue
		}
		if pp[pc] {
			return true
		}
		if ee := r.exit[fn.Name]; !ee[pc] {
			return false
		}
	}
	return false
}

// anyThread reports whether any live thread of the machine can still
// execute the target.
func (r *reach) anyThread(m *kvm.Machine) bool {
	for i := 0; i < m.NumThreads(); i++ {
		if r.thread(m, kvm.ThreadID(i)) {
			return true
		}
	}
	return false
}
