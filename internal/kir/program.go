package kir

import (
	"fmt"
	"sort"
	"sync"
)

// MaxObjectWords bounds the size of every memory object a program can
// name: a global's Size and HeapSize, and an alloc's Size. Making an
// object costs the same at any size, but the kvm records one access per
// word when it frees one, so an unbounded size is an input that runs for
// hours, not one that fails. Scenario objects are a few words.
const MaxObjectWords = 1 << 16

// GlobalDef declares a global variable: a named region of Size words with
// optional initial values (missing words are zero). Globals model the
// shared kernel objects (struct fields, lists, locks, refcounts) that
// racing threads communicate through.
type GlobalDef struct {
	Name string
	Size int64
	Init []int64
	// AddrOf initializes words with the *address* of another global:
	// word offset -> symbol. It overrides Init at those offsets and lets
	// scenarios start with valid pointers (e.g. "ptr initially points at
	// obj"), which a later racing store may null out or redirect.
	AddrOf map[int64]string
	// HeapSize, when positive, makes this a one-word global holding a
	// pointer to a pre-allocated heap object of HeapSize words (with
	// redzones and full KASAN tracking), initialized from Init. Scenarios
	// use it for objects that must fault precisely on out-of-bounds or
	// freed access. Pre-allocated objects are excluded from leak checking.
	HeapSize int64
}

// ThreadKind classifies execution contexts, mirroring the contexts AITIA
// controls: system calls, kernel background threads (kworkerd) and softirq
// contexts (RCU callbacks).
type ThreadKind uint8

const (
	// KindSyscall is a user-initiated system-call thread.
	KindSyscall ThreadKind = iota
	// KindKWorker is a kernel background worker (queue_work target).
	KindKWorker
	// KindSoftirq is a software-interrupt context (call_rcu target).
	KindSoftirq
	// KindHardIRQ is a hardware-interrupt handler. The paper's §4.6
	// leaves IRQ contexts as future work ("AITIA is able to diagnose
	// such bugs if the hypervisor injects an IRQ through the VT-x
	// mechanism"); this reproduction implements that extension — the
	// scheduler injects the handler at conflicting instructions exactly
	// as the paper proposes injecting IRQs at breakpoints.
	KindHardIRQ
)

// String returns a short name for the thread kind.
func (k ThreadKind) String() string {
	switch k {
	case KindSyscall:
		return "syscall"
	case KindKWorker:
		return "kworker"
	case KindSoftirq:
		return "softirq"
	case KindHardIRQ:
		return "hardirq"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ThreadDef declares a statically known thread: a named entry point that
// the scenario starts concurrently (a system call in the paper's examples).
// Dynamically spawned threads (queue_work, call_rcu) do not need a
// ThreadDef.
type ThreadDef struct {
	Name  string // e.g. "setsockopt", "bind"
	Entry string // entry function
	Kind  ThreadKind
	Arg   int64 // initial value of r0
}

// Func is a named sequence of instructions with local branch labels.
type Func struct {
	Name   string
	Instrs []Instr
	labels map[string]int // branch label -> instruction index
	base   InstrID        // global id of Instrs[0]
}

// Label resolves a local branch label to an instruction index.
func (f *Func) labelIndex(name string) (int, bool) {
	i, ok := f.labels[name]
	return i, ok
}

// Labels returns a copy of the function's local branch-target labels
// (label name -> instruction index). Used by the disassembler.
func (f *Func) Labels() map[string]int {
	out := make(map[string]int, len(f.labels))
	for k, v := range f.labels {
		out[k] = v
	}
	return out
}

// Program is a finalized set of functions, globals and thread definitions.
type Program struct {
	Funcs   map[string]*Func
	Globals []GlobalDef
	Threads []ThreadDef

	byID      []instrRef // InstrID -> location
	finalized bool

	// hashCache caches the content digest of a finalized program (see
	// Hash); finalized programs are immutable, so one computation serves
	// every journal record and checkpoint key derived from the program.
	// It lives behind a pointer so Restrict's shallow copy can hand the
	// derived program a fresh cache (its thread set — and hash — differ)
	// without copying a sync.Once.
	hashCache *programHash
}

// programHash is the lazily computed content digest of one program.
type programHash struct {
	once sync.Once
	val  string
}

type instrRef struct {
	fn  *Func
	idx int
}

// NumInstrs returns the total number of static instructions.
func (p *Program) NumInstrs() int { return len(p.byID) }

// Finalized reports whether Finalize has completed successfully.
func (p *Program) Finalized() bool { return p.finalized }

// Instr returns the instruction with the given static identity.
func (p *Program) Instr(id InstrID) (Instr, bool) {
	if id < 0 || int(id) >= len(p.byID) {
		return Instr{}, false
	}
	ref := p.byID[id]
	return ref.fn.Instrs[ref.idx], true
}

// InstrAt returns a pointer to the instruction with the given static
// identity, inside the program's own function bodies, or nil for an
// invalid identity. A finalized program is immutable, so records of
// executed steps share the pointer instead of copying the instruction.
func (p *Program) InstrAt(id InstrID) *Instr {
	if id < 0 || int(id) >= len(p.byID) {
		return nil
	}
	ref := p.byID[id]
	return &ref.fn.Instrs[ref.idx]
}

// MustInstr is Instr for identities known to be valid; it panics otherwise.
func (p *Program) MustInstr(id InstrID) Instr {
	in, ok := p.Instr(id)
	if !ok {
		panic(fmt.Sprintf("kir: no instruction with id %d", id))
	}
	return in
}

// InstrName returns the display name (paper label or fn+idx) of an
// instruction identity, or "?" for invalid identities.
func (p *Program) InstrName(id InstrID) string {
	in, ok := p.Instr(id)
	if !ok {
		return "?"
	}
	return in.Name()
}

// FuncOf returns the function containing the instruction.
func (p *Program) FuncOf(id InstrID) (*Func, bool) {
	if id < 0 || int(id) >= len(p.byID) {
		return nil, false
	}
	return p.byID[id].fn, true
}

// Global returns the definition of a named global, if declared.
func (p *Program) Global(name string) (GlobalDef, bool) {
	for _, g := range p.Globals {
		if g.Name == name {
			return g, true
		}
	}
	return GlobalDef{}, false
}

// ByLabel returns the instruction carrying the given paper-style label.
// Labels are unique per program (enforced by Finalize).
func (p *Program) ByLabel(label string) (Instr, bool) {
	for _, ref := range p.byID {
		in := ref.fn.Instrs[ref.idx]
		if in.Label == label {
			return in, true
		}
	}
	return Instr{}, false
}

// MustByLabel is ByLabel for labels known to exist; it panics otherwise.
func (p *Program) MustByLabel(label string) Instr {
	in, ok := p.ByLabel(label)
	if !ok {
		panic(fmt.Sprintf("kir: no instruction labelled %q", label))
	}
	return in
}

// Finalize validates the program, assigns static instruction identities,
// resolves branch labels, and checks cross-references (branch targets,
// called functions, global symbols, thread entries). It must be called
// exactly once before the program is executed.
func (p *Program) Finalize() error {
	if p.finalized {
		return fmt.Errorf("kir: program already finalized")
	}
	if len(p.Funcs) == 0 {
		return fmt.Errorf("kir: program has no functions")
	}
	if len(p.Threads) == 0 {
		return fmt.Errorf("kir: program declares no threads")
	}

	globals := make(map[string]int32, len(p.Globals)) // name -> index+1
	for gi, g := range p.Globals {
		if g.Name == "" {
			return fmt.Errorf("kir: global with empty name")
		}
		if g.Size <= 0 {
			return fmt.Errorf("kir: global %q has non-positive size", g.Name)
		}
		if g.Size > MaxObjectWords || g.HeapSize > MaxObjectWords {
			return fmt.Errorf("kir: global %q has more than %d words", g.Name, MaxObjectWords)
		}
		limit := g.Size
		if g.HeapSize > 0 {
			if g.Size != 1 {
				return fmt.Errorf("kir: heap global %q must have size 1 (the pointer word)", g.Name)
			}
			limit = g.HeapSize
		}
		if int64(len(g.Init)) > limit {
			return fmt.Errorf("kir: global %q has %d initializers for %d words", g.Name, len(g.Init), limit)
		}
		if globals[g.Name] != 0 {
			return fmt.Errorf("kir: duplicate global %q", g.Name)
		}
		globals[g.Name] = int32(gi) + 1
	}
	for _, g := range p.Globals {
		for off, sym := range g.AddrOf {
			if off < 0 || off >= g.Size {
				return fmt.Errorf("kir: global %q: AddrOf offset %d out of range", g.Name, off)
			}
			if globals[sym] == 0 {
				return fmt.Errorf("kir: global %q: AddrOf references undeclared global %q", g.Name, sym)
			}
		}
	}

	// Deterministic id assignment: functions in name order.
	names := make([]string, 0, len(p.Funcs))
	for name, f := range p.Funcs {
		if name == "" || f == nil {
			return fmt.Errorf("kir: function with empty name or nil body")
		}
		if f.Name != name {
			return fmt.Errorf("kir: function map key %q does not match name %q", name, f.Name)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	p.byID = p.byID[:0]
	labels := make(map[string]InstrID)
	var next InstrID
	for _, name := range names {
		f := p.Funcs[name]
		if len(f.Instrs) == 0 {
			return fmt.Errorf("kir: function %q is empty", name)
		}
		f.base = next
		for i := range f.Instrs {
			in := &f.Instrs[i]
			if err := in.validate(); err != nil {
				return fmt.Errorf("kir: %s[%d]: %w", name, i, err)
			}
			in.ID = next
			in.Fn = name
			in.Idx = i
			if in.Label != "" {
				if prev, dup := labels[in.Label]; dup {
					return fmt.Errorf("kir: label %q used by instructions %d and %d", in.Label, prev, next)
				}
				labels[in.Label] = next
			}
			p.byID = append(p.byID, instrRef{fn: f, idx: i})
			next++
		}
	}

	// Resolve references now that everything has an identity.
	for _, name := range names {
		f := p.Funcs[name]
		for i := range f.Instrs {
			in := &f.Instrs[i]
			switch {
			case in.Op.IsBranch():
				t, ok := f.labelIndex(in.Target)
				if !ok {
					return fmt.Errorf("kir: %s[%d]: undefined branch target %q", name, i, in.Target)
				}
				in.tpos = int32(t)
			case in.Op.UsesFunc():
				if _, ok := p.Funcs[in.Target]; !ok {
					return fmt.Errorf("kir: %s[%d]: call of undefined function %q", name, i, in.Target)
				}
			}
			for _, opnd := range []*Operand{&in.A, &in.B} {
				if opnd.Kind != KindGlobal {
					continue
				}
				if opnd.global = globals[opnd.Sym]; opnd.global == 0 {
					return fmt.Errorf("kir: %s[%d]: undeclared global %q", name, i, opnd.Sym)
				}
			}
		}
	}

	threadNames := make(map[string]bool, len(p.Threads))
	for _, t := range p.Threads {
		if t.Name == "" {
			return fmt.Errorf("kir: thread with empty name")
		}
		if threadNames[t.Name] {
			return fmt.Errorf("kir: duplicate thread %q", t.Name)
		}
		threadNames[t.Name] = true
		if _, ok := p.Funcs[t.Entry]; !ok {
			return fmt.Errorf("kir: thread %q has undefined entry %q", t.Name, t.Entry)
		}
	}

	p.finalized = true
	p.hashCache = &programHash{}
	return nil
}

// ExtendReaders returns a copy of the program with extra read-mostly
// "noise" threads appended — background workload modelling how the rest
// of the kernel accesses the scenario's objects, which the statistical
// baselines (MUVI's access-correlation mining in particular) learn from.
//
// Each reader spec is a list of accesses its thread performs, one of:
//
//	"sym"    load the global sym
//	"!heap"  allocate, touch and free a private scratch object
//
// Noise functions are named "zz_noise_*" so that they sort after every
// existing function and the original instructions keep their static
// identities — patterns mined on the extended program remain comparable
// with diagnoses of the original.
func (p *Program) ExtendReaders(readers map[string][]string) (*Program, error) {
	if !p.finalized {
		return nil, fmt.Errorf("kir: ExtendReaders on non-finalized program")
	}
	if len(readers) == 0 {
		return p, nil
	}
	np := &Program{
		Funcs:   make(map[string]*Func, len(p.Funcs)+len(readers)),
		Globals: p.Globals,
		Threads: append([]ThreadDef(nil), p.Threads...),
	}
	for name, f := range p.Funcs {
		nf := &Func{Name: name, Instrs: append([]Instr(nil), f.Instrs...), labels: f.Labels()}
		np.Funcs[name] = nf
	}
	names := make([]string, 0, len(readers))
	for n := range readers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, tname := range names {
		fname := "zz_noise_" + tname
		if _, dup := np.Funcs[fname]; dup {
			return nil, fmt.Errorf("kir: duplicate noise thread %q", tname)
		}
		f := &Func{Name: fname, labels: map[string]int{}}
		for _, spec := range readers[tname] {
			switch {
			case spec == "!heap":
				f.Instrs = append(f.Instrs,
					Instr{Op: OpAlloc, Dst: R1, Size: 1},
					Instr{Op: OpStore, A: Ind(R1, 0), B: Imm(1)},
					Instr{Op: OpFree, A: R(R1)},
				)
			default:
				f.Instrs = append(f.Instrs, Instr{Op: OpLoad, Dst: R2, A: G(spec)})
			}
		}
		f.Instrs = append(f.Instrs, Instr{Op: OpRet})
		np.Funcs[fname] = f
		np.Threads = append(np.Threads, ThreadDef{Name: tname, Entry: fname})
	}
	if err := np.Finalize(); err != nil {
		return nil, err
	}
	return np, nil
}

// WithPrologues returns a copy of the program in which every declared
// thread first executes perThread non-racing memory accesses on a
// thread-private scratch area before entering its real body. This models
// the long non-racy kernel path a system call traverses before reaching
// the racy region (the paper's failed executions average thousands of
// memory-accessing instructions, almost all of which touch non-shared
// state): the accesses inflate the execution volume realistically without
// adding conflicting instructions, so search behaviour is unchanged while
// the conciseness contrast (accesses ≫ races ≫ chain) becomes visible.
func (p *Program) WithPrologues(perThread int) (*Program, error) {
	if !p.finalized {
		return nil, fmt.Errorf("kir: WithPrologues on non-finalized program")
	}
	if perThread <= 0 {
		return p, nil
	}
	np := &Program{
		Funcs:   make(map[string]*Func, len(p.Funcs)+len(p.Threads)),
		Globals: append([]GlobalDef(nil), p.Globals...),
		Threads: append([]ThreadDef(nil), p.Threads...),
	}
	for name, f := range p.Funcs {
		np.Funcs[name] = &Func{Name: name, Instrs: append([]Instr(nil), f.Instrs...), labels: f.Labels()}
	}
	for i := range np.Threads {
		scratch := fmt.Sprintf("zz_scratch_%d", i)
		np.Globals = append(np.Globals, GlobalDef{Name: scratch, Size: 4})
		wname := fmt.Sprintf("zz_pad_%d_%s", i, np.Threads[i].Entry)
		w := &Func{Name: wname, labels: map[string]int{}}
		for j := 0; j < perThread; j++ {
			if j%2 == 0 {
				w.Instrs = append(w.Instrs, Instr{Op: OpStore, A: GOff(scratch, int64(j%4)), B: Imm(int64(j))})
			} else {
				w.Instrs = append(w.Instrs, Instr{Op: OpLoad, Dst: R15, A: GOff(scratch, int64(j%4))})
			}
		}
		w.Instrs = append(w.Instrs, Instr{Op: OpCall, Target: np.Threads[i].Entry}, Instr{Op: OpRet})
		np.Funcs[wname] = w
		np.Threads[i].Entry = wname
	}
	if err := np.Finalize(); err != nil {
		return nil, err
	}
	return np, nil
}

// FixSerialize returns a copy of the program in which the given entry
// functions execute under one shared fix mutex — the canonical shape of a
// concurrency-bug patch: the racing regions become mutually exclusive, so
// the causality chain's interleaving orders can no longer occur. Thread
// entries and queue_work/call_rcu targets naming a serialized function are
// redirected to a wrapper that takes the lock around the call; early
// returns inside the function return into the wrapper, so the lock is
// always released.
//
// Scenario fixes use this to model developer patches and let the
// evaluation verify the paper's criterion: "if a fix does not allow one
// of the interleaving orders in the chain, it does not incur a failure".
func (p *Program) FixSerialize(entries ...string) (*Program, error) {
	if !p.finalized {
		return nil, fmt.Errorf("kir: FixSerialize on non-finalized program")
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("kir: FixSerialize needs at least one entry")
	}
	const mu = "zz_fix_mu"
	if _, exists := p.Global(mu); exists {
		return nil, fmt.Errorf("kir: program already declares %q", mu)
	}
	want := make(map[string]bool, len(entries))
	for _, e := range entries {
		if _, ok := p.Funcs[e]; !ok {
			return nil, fmt.Errorf("kir: FixSerialize: no function %q", e)
		}
		want[e] = true
	}

	np := &Program{
		Funcs:   make(map[string]*Func, len(p.Funcs)+len(entries)),
		Globals: append(append([]GlobalDef(nil), p.Globals...), GlobalDef{Name: mu, Size: 1}),
		Threads: append([]ThreadDef(nil), p.Threads...),
	}
	wrapper := func(entry string) string { return "zz_fixed_" + entry }
	for name, f := range p.Funcs {
		nf := &Func{Name: name, Instrs: append([]Instr(nil), f.Instrs...), labels: f.Labels()}
		// Redirect asynchronous invocations of serialized functions to
		// their wrappers (plain calls are left alone: the caller already
		// holds the lock when it is itself serialized).
		for i := range nf.Instrs {
			in := &nf.Instrs[i]
			if (in.Op == OpQueueWork || in.Op == OpCallRCU) && want[in.Target] {
				in.Target = wrapper(in.Target)
			}
		}
		np.Funcs[name] = nf
	}
	for _, e := range entries {
		np.Funcs[wrapper(e)] = &Func{
			Name: wrapper(e),
			Instrs: []Instr{
				{Op: OpLock, A: G(mu)},
				{Op: OpCall, Target: e},
				{Op: OpUnlock, A: G(mu)},
				{Op: OpRet},
			},
			labels: map[string]int{},
		}
	}
	for i := range np.Threads {
		if want[np.Threads[i].Entry] {
			np.Threads[i].Entry = wrapper(np.Threads[i].Entry)
		}
	}
	if err := np.Finalize(); err != nil {
		return nil, err
	}
	return np, nil
}

// Restrict returns a view of the program with only the named declared
// threads (a slice, §4.2). Functions, globals and instruction identities
// are shared with the original, so races and schedules remain comparable
// across views. The original program must be finalized.
func (p *Program) Restrict(names []string) (*Program, error) {
	if !p.finalized {
		return nil, fmt.Errorf("kir: Restrict on non-finalized program")
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	cp := *p
	cp.hashCache = &programHash{} // different thread set, different hash
	cp.Threads = nil
	for _, t := range p.Threads {
		if want[t.Name] {
			cp.Threads = append(cp.Threads, t)
			delete(want, t.Name)
		}
	}
	if len(want) > 0 {
		for n := range want {
			return nil, fmt.Errorf("kir: Restrict: no declared thread %q", n)
		}
	}
	if len(cp.Threads) == 0 {
		return nil, fmt.Errorf("kir: Restrict would leave no threads")
	}
	return &cp, nil
}

// BranchTarget returns the resolved in-function index of a branch
// instruction's target. It panics if the instruction is not a branch.
func (p *Program) BranchTarget(in *Instr) int {
	if !in.Op.IsBranch() {
		panic(fmt.Sprintf("kir: BranchTarget on non-branch %s", in.Op))
	}
	return int(in.tpos)
}
