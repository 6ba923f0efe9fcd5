package kir

import "fmt"

// Builder constructs Programs fluently. The builder records errors instead
// of returning them at every step; Build reports the first one.
//
//	b := kir.NewBuilder()
//	b.Global("po_running", 1, 1)
//	f := b.Func("fanout_add")
//	f.Load(kir.R1, kir.G("po_running")).L("A2")
//	f.Beq(kir.R(kir.R1), kir.Imm(0), "out")
//	...
//	prog, err := b.Build()
type Builder struct {
	prog *Program
	err  error
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{prog: &Program{Funcs: make(map[string]*Func)}}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Global declares a global variable of the given size with initial values.
func (b *Builder) Global(name string, size int64, init ...int64) *Builder {
	b.prog.Globals = append(b.prog.Globals, GlobalDef{Name: name, Size: size, Init: init})
	return b
}

// Var declares a single-word global with an initial value — the common case
// for the paper's examples (po->running, po->fanout, ...).
func (b *Builder) Var(name string, init int64) *Builder {
	return b.Global(name, 1, init)
}

// HeapObj declares a single-word global holding a pointer to a
// pre-allocated heap object of size words, initialized with init values.
// The object gets full KASAN tracking (redzones, free state) but is excluded
// from leak checking.
func (b *Builder) HeapObj(name string, size int64, init ...int64) *Builder {
	b.prog.Globals = append(b.prog.Globals, GlobalDef{
		Name: name, Size: 1, HeapSize: size, Init: init,
	})
	return b
}

// VarAddrOf declares a single-word global initialized with the address of
// another global ("ptr initially points at obj").
func (b *Builder) VarAddrOf(name, sym string) *Builder {
	b.prog.Globals = append(b.prog.Globals, GlobalDef{
		Name: name, Size: 1, AddrOf: map[int64]string{0: sym},
	})
	return b
}

// Thread declares a syscall thread with the given name and entry function.
func (b *Builder) Thread(name, entry string) *Builder {
	b.prog.Threads = append(b.prog.Threads, ThreadDef{Name: name, Entry: entry, Kind: KindSyscall})
	return b
}

// ThreadArg declares a syscall thread whose register r0 starts at arg.
func (b *Builder) ThreadArg(name, entry string, arg int64) *Builder {
	b.prog.Threads = append(b.prog.Threads, ThreadDef{Name: name, Entry: entry, Kind: KindSyscall, Arg: arg})
	return b
}

// ThreadIRQ declares a hardware-interrupt handler context (the §4.6
// extension): the handler can be injected by the scheduler at any
// conflicting instruction, modelling an interrupt firing at an arbitrary
// point of the racing system call.
func (b *Builder) ThreadIRQ(name, entry string) *Builder {
	b.prog.Threads = append(b.prog.Threads, ThreadDef{Name: name, Entry: entry, Kind: KindHardIRQ})
	return b
}

// Func starts (or continues) a function body.
func (b *Builder) Func(name string) *FuncBuilder {
	f, ok := b.prog.Funcs[name]
	if !ok {
		f = &Func{Name: name, labels: make(map[string]int)}
		b.prog.Funcs[name] = f
	}
	return &FuncBuilder{b: b, f: f}
}

// Build finalizes and returns the program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.prog.Finalize(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustBuild is Build for statically known-good programs (the scenario
// corpus); it panics on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// FuncBuilder appends instructions to one function.
type FuncBuilder struct {
	b *Builder
	f *Func
}

// InstrRef allows labelling the most recently emitted instruction.
type InstrRef struct{ in *Instr }

// L attaches a paper-style label (e.g. "A6") to the instruction.
func (r InstrRef) L(label string) InstrRef {
	if r.in != nil {
		r.in.Label = label
	}
	return r
}

// Grow makes room for n more instructions, so the next n emits do not
// reallocate the function's instruction slice. A caller that knows a
// body's length up front (the assembler) sizes the slice once.
func (fb *FuncBuilder) Grow(n int) {
	ins := fb.f.Instrs
	if cap(ins)-len(ins) < n {
		fb.f.Instrs = append(make([]Instr, 0, len(ins)+n), ins...)
	}
}

func (fb *FuncBuilder) emit(in Instr) InstrRef {
	fb.f.Instrs = append(fb.f.Instrs, in)
	return InstrRef{in: &fb.f.Instrs[len(fb.f.Instrs)-1]}
}

// At defines a local branch-target label at the position of the next
// emitted instruction.
func (fb *FuncBuilder) At(label string) *FuncBuilder {
	if _, dup := fb.f.labels[label]; dup {
		fb.b.fail("kir: duplicate branch label %q in %s", label, fb.f.Name)
		return fb
	}
	fb.f.labels[label] = len(fb.f.Instrs)
	return fb
}

// Nop emits an observable no-op.
func (fb *FuncBuilder) Nop() InstrRef { return fb.emit(Instr{Op: OpNop}) }

// Mov emits dst <- a.
func (fb *FuncBuilder) Mov(dst Reg, a Operand) InstrRef {
	return fb.emit(Instr{Op: OpMov, Dst: dst, A: a})
}

// Add emits dst <- dst + a.
func (fb *FuncBuilder) Add(dst Reg, a Operand) InstrRef {
	return fb.emit(Instr{Op: OpAdd, Dst: dst, A: a})
}

// Sub emits dst <- dst - a.
func (fb *FuncBuilder) Sub(dst Reg, a Operand) InstrRef {
	return fb.emit(Instr{Op: OpSub, Dst: dst, A: a})
}

// And emits dst <- dst & a.
func (fb *FuncBuilder) And(dst Reg, a Operand) InstrRef {
	return fb.emit(Instr{Op: OpAnd, Dst: dst, A: a})
}

// Or emits dst <- dst | a.
func (fb *FuncBuilder) Or(dst Reg, a Operand) InstrRef {
	return fb.emit(Instr{Op: OpOr, Dst: dst, A: a})
}

// Xor emits dst <- dst ^ a.
func (fb *FuncBuilder) Xor(dst Reg, a Operand) InstrRef {
	return fb.emit(Instr{Op: OpXor, Dst: dst, A: a})
}

// Load emits dst <- mem[addr].
func (fb *FuncBuilder) Load(dst Reg, addr Operand) InstrRef {
	return fb.emit(Instr{Op: OpLoad, Dst: dst, A: addr})
}

// Store emits mem[addr] <- v.
func (fb *FuncBuilder) Store(addr, v Operand) InstrRef {
	return fb.emit(Instr{Op: OpStore, A: addr, B: v})
}

// Beq emits a branch to label when a == b.
func (fb *FuncBuilder) Beq(a, b Operand, label string) InstrRef {
	return fb.emit(Instr{Op: OpBeq, A: a, B: b, Target: label})
}

// Bne emits a branch to label when a != b.
func (fb *FuncBuilder) Bne(a, b Operand, label string) InstrRef {
	return fb.emit(Instr{Op: OpBne, A: a, B: b, Target: label})
}

// Blt emits a branch to label when a < b.
func (fb *FuncBuilder) Blt(a, b Operand, label string) InstrRef {
	return fb.emit(Instr{Op: OpBlt, A: a, B: b, Target: label})
}

// Bge emits a branch to label when a >= b.
func (fb *FuncBuilder) Bge(a, b Operand, label string) InstrRef {
	return fb.emit(Instr{Op: OpBge, A: a, B: b, Target: label})
}

// Jmp emits an unconditional branch to label.
func (fb *FuncBuilder) Jmp(label string) InstrRef {
	return fb.emit(Instr{Op: OpJmp, Target: label})
}

// Call emits a call of fn (shared register file).
func (fb *FuncBuilder) Call(fn string) InstrRef {
	return fb.emit(Instr{Op: OpCall, Target: fn})
}

// Ret emits a return.
func (fb *FuncBuilder) Ret() InstrRef { return fb.emit(Instr{Op: OpRet}) }

// Lock emits acquisition of the mutex at addr.
func (fb *FuncBuilder) Lock(addr Operand) InstrRef {
	return fb.emit(Instr{Op: OpLock, A: addr})
}

// Unlock emits release of the mutex at addr.
func (fb *FuncBuilder) Unlock(addr Operand) InstrRef {
	return fb.emit(Instr{Op: OpUnlock, A: addr})
}

// Alloc emits dst <- alloc(size).
func (fb *FuncBuilder) Alloc(dst Reg, size int64) InstrRef {
	return fb.emit(Instr{Op: OpAlloc, Dst: dst, Size: size})
}

// Free emits free(v).
func (fb *FuncBuilder) Free(v Operand) InstrRef {
	return fb.emit(Instr{Op: OpFree, A: v})
}

// BugOn emits BUG_ON(v != 0).
func (fb *FuncBuilder) BugOn(v Operand) InstrRef {
	return fb.emit(Instr{Op: OpBugOn, A: v})
}

// ListAdd emits insertion of v into the list at addr.
func (fb *FuncBuilder) ListAdd(addr, v Operand) InstrRef {
	return fb.emit(Instr{Op: OpListAdd, A: addr, B: v})
}

// ListDel emits removal of v from the list at addr.
func (fb *FuncBuilder) ListDel(addr, v Operand) InstrRef {
	return fb.emit(Instr{Op: OpListDel, A: addr, B: v})
}

// ListHas emits dst <- (v in list at addr).
func (fb *FuncBuilder) ListHas(dst Reg, addr, v Operand) InstrRef {
	return fb.emit(Instr{Op: OpListHas, Dst: dst, A: addr, B: v})
}

// RefGet emits an atomic increment of the refcount at addr; dst receives
// the new value.
func (fb *FuncBuilder) RefGet(dst Reg, addr Operand) InstrRef {
	return fb.emit(Instr{Op: OpRefGet, Dst: dst, A: addr})
}

// RefPut emits an atomic decrement of the refcount at addr; dst receives
// the new value.
func (fb *FuncBuilder) RefPut(dst Reg, addr Operand) InstrRef {
	return fb.emit(Instr{Op: OpRefPut, Dst: dst, A: addr})
}

// QueueWork emits queue_work(fn, arg): spawn a kworker thread running fn
// with r0 = arg.
func (fb *FuncBuilder) QueueWork(fn string, arg Operand) InstrRef {
	return fb.emit(Instr{Op: OpQueueWork, Target: fn, A: arg})
}

// CallRCU emits call_rcu(fn, arg): register an RCU callback running fn in
// softirq context with r0 = arg.
func (fb *FuncBuilder) CallRCU(fn string, arg Operand) InstrRef {
	return fb.emit(Instr{Op: OpCallRCU, Target: fn, A: arg})
}

// Yield emits a cond_resched() scheduling point.
func (fb *FuncBuilder) Yield() InstrRef { return fb.emit(Instr{Op: OpYield}) }

// Exit emits immediate thread termination.
func (fb *FuncBuilder) Exit() InstrRef { return fb.emit(Instr{Op: OpExit}) }
