package kir

import (
	"strings"
	"testing"
)

func buildSample(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder()
	b.Var("flag", 1)
	b.Global("buf", 4, 1, 2)
	b.VarAddrOf("ptr", "buf")
	b.HeapObj("obj", 2, 7)

	f := b.Func("main_a")
	f.Load(R1, G("flag")).L("A1")
	f.Beq(R(R1), Imm(0), "out")
	f.Store(GOff("buf", 1), Imm(5)).L("A2")
	f.Call("helper")
	f.At("out").Ret()

	h := b.Func("helper")
	h.ListAdd(G("buf"), Imm(9)).L("H1")
	h.Ret()

	b.Thread("A", "main_a")
	b.ThreadArg("B", "helper", 3)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return prog
}

func TestFinalizeAssignsStableIDs(t *testing.T) {
	prog := buildSample(t)
	if prog.NumInstrs() != 7 {
		t.Fatalf("NumInstrs = %d, want 7", prog.NumInstrs())
	}
	seen := make(map[InstrID]bool)
	for id := InstrID(0); int(id) < prog.NumInstrs(); id++ {
		in, ok := prog.Instr(id)
		if !ok {
			t.Fatalf("Instr(%d) missing", id)
		}
		if in.ID != id {
			t.Errorf("Instr(%d).ID = %d", id, in.ID)
		}
		if seen[in.ID] {
			t.Errorf("duplicate id %d", in.ID)
		}
		seen[in.ID] = true
	}
	// Functions are numbered in name order: helper before main_a.
	h, _ := prog.ByLabel("H1")
	a1, _ := prog.ByLabel("A1")
	if h.ID >= a1.ID {
		t.Errorf("helper ids should precede main_a ids (got H1=%d, A1=%d)", h.ID, a1.ID)
	}
}

func TestByLabelAndInstrName(t *testing.T) {
	prog := buildSample(t)
	in, ok := prog.ByLabel("A2")
	if !ok {
		t.Fatal("label A2 not found")
	}
	if in.Op != OpStore || in.Name() != "A2" {
		t.Errorf("A2 = %v (%s)", in.Op, in.Name())
	}
	if _, ok := prog.ByLabel("nope"); ok {
		t.Error("ByLabel(nope) should fail")
	}
	unlabeled := prog.MustInstr(in.ID + 1) // the call
	if !strings.Contains(unlabeled.Name(), "main_a+") {
		t.Errorf("unlabeled name = %q", unlabeled.Name())
	}
}

func TestBranchTargetResolution(t *testing.T) {
	prog := buildSample(t)
	f := prog.Funcs["main_a"]
	for i := range f.Instrs {
		if in := &f.Instrs[i]; in.Op == OpBeq {
			idx := prog.BranchTarget(in)
			if f.Instrs[idx].Op != OpRet {
				t.Errorf("branch target = %v, want ret", f.Instrs[idx].Op)
			}
		}
	}
}

func TestFinalizeErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(*Builder)
		want  string
	}{
		{"undefined branch", func(b *Builder) {
			b.Func("f").Jmp("missing")
			b.Thread("t", "f")
		}, "undefined branch target"},
		{"undefined call", func(b *Builder) {
			b.Func("f").Call("missing")
			b.Thread("t", "f")
		}, "undefined function"},
		{"undeclared global", func(b *Builder) {
			b.Func("f").Load(R1, G("missing"))
			b.Thread("t", "f")
		}, "undeclared global"},
		{"duplicate label", func(b *Builder) {
			f := b.Func("f")
			f.Nop().L("X")
			f.Nop().L("X")
			b.Thread("t", "f")
		}, "label \"X\""},
		{"no threads", func(b *Builder) {
			b.Func("f").Ret()
		}, "no threads"},
		{"bad thread entry", func(b *Builder) {
			b.Func("f").Ret()
			b.Thread("t", "missing")
		}, "undefined entry"},
		{"duplicate global", func(b *Builder) {
			b.Var("x", 0).Var("x", 1)
			b.Func("f").Ret()
			b.Thread("t", "f")
		}, "duplicate global"},
		{"bad addrof", func(b *Builder) {
			b.VarAddrOf("p", "missing")
			b.Func("f").Ret()
			b.Thread("t", "f")
		}, "AddrOf references undeclared"},
		{"duplicate thread", func(b *Builder) {
			b.Func("f").Ret()
			b.Thread("t", "f").Thread("t", "f")
		}, "duplicate thread"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			tc.build(b)
			_, err := b.Build()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestOperandValidation(t *testing.T) {
	b := NewBuilder()
	b.Var("g", 0)
	f := b.Func("f")
	f.Load(R1, Imm(5)) // load needs an address
	b.Thread("t", "f")
	if _, err := b.Build(); err == nil {
		t.Error("load from immediate should fail validation")
	}
}

func TestRestrict(t *testing.T) {
	prog := buildSample(t)
	r, err := prog.Restrict([]string{"B"})
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if len(r.Threads) != 1 || r.Threads[0].Name != "B" {
		t.Errorf("Threads = %v", r.Threads)
	}
	// Instruction identities are shared.
	if r.NumInstrs() != prog.NumInstrs() {
		t.Errorf("NumInstrs changed: %d vs %d", r.NumInstrs(), prog.NumInstrs())
	}
	if _, err := prog.Restrict([]string{"missing"}); err == nil {
		t.Error("Restrict(missing) should fail")
	}
	if _, err := prog.Restrict(nil); err == nil {
		t.Error("Restrict(none) should fail")
	}
}

func TestExtendReadersPreservesIDs(t *testing.T) {
	prog := buildSample(t)
	a2, _ := prog.ByLabel("A2")
	ext, err := prog.ExtendReaders(map[string][]string{
		"noise1": {"flag", "!heap"},
		"noise2": {"buf"},
	})
	if err != nil {
		t.Fatalf("ExtendReaders: %v", err)
	}
	if len(ext.Threads) != len(prog.Threads)+2 {
		t.Errorf("threads = %d", len(ext.Threads))
	}
	ea2, ok := ext.ByLabel("A2")
	if !ok || ea2.ID != a2.ID {
		t.Errorf("A2 id changed: %d vs %d", ea2.ID, a2.ID)
	}
	// Original program untouched.
	if len(prog.Funcs) != 2 {
		t.Errorf("original program gained functions: %d", len(prog.Funcs))
	}
	// Extending with no readers returns the same program.
	same, err := prog.ExtendReaders(nil)
	if err != nil || same != prog {
		t.Errorf("ExtendReaders(nil) = %p, %v; want original", same, err)
	}
}

func TestOpMetadata(t *testing.T) {
	if !OpStore.WritesMemory() || !OpStore.AccessesMemory() {
		t.Error("store must be a memory write")
	}
	if !OpLoad.ReadsMemory() || OpLoad.WritesMemory() {
		t.Error("load must be a pure read")
	}
	if !OpRefGet.WritesMemory() || !OpRefGet.ReadsMemory() {
		t.Error("ref_get must be a read-modify-write")
	}
	if OpAlloc.AccessesMemory() {
		t.Error("alloc must not participate in race detection")
	}
	if !OpBeq.IsBranch() || OpBeq.UsesFunc() {
		t.Error("beq is a branch, not a call")
	}
	if !OpQueueWork.UsesFunc() {
		t.Error("queue_work uses a function target")
	}
	for op := Op(0); op < opCount; op++ {
		if got, ok := OpByName(op.String()); !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
}

func TestOperandString(t *testing.T) {
	cases := map[string]Operand{
		"5":      Imm(5),
		"r3":     R(R3),
		"[g]":    G("g"),
		"[g+2]":  GOff("g", 2),
		"[r1]":   Ind(R1, 0),
		"[r1+1]": Ind(R1, 1),
		"_":      {},
	}
	for want, op := range cases {
		if got := op.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
