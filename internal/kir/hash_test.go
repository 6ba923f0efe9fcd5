package kir_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"testing"

	"aitia/internal/kir"
	"aitia/internal/scenarios"
)

// buildHashProg assembles a small two-thread program; imm parameterizes
// one immediate so tests can produce near-identical variants.
func buildHashProg(t *testing.T, imm int64, label string) *kir.Program {
	t.Helper()
	b := kir.NewBuilder()
	b.Var("ptr_valid", 0)
	b.VarAddrOf("ptr", "obj")
	b.Global("obj", 2, 7)
	fa := b.Func("fa")
	fa.Store(kir.G("ptr_valid"), kir.Imm(imm)).L("A1")
	fa.Load(kir.R1, kir.G("ptr")).L("A2")
	fa.Ret()
	fb := b.Func("fb")
	fb.Load(kir.R1, kir.G("ptr_valid")).L("B1")
	fb.Beq(kir.R(kir.R1), kir.Imm(0), "out")
	fb.Store(kir.G("ptr"), kir.Imm(0)).L(label)
	fb.At("out").Ret()
	b.Thread("A", "fa")
	b.Thread("B", "fb")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestHashDeterministic(t *testing.T) {
	p1 := buildHashProg(t, 1, "B2")
	p2 := buildHashProg(t, 1, "B2")
	h1, h2 := p1.Hash(), p2.Hash()
	if h1 != h2 {
		t.Errorf("identical programs hash differently: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Errorf("hash length = %d, want 64 hex chars", len(h1))
	}
	if h1 != p1.Hash() {
		t.Error("hash not stable across calls")
	}
}

func TestHashSensitivity(t *testing.T) {
	base := buildHashProg(t, 1, "B2").Hash()
	if got := buildHashProg(t, 2, "B2").Hash(); got == base {
		t.Error("changing an immediate did not change the hash")
	}
	if got := buildHashProg(t, 1, "B9").Hash(); got == base {
		t.Error("changing an instruction label did not change the hash")
	}
}

func TestHashRestrictedViewDiffers(t *testing.T) {
	p := buildHashProg(t, 1, "B2")
	r, err := p.Restrict([]string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Hash() == p.Hash() {
		t.Error("a slice view (fewer threads) must hash differently")
	}
}

// refHash is the reference serialization Hash must reproduce byte for
// byte: every field written separately through an io.Writer into the
// digest. Hash values key fleet ring placement, checkpoints, the service
// result cache and factory dedupe, so a faster Hash must not move one.
func refHash(p *kir.Program) string {
	h := sha256.New()
	writeInt(h, len(p.Globals))
	for _, g := range p.Globals {
		writeString(h, g.Name)
		writeInt64(h, g.Size)
		writeInt64(h, g.HeapSize)
		writeInt(h, len(g.Init))
		for _, v := range g.Init {
			writeInt64(h, v)
		}
		offs := make([]int64, 0, len(g.AddrOf))
		for off := range g.AddrOf {
			offs = append(offs, off)
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		writeInt(h, len(offs))
		for _, off := range offs {
			writeInt64(h, off)
			writeString(h, g.AddrOf[off])
		}
	}
	writeInt(h, len(p.Threads))
	for _, t := range p.Threads {
		writeString(h, t.Name)
		writeString(h, t.Entry)
		writeInt(h, int(t.Kind))
		writeInt64(h, t.Arg)
	}
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	writeInt(h, len(names))
	for _, name := range names {
		f := p.Funcs[name]
		writeString(h, name)
		labels := f.Labels()
		lnames := make([]string, 0, len(labels))
		for l := range labels {
			lnames = append(lnames, l)
		}
		sort.Strings(lnames)
		writeInt(h, len(lnames))
		for _, l := range lnames {
			writeString(h, l)
			writeInt(h, labels[l])
		}
		writeInt(h, len(f.Instrs))
		for _, in := range f.Instrs {
			writeInt(h, int(in.Op))
			writeInt(h, int(in.Dst))
			writeOperand(h, in.A)
			writeOperand(h, in.B)
			writeInt64(h, in.Size)
			writeString(h, in.Target)
			writeString(h, in.Label)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeOperand(w io.Writer, o kir.Operand) {
	writeInt(w, int(o.Kind))
	writeInt64(w, o.Imm)
	writeInt(w, int(o.Reg))
	writeString(w, o.Sym)
	writeInt64(w, o.Off)
}

func writeInt(w io.Writer, v int) { writeInt64(w, int64(v)) }

func writeInt64(w io.Writer, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	w.Write(buf[:])
}

func writeString(w io.Writer, s string) {
	writeInt(w, len(s))
	io.WriteString(w, s)
}

// TestHashMatchesReference: Hash equals the reference serialization on
// every corpus program and on each of its one-thread slice views.
func TestHashMatchesReference(t *testing.T) {
	all := scenarios.All()
	if len(all) < 100 {
		t.Fatalf("corpus has only %d scenarios", len(all))
	}
	for _, sc := range all {
		prog := sc.MustProgram()
		if got, want := prog.Hash(), refHash(prog); got != want {
			t.Errorf("%s: Hash %s, reference %s", sc.Name, got, want)
		}
		for _, td := range prog.Threads {
			view, err := prog.Restrict([]string{td.Name})
			if err != nil {
				t.Fatalf("%s: Restrict(%s): %v", sc.Name, td.Name, err)
			}
			if got, want := view.Hash(), refHash(view); got != want {
				t.Errorf("%s[%s]: Hash %s, reference %s", sc.Name, td.Name, got, want)
			}
		}
	}
}

// TestHashMatchesReferenceEdgeCases covers the fields the corpus
// exercises least: address-of initializers at several offsets, heap
// globals, branch labels (one at the end of a function), negative
// offsets and immediates, spawn arguments and thread kinds. The
// many-offset AddrOf has no builder form, so it is hashed unfinalized.
func TestHashMatchesReferenceEdgeCases(t *testing.T) {
	b := kir.NewBuilder()
	b.Var("flag", -3)
	b.VarAddrOf("ptr", "tbl")
	b.HeapObj("obj", 3, 1, -1)
	b.Global("tbl", 4, 0, 9)
	f := b.Func("main")
	f.Load(kir.R1, kir.GOff("tbl", -1)).L("M1")
	f.Store(kir.Ind(kir.R1, -2), kir.Imm(-7))
	f.Beq(kir.R(kir.R1), kir.Imm(0), "out")
	f.At("again").Alloc(kir.R2, 2)
	f.Bne(kir.R(kir.R2), kir.Imm(0), "again")
	f.QueueWork("worker", kir.R(kir.R2)).L("Q")
	f.At("out")
	w := b.Func("worker")
	w.CallRCU("main", kir.Imm(-1))
	w.Ret()
	b.ThreadArg("T", "main", -4)
	b.ThreadIRQ("I", "worker")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	unfinalized := &kir.Program{
		Funcs: map[string]*kir.Func{"f": {Name: "f", Instrs: []kir.Instr{{Op: kir.OpRet}}}},
		Globals: []kir.GlobalDef{
			{Name: "a", Size: 1},
			{Name: "tbl", Size: 5, Init: []int64{1, -2}, AddrOf: map[int64]string{4: "a", 0: "tbl", 2: "a", -1: "x"}},
		},
		Threads: []kir.ThreadDef{{Name: "T", Entry: "f", Kind: kir.KindSoftirq}},
	}
	for name, p := range map[string]*kir.Program{"built": prog, "unfinalized": unfinalized, "empty": {}} {
		if got, want := p.Hash(), refHash(p); got != want {
			t.Errorf("%s: Hash %s, reference %s", name, got, want)
		}
	}
}

// TestHashAllocs: a program's hash serializes into one buffer sized up
// front, so its allocations do not grow with the program. Restrict gives
// each view a fresh hash cache, so the views' own cost is subtracted.
func TestHashAllocs(t *testing.T) {
	sc, ok := scenarios.ByName("cve-2017-15649")
	if !ok {
		t.Fatal("scenario missing")
	}
	prog := sc.MustProgram()
	names := []string{prog.Threads[0].Name}
	view := func() *kir.Program {
		v, err := prog.Restrict(names)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	restrict := testing.AllocsPerRun(20, func() { view() })
	hashed := testing.AllocsPerRun(20, func() { _ = view().Hash() })
	if got := hashed - restrict; got > 8 {
		t.Errorf("Hash allocates %.0f times per program, want at most 8", got)
	}
}
