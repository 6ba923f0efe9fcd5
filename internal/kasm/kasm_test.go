package kasm_test

import (
	"errors"
	"testing"
	"testing/quick"

	"aitia/internal/core"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/scenarios"
)

const sample = `
; a small racy program
global flag = 1
global buf[4] = 1, 2
ptr    p -> buf
heap   obj[2] = 7

thread A main_a
thread B helper arg=3

func main_a
@A1     load r1, [flag]
        beq r1, 0, out
@A2     store [buf+1], 5
        call helper
        lock [flag]
        unlock [flag]
        ref_get r2, [flag]
        ref_put r2, [flag]
        alloc r3, 2
        store [r3+1], 9
        free r3
        queue_work helper, r3
        call_rcu helper
        yield
        nop
out:
        ret
end

func helper
@H1     list_add [buf], 9
        list_has r4, [buf], 9
        bug_on 0
        list_del [buf], 9
        mov r5, -2
        add r5, 1
        sub r5, r5
        and r5, 0xf
        or r5, 2
        xor r5, 1
        bge r5, 100, done
        blt r5, -100, done
        jmp done
done:
        exit
end
`

func TestParseSample(t *testing.T) {
	prog, err := kasm.Parse(sample)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Funcs) != 2 || len(prog.Threads) != 2 {
		t.Fatalf("funcs=%d threads=%d", len(prog.Funcs), len(prog.Threads))
	}
	if prog.Threads[1].Arg != 3 {
		t.Errorf("thread B arg = %d", prog.Threads[1].Arg)
	}
	a1, ok := prog.ByLabel("A1")
	if !ok || a1.Op != kir.OpLoad {
		t.Errorf("A1 = %v, %v", a1.Op, ok)
	}
	g, ok := prog.Global("buf")
	if !ok || g.Size != 4 || len(g.Init) != 2 {
		t.Errorf("buf = %+v", g)
	}
	h, _ := prog.Global("obj")
	if h.HeapSize != 2 {
		t.Errorf("obj heap size = %d", h.HeapSize)
	}
	p, _ := prog.Global("p")
	if p.AddrOf[0] != "buf" {
		t.Errorf("p addrof = %v", p.AddrOf)
	}
}

// parseErrorCases pins every message Parse reports for malformed input,
// with its line: the messages are part of the service's 400 responses.
// Line 0 marks an error that is not a ParseError (a finalize check).
var parseErrorCases = []struct {
	src  string
	line int
	msg  string
}{
	{"bogus", 1, `kasm: line 1: unexpected "bogus" outside a func`},
	{"\n\n  bogus thing ; c", 3, `kasm: line 3: unexpected "bogus" outside a func`},
	{"func", 1, `kasm: line 1: func wants exactly one name`},
	{"func a b", 1, `kasm: line 1: func wants exactly one name`},
	{"func f\nret", 2, `kasm: line 2: unterminated func (missing 'end')`},
	{"func f\nret\n", 3, `kasm: line 3: unterminated func (missing 'end')`},
	{"func f\r\nret\r\n\r\n", 4, `kasm: line 4: unterminated func (missing 'end')`},
	{"func f\n@X\nend", 2, `kasm: line 2: label "@X" with no instruction`},
	{"@X", 1, `kasm: line 1: label "@X" with no instruction`},
	{"@X\tload r1, [g]", 1, `kasm: line 1: unexpected "r1," outside a func`},
	{"func f\nret\n@L end", 3, `kasm: line 3: label on 'end'`},
	{"func f\nload r1, [g]\nout:\nend", 4, `kasm: line 4: branch target "out" with no instruction after it`},
	{"func f\n@L out:\nret\nend", 2, `kasm: line 2: paper label on a branch target`},
	{"global x[4", 1, `kasm: line 1: malformed size in "x[4"`},
	{"heap x[4 = 1", 1, `kasm: line 1: malformed size in "x[4"`},
	{"global x[z]", 1, `kasm: line 1: bad size in "x[z]"`},
	{"global = 3", 1, `kasm: line 1: missing variable name`},
	{"global x = 1, z", 1, `kasm: line 1: bad initializer "z"`},
	{"global x = 1,", 1, `kasm: line 1: bad initializer ""`},
	{"ptr a b", 1, `kasm: line 1: ptr wants: ptr <name> -> <global>`},
	{"ptr a => b", 1, `kasm: line 1: ptr wants: ptr <name> -> <global>`},
	{"thread a", 1, `kasm: line 1: thread wants: thread <name> <entry> [arg=N | irq]`},
	{"thread a f b c", 1, `kasm: line 1: thread wants: thread <name> <entry> [arg=N | irq]`},
	{"thread a f b", 1, `kasm: line 1: bad thread option "b"`},
	{"thread a f arg=z", 1, `kasm: line 1: bad thread arg "z"`},
	{"func f\nwat r1\nend", 2, `kasm: line 2: unknown mnemonic "wat"`},
	{"func f\nload r1\nend", 2, `kasm: line 2: load wants 2 operand(s), got 1`},
	{"func f\nret r1, r2, r3, r4, r5\nend", 2, `kasm: line 2: ret wants 0 operand(s), got 5`},
	{"func f\nstore [g], r1,\nend", 2, `kasm: line 2: store wants 2 operand(s), got 3`},
	{"func f\nload 5, [g]\nend", 2, `kasm: line 2: want register, got "5"`},
	{"func f\nload r16, [g]\nend", 2, `kasm: line 2: want register, got "r16"`},
	{"func f\nload r1, [g\nend", 2, `kasm: line 2: malformed address "[g"`},
	{"func f\nload r1, [g+z]\nend", 2, `kasm: line 2: bad offset in "[g+z]"`},
	{"func f\nstore [g], zz\nend", 2, `kasm: line 2: bad operand "zz"`},
	{"func f\nstore , 1\nend", 2, `kasm: line 2: empty operand`},
	{"func f\nqueue_work\nend", 2, `kasm: line 2: queue_work wants 1 or 2 operands`},
	{"func f\ncall_rcu a, 1, 2\nend", 2, `kasm: line 2: call_rcu wants 1 or 2 operands`},
	{"func f\nalloc r1, z\nend", 2, `kasm: line 2: bad alloc size "z"`},
	{"func f\nbeq r1, 0\nend", 2, `kasm: line 2: beq wants 3 operand(s), got 2`},
	{"global g = 1\n\nfunc f\nbroken here\nend", 4, `kasm: line 4: unknown mnemonic "broken"`},
	{"thread T nofunc\nfunc f\nret\nend", 0, `kir: thread "T" has undefined entry "nofunc"`},
	{"thread T f\nfunc f\nout:\nret\nout:\nnop\nend", 0, `kir: duplicate branch label "out" in f`},
	{"global g[65537]\nthread T f\nfunc f\nret\nend", 0, `kir: global "g" has more than 65536 words`},
	{"heap o[65537]\nthread T f\nfunc f\nret\nend", 0, `kir: global "o" has more than 65536 words`},
	{"thread T f\nfunc f\nalloc r1, 65537\nret\nend", 0, `kir: f[0]: alloc alloc r1, 65537: allocation size above 65536 words`},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		_, err := kasm.Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want %q", tc.src, tc.msg)
			continue
		}
		if err.Error() != tc.msg {
			t.Errorf("Parse(%q) = %q, want %q", tc.src, err.Error(), tc.msg)
		}
		var pe *kasm.ParseError
		line := 0
		if errors.As(err, &pe) {
			line = pe.Line
		}
		if line != tc.line {
			t.Errorf("Parse(%q) error line %d, want %d", tc.src, line, tc.line)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	prog, err := kasm.Parse("; leading comment\nglobal g = 1 ; trailing\n\nfunc f\n  ret ; done\nend\nthread T f\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Funcs["f"].Instrs) != 1 {
		t.Errorf("instrs = %d", len(prog.Funcs["f"].Instrs))
	}
}

// TestRoundTrip: kasm.Disassemble(kasm.Parse(src)) parses back into a program with
// identical instruction streams, globals and threads.
func TestRoundTrip(t *testing.T) {
	prog, err := kasm.Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	src2 := kasm.Disassemble(prog)
	prog2, err := kasm.Parse(src2)
	if err != nil {
		t.Fatalf("reparse failed: %v\nsource:\n%s", err, src2)
	}
	assertSameProgram(t, prog, prog2)
}

// TestScenarioRoundTrip: every corpus scenario survives a
// disassemble/parse round trip — a strong property over real content.
func TestScenarioRoundTrip(t *testing.T) {
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			prog := sc.MustProgram()
			src := kasm.Disassemble(prog)
			prog2, err := kasm.Parse(src)
			if err != nil {
				t.Fatalf("reparse: %v\nsource:\n%s", err, src)
			}
			assertSameProgram(t, prog, prog2)
		})
	}
}

// TestRoundTripDiagnosis: a disassembled-and-reparsed scenario diagnoses
// to the identical causality chain (regression test for the exported
// corpus workflow).
func TestRoundTripDiagnosis(t *testing.T) {
	sc, _ := scenarios.ByName("cve-2017-15649")
	prog := sc.MustProgram()
	prog2, err := kasm.Parse(kasm.Disassemble(prog))
	if err != nil {
		t.Fatal(err)
	}
	diagnose := func(p *kir.Program) string {
		m, err := kvm.New(p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Reproduce(m, core.LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr()})
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.Analyze(m, rep, core.AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return d.Chain.Format(p)
	}
	if c1, c2 := diagnose(prog), diagnose(prog2); c1 != c2 {
		t.Errorf("chains differ after round trip:\n%q\n%q", c1, c2)
	}
}

func assertSameProgram(t *testing.T, a, b *kir.Program) {
	t.Helper()
	if a.NumInstrs() != b.NumInstrs() {
		t.Fatalf("instr count %d vs %d", a.NumInstrs(), b.NumInstrs())
	}
	for id := kir.InstrID(0); int(id) < a.NumInstrs(); id++ {
		ia := a.MustInstr(id)
		ib := b.MustInstr(id)
		if ia.String() != ib.String() || ia.Label != ib.Label || ia.Fn != ib.Fn {
			t.Fatalf("instr %d: %q(%s) vs %q(%s)", id, ia.String(), ia.Label, ib.String(), ib.Label)
		}
	}
	if len(a.Globals) != len(b.Globals) {
		t.Fatalf("globals %d vs %d", len(a.Globals), len(b.Globals))
	}
	for i := range a.Globals {
		ga, gb := a.Globals[i], b.Globals[i]
		if ga.Name != gb.Name || ga.Size != gb.Size || ga.HeapSize != gb.HeapSize {
			t.Fatalf("global %d: %+v vs %+v", i, ga, gb)
		}
	}
	if len(a.Threads) != len(b.Threads) {
		t.Fatalf("threads %d vs %d", len(a.Threads), len(b.Threads))
	}
	for i := range a.Threads {
		if a.Threads[i] != b.Threads[i] {
			t.Fatalf("thread %d: %+v vs %+v", i, a.Threads[i], b.Threads[i])
		}
	}
}

// TestRoundTripBehaviour: the reparsed program behaves identically — same
// state signature after the same schedule (property over random operand
// values).
func TestRoundTripBehaviour(t *testing.T) {
	f := func(x, y int8) bool {
		src := "global g = " + itoa(int64(x)) + "\nthread T f\nfunc f\nload r1, [g]\nadd r1, " +
			itoa(int64(y)) + "\nstore [g], r1\nret\nend\n"
		p1, err := kasm.Parse(src)
		if err != nil {
			return false
		}
		p2, err := kasm.Parse(kasm.Disassemble(p1))
		if err != nil {
			return false
		}
		m1, err := kvm.New(p1)
		if err != nil {
			return false
		}
		m2, err := kvm.New(p2)
		if err != nil {
			return false
		}
		for m1.Failure() == nil && !m1.AllDone() {
			if _, err := m1.Step(0); err != nil {
				return false
			}
			if _, err := m2.Step(0); err != nil {
				return false
			}
		}
		return m1.StateSignature() == m2.StateSignature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

// TestParseSizesBodies: Parse sizes each function's instruction slice
// once from its body, so the program it returns holds no spare capacity,
// including for a function whose body is split across two blocks.
func TestParseSizesBodies(t *testing.T) {
	srcs := map[string]string{
		"sample": sample,
		"split":  "thread T f\nfunc f\nnop\nout:\nnop\nend\nfunc f\n@X nop\nret\nend\n",
	}
	for _, sc := range scenarios.All() {
		srcs[sc.Name] = kasm.Disassemble(sc.MustProgram())
	}
	for name, src := range srcs {
		prog, err := kasm.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for fn, f := range prog.Funcs {
			if len(f.Instrs) != cap(f.Instrs) {
				t.Errorf("%s: func %s holds %d instructions in a slice of %d", name, fn, len(f.Instrs), cap(f.Instrs))
			}
		}
	}
}
