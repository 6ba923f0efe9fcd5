// Package kasm implements a textual assembly format for kir programs, so
// that bug scenarios can be written, stored and diffed as plain text, plus
// the matching disassembler used in reports.
//
// Format by example:
//
//	; CVE-2017-15649, simplified
//	global po_running = 1          ; one word, initialized
//	global ring[4] = 1, 2          ; four words, partial init
//	heap   first_buf[2] = 42       ; pointer word -> pre-allocated object
//	ptr    ptr_var -> obj          ; pointer word -> address of global obj
//
//	thread setsockopt fanout_add   ; name, entry function
//	thread sender     send_frame arg=2
//
//	func fanout_add
//	@A2     load r1, [po_running]  ; @label attaches a paper-style label
//	        bne r1, 0, run         ; branch to local target
//	        ret
//	run:                           ; local branch target
//	@A5     alloc r2, 1
//	        store [po_fanout], r2
//	        queue_work worker, r2
//	end
//
// Comments run from ';' to end of line. Operands are registers (r0..r15),
// immediates (decimal or 0x hex, possibly negative), global addresses
// ([sym] or [sym+2]) and register-indirect addresses ([r1] or [r1+1]).
package kasm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"aitia/internal/kir"
)

// ParseError describes a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *ParseError) Error() string { return fmt.Sprintf("kasm: line %d: %s", e.Line, e.Msg) }

// Parse assembles source text into a finalized program. It walks the
// source line by line in place, and sizes each function's instruction
// slice once from the body's length.
func Parse(src string) (*kir.Program, error) {
	p := &parser{b: kir.NewBuilder()}
	for rest, more := src, true; more; {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		p.line++
		if err := p.parseLine(raw, rest); err != nil {
			return nil, err
		}
	}
	if p.fb != nil {
		return nil, &ParseError{Line: p.line, Msg: "unterminated func (missing 'end')"}
	}
	return p.b.Build()
}

// MustParse is Parse for statically known-good sources; it panics on error.
func MustParse(src string) *kir.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	b    *kir.Builder
	fb   *kir.FuncBuilder
	line int
	// open is the last branch target of the current func that no
	// instruction follows yet; isOpen says whether there is one.
	open   string
	isOpen bool
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// cutLine strips a raw line's comment and surrounding space and splits
// off a paper-style "@label " prefix. ok is false for a label with no
// instruction after it; line is then the label itself.
func cutLine(raw string) (label, line string, ok bool) {
	if i := strings.IndexByte(raw, ';'); i >= 0 {
		raw = raw[:i]
	}
	line = strings.TrimSpace(raw)
	if !strings.HasPrefix(line, "@") {
		return "", line, true
	}
	tag, rest, found := strings.Cut(line, " ")
	if !found {
		return "", line, false
	}
	return tag[1:], strings.TrimSpace(rest), true
}

// cutField splits a trimmed line into its first whitespace-separated
// field and the trimmed remainder.
func cutField(line string) (head, rest string) {
	i := strings.IndexFunc(line, unicode.IsSpace)
	if i < 0 {
		return line, ""
	}
	return line[:i], strings.TrimSpace(line[i:])
}

// isTarget reports whether a statement is a local branch target:
// "name:" alone on a line.
func isTarget(head, rest string) bool {
	return rest == "" && strings.HasSuffix(head, ":")
}

// bodyLen counts the instructions of the function body that starts at
// src, up to its "end" line, so the body's slice is allocated once. It
// validates nothing: a malformed line counts as an instruction and fails
// when it is parsed.
func bodyLen(src string) int {
	n := 0
	for more := true; more; {
		var raw string
		raw, src, more = strings.Cut(src, "\n")
		_, line, _ := cutLine(raw)
		if line == "" {
			continue
		}
		head, rest := cutField(line)
		if head == "end" {
			break
		}
		if !isTarget(head, rest) {
			n++
		}
	}
	return n
}

// parseLine assembles one source line; rest is the source after it.
func (p *parser) parseLine(raw, rest string) error {
	label, line, ok := cutLine(raw)
	if !ok {
		return p.errf("label %q with no instruction", line)
	}
	if line == "" {
		return nil
	}
	head, args := cutField(line)

	if p.fb == nil {
		switch head {
		case "global":
			return p.parseGlobal(line)
		case "heap":
			return p.parseHeap(line)
		case "ptr":
			return p.parsePtr(strings.Fields(line))
		case "thread":
			return p.parseThread(strings.Fields(line))
		case "func":
			name, extra := cutField(args)
			if name == "" || extra != "" {
				return p.errf("func wants exactly one name")
			}
			p.fb = p.b.Func(name)
			p.fb.Grow(bodyLen(rest))
			return nil
		default:
			return p.errf("unexpected %q outside a func", head)
		}
	}

	if head == "end" {
		p.fb = nil
		if label != "" {
			return p.errf("label on 'end'")
		}
		if p.isOpen {
			// A target past the last instruction has no source form that
			// Disassemble could print back as is.
			return p.errf("branch target %q with no instruction after it", p.open)
		}
		return nil
	}
	if isTarget(head, args) {
		p.open, p.isOpen = strings.TrimSuffix(head, ":"), true
		p.fb.At(p.open)
		if label != "" {
			return p.errf("paper label on a branch target")
		}
		return nil
	}
	ref, err := p.parseInstr(head, args)
	if err != nil {
		return err
	}
	p.isOpen = false
	if label != "" {
		ref.L(label)
	}
	return nil
}

// parseGlobal handles "global name = v" and "global name[size] = v1, v2".
func (p *parser) parseGlobal(line string) error {
	name, size, init, err := p.parseVarDecl(strings.TrimPrefix(line, "global"))
	if err != nil {
		return err
	}
	p.b.Global(name, size, init...)
	return nil
}

// parseHeap handles "heap name[size] = v1, v2".
func (p *parser) parseHeap(line string) error {
	name, size, init, err := p.parseVarDecl(strings.TrimPrefix(line, "heap"))
	if err != nil {
		return err
	}
	p.b.HeapObj(name, size, init...)
	return nil
}

func (p *parser) parseVarDecl(s string) (name string, size int64, init []int64, err error) {
	s = strings.TrimSpace(s)
	decl, vals, hasInit := strings.Cut(s, "=")
	decl = strings.TrimSpace(decl)
	size = 1
	if i := strings.IndexByte(decl, '['); i >= 0 {
		if !strings.HasSuffix(decl, "]") {
			return "", 0, nil, p.errf("malformed size in %q", decl)
		}
		size, err = strconv.ParseInt(decl[i+1:len(decl)-1], 0, 64)
		if err != nil {
			return "", 0, nil, p.errf("bad size in %q", decl)
		}
		decl = decl[:i]
	}
	if decl == "" {
		return "", 0, nil, p.errf("missing variable name")
	}
	if hasInit {
		init = make([]int64, 0, strings.Count(vals, ",")+1)
		for more := true; more; {
			var f string
			f, vals, more = strings.Cut(vals, ",")
			f = strings.TrimSpace(f)
			v, err := strconv.ParseInt(f, 0, 64)
			if err != nil {
				return "", 0, nil, p.errf("bad initializer %q", f)
			}
			init = append(init, v)
		}
	}
	return decl, size, init, nil
}

// parsePtr handles "ptr name -> sym".
func (p *parser) parsePtr(fields []string) error {
	if len(fields) != 4 || fields[2] != "->" {
		return p.errf("ptr wants: ptr <name> -> <global>")
	}
	p.b.VarAddrOf(fields[1], fields[3])
	return nil
}

// parseThread handles "thread name entry [arg=N | irq]".
func (p *parser) parseThread(fields []string) error {
	if len(fields) < 3 || len(fields) > 4 {
		return p.errf("thread wants: thread <name> <entry> [arg=N | irq]")
	}
	if len(fields) == 4 {
		if fields[3] == "irq" {
			p.b.ThreadIRQ(fields[1], fields[2])
			return nil
		}
		val, ok := strings.CutPrefix(fields[3], "arg=")
		if !ok {
			return p.errf("bad thread option %q", fields[3])
		}
		arg, err := strconv.ParseInt(val, 0, 64)
		if err != nil {
			return p.errf("bad thread arg %q", val)
		}
		p.b.ThreadArg(fields[1], fields[2], arg)
		return nil
	}
	p.b.Thread(fields[1], fields[2])
	return nil
}

// maxOperands is the most operands any instruction takes.
const maxOperands = 3

// splitOperands splits "r1, [po+2], 5" into trimmed operand tokens. The
// first maxOperands land in out; the count covers them all, so an
// instruction with too many still reports how many it got.
func splitOperands(s string, out *[maxOperands]string) int {
	if s == "" {
		return 0
	}
	n := 0
	for more := true; more; n++ {
		var tok string
		tok, s, more = strings.Cut(s, ",")
		if n < len(out) {
			out[n] = strings.TrimSpace(tok)
		}
	}
	return n
}

// parseReg parses "r4".
func parseReg(tok string) (kir.Reg, bool) {
	if len(tok) < 2 || tok[0] != 'r' {
		return 0, false
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 || n >= kir.NumRegs {
		return 0, false
	}
	return kir.Reg(n), true
}

// parseOperand parses any operand form.
func (p *parser) parseOperand(tok string) (kir.Operand, error) {
	if tok == "" {
		return kir.Operand{}, p.errf("empty operand")
	}
	if r, ok := parseReg(tok); ok {
		return kir.R(r), nil
	}
	if strings.HasPrefix(tok, "[") {
		if !strings.HasSuffix(tok, "]") {
			return kir.Operand{}, p.errf("malformed address %q", tok)
		}
		inner := tok[1 : len(tok)-1]
		base, offStr, hasOff := strings.Cut(inner, "+")
		var off int64
		if hasOff {
			var err error
			off, err = strconv.ParseInt(strings.TrimSpace(offStr), 0, 64)
			if err != nil {
				return kir.Operand{}, p.errf("bad offset in %q", tok)
			}
		}
		base = strings.TrimSpace(base)
		if r, ok := parseReg(base); ok {
			return kir.Ind(r, off), nil
		}
		return kir.GOff(base, off), nil
	}
	v, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		return kir.Operand{}, p.errf("bad operand %q", tok)
	}
	return kir.Imm(v), nil
}

// wantReg parses an operand that must be a register.
func (p *parser) wantReg(tok string) (kir.Reg, error) {
	r, ok := parseReg(tok)
	if !ok {
		return 0, p.errf("want register, got %q", tok)
	}
	return r, nil
}

// parseInstr assembles one instruction line.
func (p *parser) parseInstr(mnem, rest string) (kir.InstrRef, error) {
	var zero kir.InstrRef
	op, ok := kir.OpByName(mnem)
	if !ok {
		return zero, p.errf("unknown mnemonic %q", mnem)
	}
	var args [maxOperands]string
	argn := splitOperands(rest, &args)
	argc := func(n int) error {
		if argn != n {
			return p.errf("%s wants %d operand(s), got %d", mnem, n, argn)
		}
		return nil
	}

	switch op {
	case kir.OpNop:
		return p.fb.Nop(), argc(0)
	case kir.OpYield:
		return p.fb.Yield(), argc(0)
	case kir.OpRet:
		return p.fb.Ret(), argc(0)
	case kir.OpExit:
		return p.fb.Exit(), argc(0)

	case kir.OpMov, kir.OpAdd, kir.OpSub, kir.OpAnd, kir.OpOr, kir.OpXor:
		if err := argc(2); err != nil {
			return zero, err
		}
		dst, err := p.wantReg(args[0])
		if err != nil {
			return zero, err
		}
		a, err := p.parseOperand(args[1])
		if err != nil {
			return zero, err
		}
		switch op {
		case kir.OpMov:
			return p.fb.Mov(dst, a), nil
		case kir.OpAdd:
			return p.fb.Add(dst, a), nil
		case kir.OpSub:
			return p.fb.Sub(dst, a), nil
		case kir.OpAnd:
			return p.fb.And(dst, a), nil
		case kir.OpOr:
			return p.fb.Or(dst, a), nil
		default:
			return p.fb.Xor(dst, a), nil
		}

	case kir.OpLoad, kir.OpListHas, kir.OpRefGet, kir.OpRefPut:
		want := 2
		if op == kir.OpListHas {
			want = 3
		}
		if err := argc(want); err != nil {
			return zero, err
		}
		dst, err := p.wantReg(args[0])
		if err != nil {
			return zero, err
		}
		addr, err := p.parseOperand(args[1])
		if err != nil {
			return zero, err
		}
		switch op {
		case kir.OpLoad:
			return p.fb.Load(dst, addr), nil
		case kir.OpRefGet:
			return p.fb.RefGet(dst, addr), nil
		case kir.OpRefPut:
			return p.fb.RefPut(dst, addr), nil
		default:
			v, err := p.parseOperand(args[2])
			if err != nil {
				return zero, err
			}
			return p.fb.ListHas(dst, addr, v), nil
		}

	case kir.OpStore, kir.OpListAdd, kir.OpListDel:
		if err := argc(2); err != nil {
			return zero, err
		}
		addr, err := p.parseOperand(args[0])
		if err != nil {
			return zero, err
		}
		v, err := p.parseOperand(args[1])
		if err != nil {
			return zero, err
		}
		switch op {
		case kir.OpStore:
			return p.fb.Store(addr, v), nil
		case kir.OpListAdd:
			return p.fb.ListAdd(addr, v), nil
		default:
			return p.fb.ListDel(addr, v), nil
		}

	case kir.OpBeq, kir.OpBne, kir.OpBlt, kir.OpBge:
		if err := argc(3); err != nil {
			return zero, err
		}
		a, err := p.parseOperand(args[0])
		if err != nil {
			return zero, err
		}
		bv, err := p.parseOperand(args[1])
		if err != nil {
			return zero, err
		}
		switch op {
		case kir.OpBeq:
			return p.fb.Beq(a, bv, args[2]), nil
		case kir.OpBne:
			return p.fb.Bne(a, bv, args[2]), nil
		case kir.OpBlt:
			return p.fb.Blt(a, bv, args[2]), nil
		default:
			return p.fb.Bge(a, bv, args[2]), nil
		}

	case kir.OpJmp:
		if err := argc(1); err != nil {
			return zero, err
		}
		return p.fb.Jmp(args[0]), nil

	case kir.OpCall:
		if err := argc(1); err != nil {
			return zero, err
		}
		return p.fb.Call(args[0]), nil

	case kir.OpQueueWork, kir.OpCallRCU:
		if argn != 1 && argn != 2 {
			return zero, p.errf("%s wants 1 or 2 operands", mnem)
		}
		arg := kir.Imm(0)
		if argn == 2 {
			var err error
			arg, err = p.parseOperand(args[1])
			if err != nil {
				return zero, err
			}
		}
		if op == kir.OpQueueWork {
			return p.fb.QueueWork(args[0], arg), nil
		}
		return p.fb.CallRCU(args[0], arg), nil

	case kir.OpLock, kir.OpUnlock:
		if err := argc(1); err != nil {
			return zero, err
		}
		addr, err := p.parseOperand(args[0])
		if err != nil {
			return zero, err
		}
		if op == kir.OpLock {
			return p.fb.Lock(addr), nil
		}
		return p.fb.Unlock(addr), nil

	case kir.OpAlloc:
		if err := argc(2); err != nil {
			return zero, err
		}
		dst, err := p.wantReg(args[0])
		if err != nil {
			return zero, err
		}
		size, err := strconv.ParseInt(args[1], 0, 64)
		if err != nil {
			return zero, p.errf("bad alloc size %q", args[1])
		}
		return p.fb.Alloc(dst, size), nil

	case kir.OpFree, kir.OpBugOn:
		if err := argc(1); err != nil {
			return zero, err
		}
		v, err := p.parseOperand(args[0])
		if err != nil {
			return zero, err
		}
		if op == kir.OpFree {
			return p.fb.Free(v), nil
		}
		return p.fb.BugOn(v), nil

	default:
		return zero, p.errf("mnemonic %q not assemblable", mnem)
	}
}
