package kir

import (
	"fmt"
	"strconv"
)

// Reg names a general-purpose register. Every thread has NumRegs registers;
// a thread's functions share the register file (registers model the values
// a kernel execution context carries across calls).
type Reg uint8

// NumRegs is the size of each thread's register file.
const NumRegs = 16

// Convenient register names for builders and tests.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

// String returns the assembler name of the register.
func (r Reg) String() string { return "r" + strconv.Itoa(int(r)) }

// OperandKind discriminates Operand variants.
type OperandKind uint8

const (
	// KindNone marks an unused operand slot.
	KindNone OperandKind = iota
	// KindImm is an immediate signed 64-bit value.
	KindImm
	// KindReg is a register value.
	KindReg
	// KindGlobal is the address of a global symbol plus a constant word
	// offset (for struct fields of globals).
	KindGlobal
	// KindInd is a register-indirect address: the base address held in a
	// register plus a constant word offset (for heap-object fields).
	KindInd
)

// Operand is an instruction operand. Value operands are immediates or
// registers; address operands are globals or register-indirect references.
type Operand struct {
	Kind OperandKind
	Imm  int64  // immediate value (KindImm)
	Reg  Reg    // register (KindReg, KindInd base)
	Sym  string // global symbol (KindGlobal)
	Off  int64  // word offset (KindGlobal, KindInd)

	global int32 // KindGlobal: index+1 of Sym in Program.Globals, set by Finalize
}

// Global returns the index in Program.Globals of a KindGlobal operand's
// symbol, resolved when the program was finalized; -1 before that and
// for other kinds.
func (o Operand) Global() int { return int(o.global) - 1 }

// Imm returns an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// R returns a register operand.
func R(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// G returns the address of global symbol sym.
func G(sym string) Operand { return Operand{Kind: KindGlobal, Sym: sym} }

// GOff returns the address of global symbol sym plus a word offset.
func GOff(sym string, off int64) Operand {
	return Operand{Kind: KindGlobal, Sym: sym, Off: off}
}

// Ind returns a register-indirect address: [base+off].
func Ind(base Reg, off int64) Operand {
	return Operand{Kind: KindInd, Reg: base, Off: off}
}

// IsValue reports whether the operand can be evaluated to a plain value
// (immediate or register).
func (o Operand) IsValue() bool { return o.Kind == KindImm || o.Kind == KindReg }

// IsAddr reports whether the operand denotes a memory address.
func (o Operand) IsAddr() bool { return o.Kind == KindGlobal || o.Kind == KindInd }

// IsNone reports whether the operand slot is unused.
func (o Operand) IsNone() bool { return o.Kind == KindNone }

// String renders the operand in assembler syntax.
func (o Operand) String() string {
	switch o.Kind {
	case KindNone:
		return "_"
	case KindImm:
		return strconv.FormatInt(o.Imm, 10)
	case KindReg:
		return o.Reg.String()
	case KindGlobal:
		if o.Off != 0 {
			return "[" + o.Sym + "+" + strconv.FormatInt(o.Off, 10) + "]"
		}
		return "[" + o.Sym + "]"
	case KindInd:
		if o.Off != 0 {
			return "[" + o.Reg.String() + "+" + strconv.FormatInt(o.Off, 10) + "]"
		}
		return "[" + o.Reg.String() + "]"
	default:
		return fmt.Sprintf("operand(%d)", uint8(o.Kind))
	}
}
