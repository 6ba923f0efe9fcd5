package kir

import (
	"fmt"
	"strconv"
	"strings"
)

// InstrID is the stable static identity of an instruction within a
// finalized Program: a dense index over all instructions of all functions.
// It plays the role of a kernel instruction address — breakpoints,
// watchpoint attribution, data races, schedules and causality chains all
// refer to instructions by InstrID.
type InstrID int32

// NoInstr is the zero-value "no instruction" sentinel.
const NoInstr InstrID = -1

// Instr is a single IR instruction.
type Instr struct {
	Op     Op
	Dst    Reg     // destination register (OpMov/arith/OpLoad/OpAlloc/OpListHas/OpRefGet/OpRefPut)
	A      Operand // first operand; address operand for memory ops
	B      Operand // second operand; value operand for OpStore/list ops/branches
	Size   int64   // allocation size in words (OpAlloc)
	Target string  // branch label (branches) or function name (OpCall/OpQueueWork/OpCallRCU)
	Label  string  // optional paper-style label, e.g. "A6"

	// Filled in by Program.Finalize:
	ID   InstrID // global static identity
	Fn   string  // enclosing function name
	Idx  int     // index within the enclosing function
	tpos int32   // resolved branch target index within Fn (branches only)
}

// String renders the instruction in assembler syntax, without its label.
func (in Instr) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	switch {
	case in.Op == OpAlloc:
		fmt.Fprintf(&b, " %s, %d", in.Dst, in.Size)
	case in.Op.IsBranch() && in.Op != OpJmp:
		fmt.Fprintf(&b, " %s, %s, %s", in.A, in.B, in.Target)
	case in.Op == OpJmp:
		fmt.Fprintf(&b, " %s", in.Target)
	case in.Op.UsesFunc():
		fmt.Fprintf(&b, " %s", in.Target)
		if !in.A.IsNone() {
			fmt.Fprintf(&b, ", %s", in.A)
		}
	default:
		hasDst := hasDstReg(in.Op)
		parts := make([]string, 0, 3)
		if hasDst {
			parts = append(parts, in.Dst.String())
		}
		if !in.A.IsNone() {
			parts = append(parts, in.A.String())
		}
		if !in.B.IsNone() {
			parts = append(parts, in.B.String())
		}
		if len(parts) > 0 {
			b.WriteString(" " + strings.Join(parts, ", "))
		}
	}
	return b.String()
}

// Name returns the best human-readable identity of the instruction: its
// paper label if set, otherwise "fn+idx".
func (in Instr) Name() string {
	if in.Label != "" {
		return in.Label
	}
	// Concatenated rather than formatted: names are built for every
	// result, and fmt's printer pool would refill after each GC.
	return in.Fn + "+" + strconv.Itoa(in.Idx)
}

// hasDstReg reports whether the opcode writes a destination register.
func hasDstReg(op Op) bool {
	switch op {
	case OpMov, OpAdd, OpSub, OpAnd, OpOr, OpXor, OpLoad, OpAlloc,
		OpListHas, OpRefGet, OpRefPut:
		return true
	}
	return false
}

// validate checks the instruction's operand shapes. It is called by
// Program.Finalize for every instruction.
func (in Instr) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%s %s: "+format, append([]any{in.Op, in.String()}, args...)...)
	}
	switch in.Op {
	case OpNop, OpRet, OpYield, OpExit:
		// no operands
	case OpMov, OpAdd, OpSub, OpAnd, OpOr, OpXor:
		if !in.A.IsValue() {
			return bad("operand A must be a value")
		}
	case OpLoad:
		if !in.A.IsAddr() {
			return bad("operand A must be an address")
		}
	case OpStore:
		if !in.A.IsAddr() {
			return bad("operand A must be an address")
		}
		if !in.B.IsValue() {
			return bad("operand B must be a value")
		}
	case OpBeq, OpBne, OpBlt, OpBge:
		if !in.A.IsValue() || !in.B.IsValue() {
			return bad("branch operands must be values")
		}
		if in.Target == "" {
			return bad("branch needs a target label")
		}
	case OpJmp:
		if in.Target == "" {
			return bad("jmp needs a target label")
		}
	case OpCall, OpQueueWork, OpCallRCU:
		if in.Target == "" {
			return bad("needs a function name")
		}
		if in.Op != OpCall && !in.A.IsNone() && !in.A.IsValue() {
			return bad("spawn argument must be a value")
		}
	case OpLock, OpUnlock, OpRefGet, OpRefPut:
		if !in.A.IsAddr() {
			return bad("operand A must be an address")
		}
	case OpAlloc:
		if in.Size <= 0 {
			return bad("allocation size must be positive")
		}
		if in.Size > MaxObjectWords {
			return bad("allocation size above %d words", MaxObjectWords)
		}
	case OpFree:
		if !in.A.IsValue() {
			return bad("operand A must be a value (object base address)")
		}
	case OpBugOn:
		if !in.A.IsValue() {
			return bad("operand A must be a value")
		}
	case OpListAdd, OpListDel, OpListHas:
		if !in.A.IsAddr() {
			return bad("operand A must be the list address")
		}
		if !in.B.IsValue() {
			return bad("operand B must be a value")
		}
	default:
		return bad("unknown opcode")
	}
	return nil
}
