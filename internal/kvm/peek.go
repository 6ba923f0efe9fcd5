package kvm

import (
	"aitia/internal/kir"
	"aitia/internal/mem"
)

// PeekAccesses returns the shared-memory accesses the thread's next
// instruction would perform, resolved against the thread's current register
// values, without executing anything. LIFS uses this to decide whether the
// next instruction is a scheduling decision point (a potentially
// conflicting access). The result is backed by a buffer the machine owns
// and is overwritten by the next PeekAccesses call.
func (m *Machine) PeekAccesses(tid ThreadID) []Access {
	in, ok := m.NextInstr(tid)
	if !ok || !in.Op.AccessesMemory() {
		return nil
	}
	t := m.Thread(tid)
	out := m.peekAcc[:0]
	switch in.Op {
	case kir.OpLoad, kir.OpListHas:
		out = append(out, Access{Addr: m.addr(t, &in.A)})
	case kir.OpStore, kir.OpListAdd, kir.OpListDel, kir.OpRefGet, kir.OpRefPut:
		out = append(out, Access{Addr: m.addr(t, &in.A), Write: true})
	case kir.OpFree:
		base := uint64(value(t, &in.A))
		if base == 0 {
			return nil
		}
		if obj := m.space.ObjectAt(base); obj != nil && obj.Base == base {
			for a := obj.Base; a < obj.Base+uint64(obj.Size); a++ {
				out = append(out, Access{Addr: a, Write: true})
			}
		} else {
			out = append(out, Access{Addr: base, Write: true})
		}
	default:
		return nil
	}
	m.peekAcc = out
	return out
}

// fnvTagLockOwner is the hash of a lock-owner tuple's tag, its constant
// first part.
var fnvTagLockOwner = mem.FNVWord(mem.FNVOffset, 0x10c4)

// StateSignature returns a hash of the complete machine state: thread
// positions, registers, lock ownership, memory words, lists and heap
// object states. Two machines with equal signatures are (modulo hash
// collisions) in identical states and have identical futures under
// identical scheduling — the equivalence LIFS uses to prune redundant
// interleavings (the paper's DPOR-style "skip equivalent instruction
// sequences").
//
// The signature is FNV-1a over the threads, in order, followed by the
// order-independent sum of the entry hashes of the space's state and the
// lock owners (mem.Space.StateHash). It allocates nothing: LIFS takes one
// at every prune check.
func (m *Machine) StateSignature() uint64 {
	h := mem.FNVOffset
	for _, t := range m.threads {
		h = mem.FNVString(h, t.Name)
		h = mem.FNVWord(h, uint64(t.State))
		h = mem.FNVWord(h, t.WaitLock)
		for _, r := range t.Regs {
			h = mem.FNVWord(h, uint64(r))
		}
		for _, l := range t.Locks {
			h = mem.FNVWord(h, l)
		}
		for _, fr := range t.frames {
			h = mem.FNVString(h, fr.fn.Name)
			h = mem.FNVWord(h, uint64(fr.pc))
		}
		h = mem.FNVWord(h, 0xfeed) // frame separator
	}
	acc := m.space.StateHash()
	for addr, owner := range m.lockOwner {
		acc += mem.FNVWord(mem.FNVWord(fnvTagLockOwner, addr), uint64(owner))
	}
	return mem.FNVWord(h, acc)
}
