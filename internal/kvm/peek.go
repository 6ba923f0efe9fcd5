package kvm

import (
	"hash/fnv"

	"aitia/internal/kir"
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
		out = append(out, Access{Addr: m.addr(t, in.A)})
	case kir.OpStore, kir.OpListAdd, kir.OpListDel, kir.OpRefGet, kir.OpRefPut:
		out = append(out, Access{Addr: m.addr(t, in.A), Write: true})
	case kir.OpFree:
		base := uint64(value(t, in.A))
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

// StateSignature returns a hash of the complete machine state: thread
// positions, registers, lock ownership, memory words, lists and heap
// object states. Two machines with equal signatures are (modulo hash
// collisions) in identical states and have identical futures under
// identical scheduling — the equivalence LIFS uses to prune redundant
// interleavings (the paper's DPOR-style "skip equivalent instruction
// sequences").
func (m *Machine) StateSignature() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		buf[4] = byte(v >> 32)
		buf[5] = byte(v >> 40)
		buf[6] = byte(v >> 48)
		buf[7] = byte(v >> 56)
		h.Write(buf[:])
	}

	for _, t := range m.threads {
		h.Write([]byte(t.Name))
		word(uint64(t.State))
		word(t.WaitLock)
		for _, r := range t.Regs {
			word(uint64(r))
		}
		for _, l := range t.Locks {
			word(l)
		}
		for _, fr := range t.frames {
			h.Write([]byte(fr.fn.Name))
			word(uint64(fr.pc))
		}
		word(0xfeed) // frame separator
	}

	// Maps are folded order-independently: each entry is hashed on its own
	// and the entry hashes are summed.
	var acc uint64
	entry := func(parts ...uint64) {
		eh := fnv.New64a()
		for _, p := range parts {
			var b [8]byte
			b[0] = byte(p)
			b[1] = byte(p >> 8)
			b[2] = byte(p >> 16)
			b[3] = byte(p >> 24)
			b[4] = byte(p >> 32)
			b[5] = byte(p >> 40)
			b[6] = byte(p >> 48)
			b[7] = byte(p >> 56)
			eh.Write(b[:])
		}
		acc += eh.Sum64()
	}
	m.space.FoldState(func(parts ...uint64) { entry(parts...) })
	for addr, owner := range m.lockOwner {
		entry(0x10c4, addr, uint64(owner))
	}
	word(acc)
	return h.Sum64()
}
