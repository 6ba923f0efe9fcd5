package kir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Hash returns a stable content hash of the program: a hex-encoded
// SHA-256 over a canonical serialization of its globals, threads,
// functions, instructions and labels. Two programs that assemble to the
// same instructions hash identically — in particular the hash is
// invariant under a disassemble/re-parse round trip — while any change
// to an opcode, operand, label, global layout or thread set changes it.
//
// The hash is the cache key for diagnosis results: a crash report
// resubmitted as the same program (even re-serialized) maps to the same
// key, so a service can answer it without re-running LIFS. It also keys
// durable checkpoints and journal records, where it is recomputed on
// every job transition — so the digest of a finalized (hence immutable)
// program is computed once and cached.
func (p *Program) Hash() string {
	if !p.finalized || p.hashCache == nil {
		return p.computeHash()
	}
	p.hashCache.once.Do(func() { p.hashCache.val = p.computeHash() })
	return p.hashCache.val
}

// computeHash serializes the program into one buffer sized up front by
// hashSize and digests it in one call. Every integer is 8 bytes little
// endian and every string is length-prefixed, so adjacent fields cannot
// alias.
func (p *Program) computeHash() string {
	b := hashBuf(make([]byte, 0, p.hashSize()))

	// Globals in declared order: the order determines the address layout,
	// which races and chains refer to.
	b.putInt(len(p.Globals))
	var offs []int64
	for _, g := range p.Globals {
		b.putStr(g.Name)
		b.putInt64(g.Size)
		b.putInt64(g.HeapSize)
		b.putInt(len(g.Init))
		for _, v := range g.Init {
			b.putInt64(v)
		}
		offs = offs[:0]
		for off := range g.AddrOf {
			offs = append(offs, off)
		}
		slices.Sort(offs)
		b.putInt(len(offs))
		for _, off := range offs {
			b.putInt64(off)
			b.putStr(g.AddrOf[off])
		}
	}

	// Threads in declared order (the order is the fallback scheduling
	// order and part of the program's identity).
	b.putInt(len(p.Threads))
	for _, t := range p.Threads {
		b.putStr(t.Name)
		b.putStr(t.Entry)
		b.putInt(int(t.Kind))
		b.putInt64(t.Arg)
	}

	// Functions in name order (the order Finalize assigns identities in).
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	slices.Sort(names)
	b.putInt(len(names))
	var lnames []string
	for _, name := range names {
		f := p.Funcs[name]
		b.putStr(name)
		// Branch-target labels, sorted by name, with their positions.
		lnames = lnames[:0]
		for l := range f.labels {
			lnames = append(lnames, l)
		}
		slices.Sort(lnames)
		b.putInt(len(lnames))
		for _, l := range lnames {
			b.putStr(l)
			b.putInt(f.labels[l])
		}
		b.putInt(len(f.Instrs))
		for i := range f.Instrs {
			in := &f.Instrs[i]
			b.putInt(int(in.Op))
			b.putInt(int(in.Dst))
			b.putOperand(&in.A)
			b.putOperand(&in.B)
			b.putInt64(in.Size)
			b.putStr(in.Target)
			b.putStr(in.Label)
		}
	}

	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// hashSize returns the exact length of computeHash's serialization. The
// length does not depend on the order fields are written in, so it needs
// no sorting.
func (p *Program) hashSize() int {
	const word = 8
	n := word
	for _, g := range p.Globals {
		n += word + len(g.Name) + 4*word + len(g.Init)*word
		for _, sym := range g.AddrOf {
			n += 2*word + len(sym)
		}
	}
	n += word
	for _, t := range p.Threads {
		n += 4*word + len(t.Name) + len(t.Entry)
	}
	n += word
	for name, f := range p.Funcs {
		n += 3*word + len(name)
		for l := range f.labels {
			n += 2*word + len(l)
		}
		for i := range f.Instrs {
			in := &f.Instrs[i]
			n += 15*word + len(in.A.Sym) + len(in.B.Sym) + len(in.Target) + len(in.Label)
		}
	}
	return n
}

// hashBuf accumulates the canonical serialization Hash digests.
type hashBuf []byte

func (b *hashBuf) putInt(v int) { b.putInt64(int64(v)) }

func (b *hashBuf) putInt64(v int64) { *b = binary.LittleEndian.AppendUint64(*b, uint64(v)) }

// putStr writes s length-prefixed.
func (b *hashBuf) putStr(s string) {
	b.putInt(len(s))
	*b = append(*b, s...)
}

func (b *hashBuf) putOperand(o *Operand) {
	b.putInt(int(o.Kind))
	b.putInt64(o.Imm)
	b.putInt(int(o.Reg))
	b.putStr(o.Sym)
	b.putInt64(o.Off)
}
