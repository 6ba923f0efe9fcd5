package mem

import (
	"fmt"
	"sort"

	"aitia/internal/kir"
)

// refSpace is the reference Space's page tables must agree with: the
// simplest word store, a map holding every nonzero word. A zero store
// deletes its entry, Alloc clears the new object's words one by one,
// and the undo journal records whether a word was present. It models
// words, objects, faults and the journal; lists are left out
// (FuzzSpaceOps does not use them, and with none the list terms of
// StateHash and StateBytes are empty on both sides).
type refSpace struct {
	words   map[uint64]int64
	globals map[string]uint64
	gend    uint64
	objects []*Object
	next    uint64
	journal []refUndo
	// journaling is off until the first Snapshot, as in Space.
	journaling bool
	live       uint64
}

// refUndo is one refSpace journal entry.
type refUndo struct {
	kind    undoKind
	addr    uint64 // undoWord: the word; undoFree: the object's index
	val     int64  // undoWord: the old value; undoFree: the old FreeSite
	existed bool   // undoWord: the word was present
	state   ObjState
}

// newRefSpace lays out and initializes globals as NewSpace does.
func newRefSpace(globals []kir.GlobalDef) *refSpace {
	s := &refSpace{words: make(map[uint64]int64), globals: make(map[string]uint64)}
	addr := uint64(GlobalBase)
	for _, g := range globals {
		s.globals[g.Name] = addr
		if g.HeapSize <= 0 {
			for i, v := range g.Init {
				if v != 0 {
					s.words[addr+uint64(i)] = v
				}
			}
		}
		addr += uint64(g.Size)
	}
	s.gend = addr
	s.next = heapStart(addr)
	for _, g := range globals {
		base := s.globals[g.Name]
		for off, sym := range g.AddrOf {
			s.words[base+uint64(off)] = int64(s.globals[sym])
		}
		if g.HeapSize > 0 {
			objBase := s.Alloc(g.HeapSize, kir.NoInstr)
			s.objects[len(s.objects)-1].Static = true
			for i, v := range g.Init {
				if v != 0 {
					s.words[objBase+uint64(i)] = v
				}
			}
			s.words[base] = int64(objBase)
		}
	}
	return s
}

func (s *refSpace) objectIndex(addr uint64) int {
	i := sort.Search(len(s.objects), func(i int) bool {
		o := s.objects[i]
		return o.Base+uint64(o.Size)+Redzone > addr
	})
	if i < len(s.objects) && addr >= s.objects[i].Base-Redzone {
		return i
	}
	return -1
}

func (s *refSpace) check(addr uint64, write bool) *Fault {
	switch {
	case addr < NullTop:
		return &Fault{Kind: FaultNullDeref, Addr: addr, Write: write}
	case addr >= GlobalBase && addr < s.gend:
		return nil
	case addr >= HeapBase && addr < s.next:
		i := s.objectIndex(addr)
		if i < 0 {
			return &Fault{Kind: FaultWild, Addr: addr, Write: write}
		}
		obj := s.objects[i]
		if obj.inRedzone(addr) {
			return &Fault{Kind: FaultOutOfBounds, Addr: addr, Write: write, Object: obj}
		}
		if obj.State == Freed {
			return &Fault{Kind: FaultUseAfterFree, Addr: addr, Write: write, Object: obj}
		}
		return nil
	default:
		return &Fault{Kind: FaultWild, Addr: addr, Write: write}
	}
}

func (s *refSpace) Load(addr uint64) (int64, *Fault) {
	if f := s.check(addr, false); f != nil {
		return 0, f
	}
	return s.words[addr], nil
}

func (s *refSpace) Store(addr uint64, v int64) *Fault {
	if f := s.check(addr, true); f != nil {
		return f
	}
	if s.journaling {
		old, ok := s.words[addr]
		s.journal = append(s.journal, refUndo{kind: undoWord, addr: addr, val: old, existed: ok})
		s.live += 16
	}
	if v == 0 {
		delete(s.words, addr)
	} else {
		s.words[addr] = v
	}
	return nil
}

func (s *refSpace) Alloc(size int64, site kir.InstrID) uint64 {
	base := s.next + Redzone
	s.next = base + uint64(size) + Redzone + heapGap
	s.objects = append(s.objects, &Object{Base: base, Size: size, AllocSite: site, FreeSite: kir.NoInstr})
	if s.journaling {
		s.journal = append(s.journal, refUndo{kind: undoAlloc})
		s.live += 8
	}
	for a := base; a < base+uint64(size); a++ {
		delete(s.words, a)
	}
	return base
}

func (s *refSpace) Free(base uint64, site kir.InstrID) *Fault {
	i := s.objectIndex(base)
	var obj *Object
	if i >= 0 {
		obj = s.objects[i]
	}
	if obj == nil || obj.Base != base {
		return &Fault{Kind: FaultBadFree, Addr: base, Write: true, Object: obj}
	}
	if obj.State == Freed {
		return &Fault{Kind: FaultDoubleFree, Addr: base, Write: true, Object: obj}
	}
	if s.journaling {
		s.journal = append(s.journal, refUndo{kind: undoFree, addr: uint64(i), val: int64(obj.FreeSite), state: obj.State})
		s.live += 24
	}
	obj.State = Freed
	obj.FreeSite = site
	return nil
}

// refSnapshot is a refSpace journal position plus the allocator cursor.
type refSnapshot struct {
	pos  int
	next uint64
}

func (s *refSpace) Snapshot() refSnapshot {
	s.journaling = true
	return refSnapshot{pos: len(s.journal), next: s.next}
}

func (s *refSpace) Restore(sn refSnapshot) {
	for i := len(s.journal) - 1; i >= sn.pos; i-- {
		r := s.journal[i]
		switch r.kind {
		case undoWord:
			if r.existed {
				s.words[r.addr] = r.val
			} else {
				delete(s.words, r.addr)
			}
			s.live -= 16
		case undoFree:
			obj := s.objects[r.addr]
			obj.State = r.state
			obj.FreeSite = kir.InstrID(r.val)
			s.live -= 24
		case undoAlloc:
			s.objects = s.objects[:len(s.objects)-1]
			s.live -= 8
		}
	}
	s.journal = s.journal[:sn.pos]
	s.next = sn.next
}

func (s *refSpace) StateHash() uint64 {
	var acc uint64
	for addr, v := range s.words {
		acc += FNVWord(FNVWord(fnvTagWord, addr), uint64(v))
	}
	for _, o := range s.objects {
		acc += FNVWord(FNVWord(FNVWord(fnvTagObject, o.Base), uint64(o.Size)), uint64(o.State))
	}
	return acc + FNVWord(fnvTagNext, s.next)
}

func (s *refSpace) StateBytes() uint64 { return 16*uint64(len(s.words)) + 24*uint64(len(s.objects)) }

func (s *refSpace) LiveBytes() uint64 { return s.live }

// sameFault reports whether two faults agree in kind, address,
// direction and the base of the object involved.
func sameFault(a, b *Fault) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("fault %v, reference %v", a, b)
	}
	if a == nil {
		return nil
	}
	if a.Kind != b.Kind || a.Addr != b.Addr || a.Write != b.Write || (a.Object == nil) != (b.Object == nil) ||
		(a.Object != nil && a.Object.Base != b.Object.Base) {
		return fmt.Errorf("fault %+v, reference %+v", *a, *b)
	}
	return nil
}
