// Package mem implements the simulated kernel address space used by the
// kernel VM: a word-addressed memory with named globals, a heap allocator
// with KASAN-style object tracking (redzones, quarantined freed objects,
// use-after-free / out-of-bounds / double-free detection), and linked-list
// storage for the IR's list intrinsics.
//
// Addresses are word indices, not bytes. The layout is:
//
//	[0, NullTop)          the NULL page: any access is a NULL dereference
//	[GlobalBase, ...)     globals, assigned in declaration order
//	[HeapBase, ...)       heap objects, each surrounded by redzones
//
// The heap starts past the last global when the globals reach HeapBase,
// so no heap word ever aliases a global.
//
// Freed objects are never reused (an unbounded quarantine), so a dangling
// pointer always identifies its original object — mirroring how KASAN's
// quarantine keeps use-after-free detectable.
//
// Words live in two page tables, one for the globals and one for the
// heap. A page of pageWords words is allocated on the first nonzero store
// to it, and every word on an absent page reads 0, so storage grows with
// the pages a program writes, not with the words it declares or
// allocates.
package mem

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"aitia/internal/faultinject"
	"aitia/internal/kir"
)

// Address-space layout constants (word addresses).
const (
	// NullTop bounds the NULL page; accesses below it fault as NULL
	// dereferences.
	NullTop = 0x40
	// GlobalBase is the address of the first global.
	GlobalBase = 0x100
	// HeapBase is the address of the first heap word.
	HeapBase = 0x10000
	// Redzone is the number of guard words on each side of a heap object.
	Redzone = 2
	// heapGap separates consecutive heap objects beyond their redzones.
	heapGap = 4
)

// heapStart is the first heap address of a space whose globals end at
// gend: HeapBase, or the first page boundary past the globals when they
// reach it.
func heapStart(gend uint64) uint64 {
	return max(HeapBase, (gend+pageWords-1)&^(pageWords-1))
}

// Word-storage geometry. A page holds pageWords consecutive words; a
// chunk holds the pointers to chunkPages consecutive pages. Both are
// allocated on the first nonzero store they cover.
const (
	pageShift  = 5
	pageWords  = 1 << pageShift
	chunkShift = 4
	chunkPages = 1 << chunkShift
)

type (
	page  [pageWords]int64
	chunk [chunkPages]*page
)

// pageTable stores the words of one region from base, a page boundary.
// The word at offset i from base is word i%pageWords of page
// i/pageWords, which chunk i/(pageWords*chunkPages) points to; base
// being a page boundary, i%pageWords is also the word's address modulo
// pageWords. Storage is the pages and chunks written plus one chunk
// pointer per pageWords*chunkPages words below the highest word written:
// 8 bytes per 512 words declared or allocated, where a flat array of
// words would take 4096.
type pageTable struct {
	base   uint64
	chunks []*chunk
}

// page returns the page holding the word at offset i, or nil if none was
// allocated.
func (t *pageTable) page(i uint64) *page {
	if c := i >> (pageShift + chunkShift); c < uint64(len(t.chunks)) {
		if ch := t.chunks[c]; ch != nil {
			return ch[i>>pageShift%chunkPages]
		}
	}
	return nil
}

// alloc returns the page holding the word at offset i, allocating it and
// its chunk as needed.
func (t *pageTable) alloc(i uint64) *page {
	c := i >> (pageShift + chunkShift)
	for uint64(len(t.chunks)) <= c {
		t.chunks = append(t.chunks, nil)
	}
	ch := t.chunks[c]
	if ch == nil {
		ch = new(chunk)
		t.chunks[c] = ch
	}
	p := &ch[i>>pageShift%chunkPages]
	if *p == nil {
		*p = new(page)
	}
	return *p
}

// scan calls fn for each nonzero word in [lo, hi), in address order,
// skipping absent pages.
func (t *pageTable) scan(lo, hi uint64, fn func(addr uint64, v int64)) {
	for i, end := lo-t.base, hi-t.base; i < end; {
		next := min(i|(pageWords-1)+1, end)
		if p := t.page(i); p != nil {
			for ; i < next; i++ {
				if v := p[i%pageWords]; v != 0 {
					fn(t.base+i, v)
				}
			}
		}
		i = next
	}
}

// end returns the address past the table's last possibly nonzero word.
func (t *pageTable) end() uint64 {
	return t.base + uint64(len(t.chunks))<<(pageShift+chunkShift)
}

// hash sums StateHash's word-tuple hashes over the table's nonzero
// words.
func (t *pageTable) hash() uint64 {
	var acc uint64
	for c, ch := range t.chunks {
		if ch == nil {
			continue
		}
		for j, p := range ch {
			if p == nil {
				continue
			}
			addr := t.base + (uint64(c)*chunkPages+uint64(j))*pageWords
			for k, v := range p {
				if v != 0 {
					acc += FNVWord(FNVWord(fnvTagWord, addr+uint64(k)), uint64(v))
				}
			}
		}
	}
	return acc
}

// FaultKind classifies invalid memory operations.
type FaultKind uint8

const (
	// FaultNone means no fault.
	FaultNone FaultKind = iota
	// FaultNullDeref is an access inside the NULL page.
	FaultNullDeref
	// FaultUseAfterFree is an access to a freed heap object.
	FaultUseAfterFree
	// FaultOutOfBounds is an access to a heap redzone.
	FaultOutOfBounds
	// FaultWild is an access to unmapped memory (a general protection
	// fault in the crash report).
	FaultWild
	// FaultDoubleFree is a free of an already-freed object.
	FaultDoubleFree
	// FaultBadFree is a free of a non-object address.
	FaultBadFree
)

// String returns the KASAN-flavoured name of the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultNullDeref:
		return "null-ptr-deref"
	case FaultUseAfterFree:
		return "use-after-free"
	case FaultOutOfBounds:
		return "slab-out-of-bounds"
	case FaultWild:
		return "general protection fault"
	case FaultDoubleFree:
		return "double-free"
	case FaultBadFree:
		return "invalid-free"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// Fault describes an invalid memory operation.
type Fault struct {
	Kind  FaultKind
	Addr  uint64
	Write bool
	// Object is the heap object involved, when the fault concerns one.
	Object *Object
}

// Error implements the error interface.
func (f *Fault) Error() string {
	rw := "read"
	if f.Write {
		rw = "write"
	}
	return fmt.Sprintf("%s: %s at %#x", f.Kind, rw, f.Addr)
}

// ObjState is the lifecycle state of a heap object.
type ObjState uint8

const (
	// Allocated objects are live.
	Allocated ObjState = iota
	// Freed objects are in quarantine; any access is a use-after-free.
	Freed
)

// Object is a heap allocation. AllocSite and FreeSite record the static
// instructions that allocated and freed it, for crash reports.
type Object struct {
	Base      uint64
	Size      int64
	State     ObjState
	AllocSite kir.InstrID
	FreeSite  kir.InstrID
	// Static objects were pre-allocated at space creation (kir heap
	// globals) and are excluded from leak checking.
	Static bool
}

// Contains reports whether addr is inside the object's payload.
func (o *Object) Contains(addr uint64) bool {
	return addr >= o.Base && addr < o.Base+uint64(o.Size)
}

// inRedzone reports whether addr falls in the object's guard words.
func (o *Object) inRedzone(addr uint64) bool {
	return (addr >= o.Base-Redzone && addr < o.Base) ||
		(addr >= o.Base+uint64(o.Size) && addr < o.Base+uint64(o.Size)+Redzone)
}

// Space is a simulated kernel address space.
type Space struct {
	gwords  pageTable // the globals' words, from GlobalBase
	hwords  pageTable // the heap's words, from heapStart(gend)
	nonzero uint64    // number of nonzero words, for StateBytes
	lists   map[uint64][]int64
	globals map[string]uint64
	gnames  []string // declaration order, for deterministic iteration
	gend    uint64
	objects []*Object  // sorted by Base
	slab    [][]Object // storage of objects, by index (objectSlot)
	next    uint64
	fault   *faultinject.Plan // armed by SetFaultPlan; nil = no injection

	// Copy-on-write checkpointing state: an undo journal of mutations since
	// the oldest live snapshot. Snapshot marks a journal position (O(1));
	// Restore reverse-replays the entries above the mark (O(mutations since
	// the snapshot)). Journaling is off until the first Snapshot call, so
	// enforcement-only spaces pay nothing on the Store/Alloc hot path.
	// Neither the journal nor its list arena holds a pointer, so the
	// garbage collector never scans them, and once they have grown a
	// snapshot/mutate/restore cycle allocates nothing.
	journal    []undoRec
	listArena  []int64 // saved list contents, in journal order
	seq        uint64  // id of the most recently appended entry
	journaling bool
	epoch      uint64            // bumped on Snapshot and Restore
	listSaved  map[uint64]uint64 // list addr -> epoch of its last saved copy
	copied     uint64            // approximate bytes journaled (CoW metric)
	live       uint64            // approximate bytes currently held by the journal
	restored   uint64            // approximate bytes written back by restores
}

// undoKind tags one journal entry.
type undoKind uint8

const (
	undoWord  undoKind = iota // a word overwritten by Store
	undoList                  // a list mutated by ListAdd/ListDel
	undoFree                  // an object freed by Free
	undoAlloc                 // an object appended by Alloc
)

// undoRec is one reverse-replayable mutation record: 32 bytes, no
// pointers. What val and arg hold depends on kind:
//
//	undoWord   addr = the word, val = its old value (0 for a word
//	           never written)
//	undoList   addr = the list, val = its old contents' offset in
//	           Space.listArena, arg = their length
//	undoFree   addr = the object's index in Space.objects, val = its
//	           previous FreeSite, state = its previous state
//	undoAlloc  nothing: undo pops the last object
type undoRec struct {
	seq     uint64
	addr    uint64
	val     int64
	arg     int32
	kind    undoKind
	existed bool // undoList: the list key was present before the mutation
	state   ObjState
}

// append adds one journal entry, stamping it with the next sequence id.
func (s *Space) append(r undoRec) {
	s.seq++
	r.seq = s.seq
	s.journal = append(s.journal, r)
}

// table returns the page table holding addr, an address check accepts.
func (s *Space) table(addr uint64) *pageTable {
	if addr < s.hwords.base {
		return &s.gwords
	}
	return &s.hwords
}

// word reads the word at addr, an address check accepts.
func (s *Space) word(addr uint64) int64 {
	t := s.table(addr)
	if p := t.page(addr - t.base); p != nil {
		return p[addr%pageWords]
	}
	return 0
}

// setWord writes v to the word at addr, an address check accepts, and
// returns the word's old value. A zero store to an absent page allocates
// nothing.
func (s *Space) setWord(addr uint64, v int64) int64 {
	t := s.table(addr)
	i := addr - t.base
	p := t.page(i)
	if p == nil {
		if v == 0 {
			return 0
		}
		p = t.alloc(i)
	}
	w := &p[addr%pageWords]
	old := *w
	*w = v
	if old == 0 && v != 0 {
		s.nonzero++
	} else if old != 0 && v == 0 {
		s.nonzero--
	}
	return old
}

// saveList journals the list at addr, at most once per snapshot epoch,
// before ListAdd/ListDel mutates it: its contents are copied onto the
// list arena. The record must preserve exact map presence: FoldState
// distinguishes an absent list from an empty one.
func (s *Space) saveList(addr uint64) {
	if !s.journaling || s.listSaved[addr] == s.epoch {
		return
	}
	s.listSaved[addr] = s.epoch
	l, ok := s.lists[addr]
	off := len(s.listArena)
	s.listArena = append(s.listArena, l...)
	s.append(undoRec{kind: undoList, addr: addr, val: int64(off), arg: int32(len(l)), existed: ok})
	s.copied += 16 + 8*uint64(len(l))
	s.live += 16 + 8*uint64(len(l))
}

// NewSpace builds an address space with the given globals laid out from
// GlobalBase in declaration order and initialized per their Init values.
func NewSpace(globals []kir.GlobalDef) (*Space, error) {
	s := &Space{
		gwords:  pageTable{base: GlobalBase},
		lists:   make(map[uint64][]int64),
		globals: make(map[string]uint64, len(globals)),
	}
	addr := uint64(GlobalBase)
	for _, g := range globals {
		if _, dup := s.globals[g.Name]; dup {
			return nil, fmt.Errorf("mem: duplicate global %q", g.Name)
		}
		s.globals[g.Name] = addr
		s.gnames = append(s.gnames, g.Name)
		addr += uint64(g.Size)
	}
	s.gend = addr
	s.next = heapStart(s.gend)
	s.hwords.base = s.next
	// Second pass: initial values, address-of initializers (every global
	// now has a base) and pre-allocated heap objects.
	for _, g := range globals {
		base := s.globals[g.Name]
		if g.HeapSize <= 0 { // heap globals' Init fills the object instead
			for i, v := range g.Init {
				s.setWord(base+uint64(i), v)
			}
		}
		for off, sym := range g.AddrOf {
			target, ok := s.globals[sym]
			if !ok {
				return nil, fmt.Errorf("mem: global %q AddrOf unknown symbol %q", g.Name, sym)
			}
			s.setWord(base+uint64(off), int64(target))
		}
		if g.HeapSize > 0 {
			objBase := s.Alloc(g.HeapSize, kir.NoInstr)
			s.objects[len(s.objects)-1].Static = true
			for i, v := range g.Init {
				s.setWord(objBase+uint64(i), v)
			}
			s.setWord(base, int64(objBase))
		}
	}
	return s, nil
}

// GlobalAddr resolves a global symbol to its base address.
func (s *Space) GlobalAddr(sym string) (uint64, bool) {
	a, ok := s.globals[sym]
	return a, ok
}

// SymbolAt returns the name of the global containing addr, with its word
// offset, for human-readable reports. ok is false for non-global addresses.
func (s *Space) SymbolAt(addr uint64) (sym string, off uint64, ok bool) {
	if addr < GlobalBase || addr >= s.gend {
		return "", 0, false
	}
	// Globals are laid out in declaration order; find the last one at or
	// below addr.
	best := ""
	var base uint64
	for _, name := range s.gnames {
		a := s.globals[name]
		if a <= addr && a >= base {
			best, base = name, a
		}
	}
	return best, addr - base, best != ""
}

// check classifies an access to addr without performing it.
// A global access, the common case, is decided inline.
func (s *Space) check(addr uint64, write bool) *Fault {
	if addr-GlobalBase < s.gend-GlobalBase {
		return nil
	}
	return s.checkOther(addr, write)
}

// checkOther is check for an address outside the globals.
func (s *Space) checkOther(addr uint64, write bool) *Fault {
	switch {
	case addr < NullTop:
		return &Fault{Kind: FaultNullDeref, Addr: addr, Write: write}
	case addr >= HeapBase && addr < s.next:
		obj := s.objectCovering(addr)
		if obj == nil {
			return &Fault{Kind: FaultWild, Addr: addr, Write: write}
		}
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

// objectCovering finds the heap object whose payload-plus-redzone region
// covers addr.
func (s *Space) objectCovering(addr uint64) *Object {
	if i := s.objectIndex(addr); i >= 0 {
		return s.objects[i]
	}
	return nil
}

// objectIndex returns the index in objects of the heap object whose
// payload-plus-redzone region covers addr, or -1.
func (s *Space) objectIndex(addr uint64) int {
	i := sort.Search(len(s.objects), func(i int) bool {
		o := s.objects[i]
		return o.Base+uint64(o.Size)+Redzone > addr
	})
	if i < len(s.objects) && addr >= s.objects[i].Base-Redzone {
		return i
	}
	return -1
}

// objectSlot returns the storage of the object at index i of objects.
// Objects live in chunks of 4, 8, 16, ... that never move, so an
// object's identity is stable; objects only grows and shrinks at its
// end, so index i always maps to the same slot, and the slot of an
// Alloc that Restore popped is reused by the next Alloc.
func (s *Space) objectSlot(i int) *Object {
	c := bits.Len(uint(i+4)) - 3
	for len(s.slab) <= c {
		s.slab = append(s.slab, make([]Object, 4<<len(s.slab)))
	}
	return &s.slab[c][i+4-4<<c]
}

// Load reads the word at addr.
func (s *Space) Load(addr uint64) (int64, *Fault) {
	if f := s.check(addr, false); f != nil {
		return 0, f
	}
	return s.word(addr), nil
}

// Store writes the word at addr.
func (s *Space) Store(addr uint64, v int64) *Fault {
	if f := s.check(addr, true); f != nil {
		return f
	}
	old := s.setWord(addr, v)
	if s.journaling {
		s.append(undoRec{kind: undoWord, addr: addr, val: old})
		s.copied += 16
		s.live += 16
	}
	return nil
}

// Alloc creates a heap object of size words and returns its base address.
// The payload reads zero without being cleared: addresses are never
// reused, and a Restore that moves the allocator back below an address
// rewinds every store to it (each was journaled), so no word at or above
// the allocator cursor is ever nonzero.
func (s *Space) Alloc(size int64, site kir.InstrID) uint64 {
	base := s.next + Redzone
	s.next = base + uint64(size) + Redzone + heapGap
	obj := s.objectSlot(len(s.objects))
	*obj = Object{Base: base, Size: size, State: Allocated, AllocSite: site, FreeSite: kir.NoInstr}
	s.objects = append(s.objects, obj) // bases are monotone, stays sorted
	if s.journaling {
		// Undo pops the object; next is restored from the snapshot scalar.
		s.append(undoRec{kind: undoAlloc})
		s.copied += 8
		s.live += 8
	}
	return base
}

// Free releases the object with the given base address.
func (s *Space) Free(base uint64, site kir.InstrID) *Fault {
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
		s.append(undoRec{kind: undoFree, addr: uint64(i), val: int64(obj.FreeSite), state: obj.State})
		s.copied += 24
		s.live += 24
	}
	obj.State = Freed
	obj.FreeSite = site
	return nil
}

// ObjectAt returns the heap object covering addr, if any.
func (s *Space) ObjectAt(addr uint64) *Object { return s.objectCovering(addr) }

// LiveAllocSite reports whether any currently allocated, leak-checkable
// (non-static) heap object was allocated at the given site. Report-guided
// search uses it to decide whether a memory leak attributed to that site
// is still possible.
func (s *Space) LiveAllocSite(site kir.InstrID) bool {
	for _, o := range s.objects {
		if o.State == Allocated && !o.Static && o.AllocSite == site {
			return true
		}
	}
	return false
}

// ListAdd appends v to the list at addr (one shared-memory write).
func (s *Space) ListAdd(addr uint64, v int64) *Fault {
	if f := s.check(addr, true); f != nil {
		return f
	}
	s.saveList(addr)
	s.lists[addr] = append(s.lists[addr], v)
	return nil
}

// ListDel removes the first occurrence of v from the list at addr (one
// shared-memory write). Removing an absent value is a no-op, matching
// list_del-style helpers guarded by emptiness checks.
func (s *Space) ListDel(addr uint64, v int64) *Fault {
	if f := s.check(addr, true); f != nil {
		return f
	}
	l := s.lists[addr]
	for i, x := range l {
		if x == v {
			// A live list shares its array with nothing (the journal
			// copies), so it is cut in place.
			s.saveList(addr)
			s.lists[addr] = append(l[:i], l[i+1:]...)
			return nil
		}
	}
	return nil
}

// ListHas reports whether v is in the list at addr (one shared-memory
// read).
func (s *Space) ListHas(addr uint64, v int64) (bool, *Fault) {
	if f := s.check(addr, false); f != nil {
		return false, f
	}
	for _, x := range s.lists[addr] {
		if x == v {
			return true, nil
		}
	}
	return false, nil
}

// ListLen returns the length of the list at addr (no access check; used by
// tests and reports).
func (s *Space) ListLen(addr uint64) int { return len(s.lists[addr]) }

// Leaked returns the heap objects that are still allocated but no longer
// reachable — the kmemleak model. Reachability roots are the global words
// and list contents; any word inside a reachable allocated object that
// holds another object's base address keeps that object alive
// transitively. Pre-allocated (static) objects are never reported.
func (s *Space) Leaked() []*Object {
	reachable := make(map[uint64]bool)
	var mark func(v int64)
	mark = func(v int64) {
		if v <= 0 {
			return
		}
		obj := s.objectCovering(uint64(v))
		if obj == nil || obj.Base != uint64(v) || reachable[obj.Base] {
			return
		}
		reachable[obj.Base] = true
		if obj.State != Allocated {
			return
		}
		s.hwords.scan(obj.Base, obj.Base+uint64(obj.Size), func(_ uint64, w int64) { mark(w) })
	}
	s.gwords.scan(GlobalBase, s.gend, func(_ uint64, w int64) { mark(w) })
	for _, l := range s.lists {
		for _, v := range l {
			mark(v)
		}
	}
	var out []*Object
	for _, o := range s.objects {
		if o.State == Allocated && !o.Static && !reachable[o.Base] {
			out = append(out, o)
		}
	}
	return out
}

// FoldState feeds the space's mutable state to fold as numeric tuples, one
// call per logical entry, in unspecified order. Callers combine the tuples
// order-independently to build state signatures; StateHash is the
// allocation-free fold of the same tuples.
func (s *Space) FoldState(fold func(parts ...uint64)) {
	word := func(addr uint64, v int64) { fold(0x77, addr, uint64(v)) }
	s.gwords.scan(s.gwords.base, s.gwords.end(), word)
	s.hwords.scan(s.hwords.base, s.hwords.end(), word)
	for addr, l := range s.lists {
		for i, v := range l {
			fold(0x11, addr, uint64(i), uint64(v))
		}
		fold(0x12, addr, uint64(len(l)))
	}
	for _, o := range s.objects {
		fold(0x0b, o.Base, uint64(o.Size), uint64(o.State))
	}
	fold(0xa1, s.next)
}

// FNVOffset is the 64-bit FNV-1a offset basis: the hash of no bytes.
const FNVOffset uint64 = 14695981039346656037

const fnvPrime uint64 = 1099511628211

// fnvPow[k] is fnvPrime to the k-th power (mod 2^64): FNV-1a's step
// over k zero bytes, whose xor changes nothing.
var fnvPow = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime
	}
	return pow
}()

// FNVWord feeds v to the 64-bit FNV-1a hash h as 8 little-endian bytes.
// The bytes above v's highest set bit are zero, so they fold into one
// multiply; the result is bit for bit the byte-wise hash.
func FNVWord(h, v uint64) uint64 {
	n := (bits.Len64(v) + 7) >> 3
	for i := 0; i < n; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h * fnvPow[8-n]
}

// FNVString feeds the bytes of str to the 64-bit FNV-1a hash h.
func FNVString(h uint64, str string) uint64 {
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= fnvPrime
	}
	return h
}

// The hashes of StateHash's tuple tags, the constant first part of
// every tuple.
var (
	fnvTagWord     = FNVWord(FNVOffset, 0x77)
	fnvTagListItem = FNVWord(FNVOffset, 0x11)
	fnvTagListLen  = FNVWord(FNVOffset, 0x12)
	fnvTagObject   = FNVWord(FNVOffset, 0x0b)
	fnvTagNext     = FNVWord(FNVOffset, 0xa1)
)

// StateHash folds the tuples FoldState enumerates into one
// order-independent value, without allocating: each tuple is hashed on
// its own as FNV-1a over its parts (FNVWord each), and the tuple hashes
// are summed.
func (s *Space) StateHash() uint64 {
	acc := s.gwords.hash() + s.hwords.hash()
	for addr, l := range s.lists {
		item := FNVWord(fnvTagListItem, addr)
		for i, v := range l {
			acc += FNVWord(FNVWord(item, uint64(i)), uint64(v))
		}
		acc += FNVWord(FNVWord(fnvTagListLen, addr), uint64(len(l)))
	}
	for _, o := range s.objects {
		acc += FNVWord(FNVWord(FNVWord(fnvTagObject, o.Base), uint64(o.Size)), uint64(o.State))
	}
	return acc + FNVWord(fnvTagNext, s.next)
}

// Snapshot is a copy-on-write checkpoint: a position in the space's undo
// journal plus the allocator cursor. Taking one is O(1); restoring one
// costs O(mutations performed since it was taken).
//
// Snapshots form a stack. Restores must be LIFO-ordered: restoring a
// snapshot invalidates every snapshot taken after it, and an outer
// snapshot stays valid across any number of inner snapshot/restore
// cycles — exactly the DFS discipline of the LIFS searcher. Restoring to
// a stale snapshot panics.
type Snapshot struct {
	pos  int    // journal length when taken
	seq  uint64 // sequence id of the last journal entry when taken
	next uint64
}

// ReserveJournal makes room in the undo journal for n word records, so
// a journal that stays below n never regrows.
func (s *Space) ReserveJournal(n int) { s.journal = slices.Grow(s.journal, n) }

// Snapshot captures the current state for later Restore and enables
// mutation journaling (the first call flips the space into CoW mode).
// It inlines, so a snapshot that does not outlive its caller's frame
// is not allocated.
func (s *Space) Snapshot() *Snapshot {
	sn := s.mark()
	return &sn
}

// mark is Snapshot's value.
func (s *Space) mark() Snapshot {
	s.journaling = true
	if s.listSaved == nil {
		s.listSaved = make(map[uint64]uint64)
	}
	s.epoch++
	// The staleness check matches against the last live entry's id, not the
	// monotonic counter (which outruns the journal after a restore).
	var last uint64
	if len(s.journal) > 0 {
		last = s.journal[len(s.journal)-1].seq
	}
	return Snapshot{pos: len(s.journal), seq: last, next: s.next}
}

// Restore rewinds the space to a snapshot (the VM-revert operation the
// AITIA hypervisor performs between runs) by reverse-replaying the undo
// journal. The snapshot remains usable for further LIFO restores.
func (s *Space) Restore(sn *Snapshot) {
	if sn.pos > len(s.journal) || (sn.pos > 0 && s.journal[sn.pos-1].seq != sn.seq) {
		panic("mem: restore of a stale snapshot (restores must be LIFO-ordered)")
	}
	live := s.live
	for i := len(s.journal) - 1; i >= sn.pos; i-- {
		r := &s.journal[i]
		switch r.kind {
		case undoWord:
			s.setWord(r.addr, r.val)
			s.live -= 16
		case undoList:
			saved := s.listArena[r.val : r.val+int64(r.arg)]
			if r.existed {
				// Copied into the live list's own array: the arena
				// region is reused by the next saves.
				s.lists[r.addr] = append(s.lists[r.addr][:0], saved...)
			} else {
				delete(s.lists, r.addr)
			}
			s.listArena = s.listArena[:r.val]
			s.live -= 16 + 8*uint64(r.arg)
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
	s.restored += live - s.live // the rewound entries are the bytes written back
	s.journal = s.journal[:sn.pos]
	s.next = sn.next
	s.epoch++
}

// CopiedBytes returns the approximate number of bytes the undo journal has
// copied since the space was created — the total CoW cost, for metrics.
func (s *Space) CopiedBytes() uint64 { return s.copied }

// RestoredBytes returns the approximate number of bytes restores have
// written back since the space was created: the journal entries Restore
// rewinds, at the sizes CopiedBytes charged for them.
func (s *Space) RestoredBytes() uint64 { return s.restored }

// LiveBytes returns the approximate number of bytes currently held by the
// undo journal — the memory a snapshot of the present state would pin
// relative to the oldest live snapshot. Restores shrink it.
func (s *Space) LiveBytes() uint64 { return s.live }

// StateBytes returns the approximate number of bytes of the space's
// whole mutable state, at the sizes the undo journal charges for a saved
// word, a saved list and a freed object: what restoring the present
// state by a full copy would write back, in RestoredBytes' units.
func (s *Space) StateBytes() uint64 {
	n := 16*s.nonzero + 24*uint64(len(s.objects))
	for _, l := range s.lists {
		n += 16 + 8*uint64(len(l))
	}
	return n
}
