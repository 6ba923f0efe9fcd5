package mem

import (
	"testing"

	"aitia/internal/kir"
)

// fuzzGlobals is the layout FuzzSpaceOps runs on: initialized and
// address-of words, a pre-allocated heap object, and a global that spans
// several pages and crosses a chunk boundary.
var fuzzGlobals = []kir.GlobalDef{
	{Name: "a", Size: 3, Init: []int64{1, 0, 5}},
	{Name: "wide", Size: 600, Init: []int64{0, 2}},
	{Name: "p", Size: 1, AddrOf: map[int64]string{0: "a"}},
	{Name: "h", Size: 1, HeapSize: 3, Init: []int64{9, 0, 4}},
}

// FuzzSpaceOps decodes its input into a sequence of stores, loads,
// allocations, frees, snapshots and LIFO restores, runs it on a Space
// and on refSpace, the map-backed reference, and checks after every
// operation that values, faults, StateHash, StateBytes and LiveBytes
// agree.
func FuzzSpaceOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 5, 1, 5, 0}) // snapshot, store 1 to a zero word, restore
	f.Add([]byte{0, 0, 7, 1, 3, 0, 1, 0, 4, 2, 0, 5, 9, 3, 0, 5, 1, 1, 0})
	f.Add([]byte{3, 2, 250, 0, 1, 40, 1, 9, 4, 0, 1, 200, 6, 9, 5, 0, 0, 2, 0, 3, 3, 0, 5, 1, 1, 2, 5, 0})
	f.Add([]byte{2, 255, 0, 1, 0, 0, 3, 1, 1, 3, 0, 0, 2, 1, 3, 0, 1, 5, 4, 2, 2, 0, 0})
	f.Fuzz(runSpaceOps)
}

// runSpaceOps runs the operations data decodes to on a Space and on a
// refSpace and compares them after each. Each comparison hashes the
// whole state, so only the first maxOpBytes bytes are decoded: longer
// inputs would cost time quadratic in their length.
func runSpaceOps(t *testing.T, data []byte) {
	const maxOpBytes = 512
	if len(data) > maxOpBytes {
		data = data[:maxOpBytes]
	}
	s, err := NewSpace(fuzzGlobals)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSpace(fuzzGlobals)
	in := fuzzInput(data)
	var snaps []*Snapshot
	var refSnaps []refSnapshot
	for op := 0; len(in) > 0; op++ {
		switch in.next() % 6 {
		case 0: // store
			a, v := in.addr(s), int64(in.next()%4)
			if err := sameFault(s.Store(a, v), ref.Store(a, v)); err != nil {
				t.Fatalf("op %d: store %#x: %v", op, a, err)
			}
		case 1: // load
			a := in.addr(s)
			v, fault := s.Load(a)
			rv, rfault := ref.Load(a)
			if err := sameFault(fault, rfault); err != nil || v != rv {
				t.Fatalf("op %d: load %#x = %d (%v), reference %d", op, a, v, err, rv)
			}
		case 2: // alloc
			size := int64(in.next()%8) + 1
			if b := in.next(); b >= 0xf0 {
				size = int64(b) * 3 // spans pages and chunks
			}
			if base, rbase := s.Alloc(size, kir.NoInstr), ref.Alloc(size, kir.NoInstr); base != rbase {
				t.Fatalf("op %d: alloc at %#x, reference %#x", op, base, rbase)
			}
		case 3: // free: an object's base, or an address inside one
			a := in.addr(s)
			if in.next()%2 == 0 && len(s.objects) > 0 {
				a = s.objects[int(in.next())%len(s.objects)].Base
			}
			if err := sameFault(s.Free(a, kir.NoInstr), ref.Free(a, kir.NoInstr)); err != nil {
				t.Fatalf("op %d: free %#x: %v", op, a, err)
			}
		case 4:
			snaps = append(snaps, s.Snapshot())
			refSnaps = append(refSnaps, ref.Snapshot())
		case 5: // restore a live snapshot, staling every later one
			if len(snaps) == 0 {
				continue
			}
			k := int(in.next()) % len(snaps)
			s.Restore(snaps[k])
			ref.Restore(refSnaps[k])
			snaps, refSnaps = snaps[:k+1], refSnaps[:k+1]
		}
		if got, want := s.StateHash(), ref.StateHash(); got != want {
			t.Fatalf("op %d: StateHash %#x, reference %#x", op, got, want)
		}
		if got, want := s.StateBytes(), ref.StateBytes(); got != want {
			t.Fatalf("op %d: StateBytes %d, reference %d", op, got, want)
		}
		if got, want := s.LiveBytes(), ref.LiveBytes(); got != want {
			t.Fatalf("op %d: LiveBytes %d, reference %d", op, got, want)
		}
	}
}

// fuzzInput is FuzzSpaceOps' operand stream; an exhausted stream reads
// zeros.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// addr decodes an address: a global word or one just past the globals,
// a heap object's payload or redzone word, a heap gap, or a NULL-page or
// wild address.
func (in *fuzzInput) addr(s *Space) uint64 {
	sel, b := in.next(), uint64(in.next())
	switch sel % 4 {
	case 0:
		return GlobalBase + (b<<6|uint64(sel>>2))%(s.gend-GlobalBase+2)
	case 1:
		if len(s.objects) == 0 {
			return HeapBase + b
		}
		o := s.objects[int(b)%len(s.objects)]
		return o.Base - Redzone + uint64(in.next())*uint64(sel>>2+1)%(uint64(o.Size)+2*Redzone)
	case 2:
		return HeapBase + b*uint64(sel>>2+1)
	default:
		return b % (GlobalBase + 1)
	}
}
