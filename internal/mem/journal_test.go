package mem

import (
	"reflect"
	"testing"

	"aitia/internal/kir"
)

// pointerFree reports whether values of type t hold no pointer the
// garbage collector would scan.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return true
	default:
		return false
	}
}

// TestJournalIsPointerFree: a journal record is at most 32 bytes and,
// like the list arena, holds no pointer, so the journal a store appends
// to is never scanned by the garbage collector.
func TestJournalIsPointerFree(t *testing.T) {
	rec := reflect.TypeOf(undoRec{})
	if !pointerFree(rec) || !pointerFree(reflect.TypeOf(Space{}.listArena).Elem()) {
		t.Errorf("the journal holds pointers")
	}
	if rec.Size() > 32 {
		t.Errorf("sizeof(undoRec) = %d, want at most 32", rec.Size())
	}
	if pointerFree(reflect.TypeOf(Fault{})) {
		t.Error("pointerFree misses the pointer of Fault")
	}
}

// TestSnapshotRestoreAllocatesNothing: once the journal has grown, a
// Snapshot, stores, list adds and deletes on a list that exists at the
// snapshot, an allocation and a free, and the Restore that undoes them
// allocate nothing, and the Restore lands on the snapshot's state.
func TestSnapshotRestoreAllocatesNothing(t *testing.T) {
	s := newSpace(t)
	a, _ := s.GlobalAddr("a")
	b, _ := s.GlobalAddr("b")
	if f := s.ListAdd(b, 1); f != nil {
		t.Fatal(f)
	}
	want := s.StateHash()
	allocs := testing.AllocsPerRun(100, func() {
		sn := s.Snapshot()
		s.Store(a, 3)
		s.Store(b+1, 0)
		s.ListAdd(b, 5)
		s.ListAdd(b, 6)
		s.ListDel(b, 1)
		obj := s.Alloc(2, kir.NoInstr)
		s.Store(obj, 4)
		if f := s.Free(obj, kir.NoInstr); f != nil {
			t.Fatal(f)
		}
		s.Restore(sn)
	})
	if allocs != 0 {
		t.Errorf("Snapshot, mutations and Restore: %.2f allocations per cycle, want 0", allocs)
	}
	if got := s.StateHash(); got != want {
		t.Errorf("state hash after the cycles %#x, want %#x", got, want)
	}
	if s.ListLen(b) != 1 {
		t.Errorf("list holds %d values after the cycles, want 1", s.ListLen(b))
	}
}
