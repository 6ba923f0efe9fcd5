package mem

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestFNVMatchesHashFNV checks FNVWord and FNVString against hash/fnv's
// FNV-1a: a word is its 8 little-endian bytes. The words cover every
// count of high zero bytes FNVWord folds into one multiply (0 through 8),
// negative values and seeded random words, each fed after a non-trivial
// prefix as well as from the offset basis.
func TestFNVMatchesHashFNV(t *testing.T) {
	words := []uint64{0, 1, 0xff, 0x100, 0xffff, 0x10000, 1 << 31, 1 << 40, 1 << 48, 1 << 56, 1 << 63, ^uint64(0)}
	for _, v := range []int64{-1, -2, -255, -256, -1 << 31, -1 << 62, -1 << 63} {
		words = append(words, uint64(v))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		// Shift random words down so every byte length is common.
		words = append(words, rng.Uint64()>>(8*rng.Intn(8)))
	}
	ref := func(prefix []byte, v uint64) uint64 {
		h := fnv.New64a()
		h.Write(prefix)
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
		return h.Sum64()
	}
	for _, prefix := range []string{"", "kworker:A2", "\x00\x00\x7f"} {
		h := fnv.New64a()
		h.Write([]byte(prefix))
		start := FNVString(FNVOffset, prefix)
		if start != h.Sum64() {
			t.Fatalf("FNVString(%q) = %#x, hash/fnv %#x", prefix, start, h.Sum64())
		}
		for _, v := range words {
			if got, want := FNVWord(start, v), ref([]byte(prefix), v); got != want {
				t.Fatalf("FNVWord after %q of %#x = %#x, hash/fnv %#x", prefix, v, got, want)
			}
		}
	}
}
