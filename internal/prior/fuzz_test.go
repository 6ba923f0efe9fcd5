package prior

import (
	"bytes"
	"testing"

	"aitia/internal/core"
)

// FuzzDecode hammers the persisted-prior parser: arbitrary input must
// either decode into a store that re-encodes to an accepted snapshot, or
// fail cleanly — never panic, and never produce a store whose statistics
// disagree with its own encoding (the invariant the durable layer relies
// on after a crash).
func FuzzDecode(f *testing.F) {
	st := NewStore(Config{})
	st.Observe("load@fn[g]:r=>store@fn[g]:w", core.VerdictRootCause)
	st.Observe("load@fn[g]:r=>store@fn[g]:w", core.VerdictBenign)
	st.Observe("load@fn2[heap+1]:r=>free@fn3[heap+0]:rw|cs", core.VerdictAmbiguous)
	f.Add(st.Encode())
	// The same store as written while the prior kept kill relations.
	f.Add([]byte(`{"magic":"aitia-prior","version":1,"observations":3,"pairs":{"load@fn2[heap+1]:r=\u003efree@fn3[heap+0]:rw|cs":{"ambiguous":1},"load@fn[g]:r=\u003estore@fn[g]:w":{"benign":1,"root_cause":1}},"kills":{"a-\u003eb":{"killed":3},"b-\u003ea":{"killed":1,"survived":2}}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic":"aitia-prior","version":1,"observations":0,"pairs":{}}`))
	f.Add([]byte(`{"magic":"aitia-prior","version":1,"observations":2,"pairs":{"x":{"benign":1},"y":{"root_cause":1}}}`))
	f.Add([]byte("garbage"))
	f.Add([]byte(`{"magic":"aitia-prior","version":1,"observations":1,"pairs":{"":{"benign":1}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data, Config{})
		if err != nil {
			return
		}
		enc := st.Encode()
		st2, err := Decode(enc, Config{})
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v\nsnapshot: %s", err, enc)
		}
		if !bytes.Equal(st2.Encode(), enc) {
			t.Fatalf("encode not a fixed point:\n first %s\nsecond %s", enc, st2.Encode())
		}
		if st2.Observations() != st.Observations() || st2.Pairs() != st.Pairs() {
			t.Fatalf("round trip changed statistics")
		}
	})
}
