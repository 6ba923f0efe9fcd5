package kasm_test

import (
	"testing"

	"aitia/internal/kasm"
	"aitia/internal/kvm"
)

// fuzzSteps bounds the serial run of each parsed program: a spin loop
// runs forever otherwise.
const fuzzSteps = 2000

// FuzzParse: any source text either fails to parse with an error, or
// parses into a program that a machine runs without panicking and that
// survives a disassemble/parse round trip with its hash. Seeds are the
// small committed snippets of this package's tests, never the multi-KB
// corpus files, which slow the fuzzer to a crawl.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add(trailingLabel)
	f.Add("global g = 0\nthread T f\nfunc f\nload r1, [g]\nadd r1, 1\nstore [g], r1\nret\nend\n")
	f.Add("heap o[2] = 1\nptr p -> o\nthread T f arg=1\nthread I g irq\nfunc f\n@F1 lock [p]\nloop:\nyield\nbne r0, 0, loop\nunlock [p]\nend\nfunc g\nqueue_work f, 3\nexit\nend\n")
	for _, tc := range parseErrorCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := kasm.Parse(src)
		if err != nil {
			return
		}
		m, err := kvm.New(prog)
		if err != nil {
			t.Fatalf("kvm.New on a parsed program: %v", err)
		}
		for i := 0; i < fuzzSteps && m.Failure() == nil; i++ {
			tid := m.FirstRunnable()
			if tid == kvm.NoThread {
				break
			}
			if _, err := m.Step(tid); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		out := kasm.Disassemble(prog)
		prog2, err := kasm.Parse(out)
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, out)
		}
		if h, h2 := prog.Hash(), prog2.Hash(); h != h2 {
			t.Fatalf("hash %s after the round trip, %s before\n%s", h2, h, out)
		}
	})
}
