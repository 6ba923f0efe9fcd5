package kvm

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"aitia/internal/scenarios"
)

// referenceStateSignature is the hash.Hash-and-closure form of
// StateSignature, over mem.Space.FoldState: the byte stream
// StateSignature must hash to the same value. Checkpoints and fleet
// workers compare signatures taken by different builds, so the value
// may never change.
func referenceStateSignature(m *Machine) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
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
		word(0xfeed)
	}
	var acc uint64
	entry := func(parts ...uint64) {
		eh := fnv.New64a()
		for _, p := range parts {
			var b [8]byte
			for i := range b {
				b[i] = byte(p >> (8 * i))
			}
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

// TestStateSignatureMatchesReference walks every corpus scenario under
// random schedules — preempting at one step in four, through lock
// waits, spawns, frees and failures — and checks StateSignature against
// the reference at every state reached, and after restores; a
// signature never allocates.
func TestStateSignatureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var states int
	for _, sc := range scenarios.All() {
		m, err := New(sc.MustProgram())
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		init := m.Snapshot()
		check := func(walk, step int) {
			states++
			if got, want := m.StateSignature(), referenceStateSignature(m); got != want {
				t.Fatalf("%s walk %d step %d: StateSignature %#x, reference %#x", sc.Name, walk, step, got, want)
			}
		}
		for walk := 0; walk < 8; walk++ {
			m.Restore(init)
			check(walk, 0)
			cur := ThreadID(0)
			for step := 1; step <= 400 && m.Failure() == nil && !m.AllDone(); step++ {
				run := m.Runnable()
				if len(run) == 0 {
					break
				}
				if !m.CanRun(cur) || rng.Intn(4) == 0 {
					cur = run[rng.Intn(len(run))]
				}
				if _, err := m.Step(cur); err != nil {
					t.Fatalf("%s walk %d step %d: %v", sc.Name, walk, step, err)
				}
				check(walk, step)
			}
			if allocs := testing.AllocsPerRun(10, func() { m.StateSignature() }); allocs != 0 {
				t.Fatalf("%s walk %d: StateSignature allocates %.1f times", sc.Name, walk, allocs)
			}
		}
	}
	t.Logf("%d states across %d scenarios", states, len(scenarios.All()))
}

// TestStateSignatureGolden pins the StateSignature of every corpus
// machine at its initial state and after BenchmarkStateSignature's
// seeded 30-step random walk to the values committed in
// testdata/state_signatures.txt. The reference check above only shows
// that StateSignature and FoldState agree with each other; checkpoints
// and fleet workers compare signatures taken by different builds, so the
// values themselves may never change.
func TestStateSignatureGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/state_signatures.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sigs, _ := strings.Cut(line, " ")
		want[name] = sigs
	}
	rng := rand.New(rand.NewSource(1))
	for _, sc := range scenarios.All() {
		m, err := New(sc.MustProgram())
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		init := m.StateSignature()
		for step := 0; step < 30 && m.Failure() == nil; step++ {
			run := m.Runnable()
			if len(run) == 0 {
				break
			}
			if _, err := m.Step(run[rng.Intn(len(run))]); err != nil {
				t.Fatalf("%s step %d: %v", sc.Name, step, err)
			}
		}
		got := fmt.Sprintf("%016x %016x", init, m.StateSignature())
		if got != want[sc.Name] {
			t.Errorf("%s: signatures (init, walk) %s, golden %q", sc.Name, got, want[sc.Name])
		}
		delete(want, sc.Name)
	}
	for name := range want {
		t.Errorf("golden signature for %s, which is not in the corpus", name)
	}
}
