package prior

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aitia/internal/core"
	"aitia/internal/durable"
	"aitia/internal/kir"
	"aitia/internal/sched"
)

// buildProg builds a two-thread program racing on the globals "flag" and
// "other", with pad extra single-instruction functions emitted FIRST so
// that every instruction ID shifts between otherwise-identical programs
// — the cross-program transfer case the signature must survive.
func buildProg(t *testing.T, pad int) *kir.Program {
	t.Helper()
	b := kir.NewBuilder()
	b.Var("flag", 0)
	b.Var("other", 0)
	for i := 0; i < pad; i++ {
		f := b.Func("pad" + string(rune('a'+i)))
		f.Store(kir.G("other"), kir.Imm(7))
		f.Ret()
	}
	w := b.Func("writer")
	w.Store(kir.G("flag"), kir.Imm(1)).L("W")
	w.Store(kir.G("other"), kir.Imm(1)).L("W2")
	w.Ret()
	r := b.Func("reader")
	r.Load(kir.R1, kir.G("flag")).L("R")
	r.Load(kir.R2, kir.G("other")).L("R2")
	r.Ret()
	b.Thread("A", "writer")
	b.Thread("B", "reader")
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

func raceOf(t *testing.T, prog *kir.Program, first, second string) sched.Race {
	t.Helper()
	f, ok := prog.ByLabel(first)
	if !ok {
		t.Fatalf("no instruction labeled %q", first)
	}
	s, ok := prog.ByLabel(second)
	if !ok {
		t.Fatalf("no instruction labeled %q", second)
	}
	return sched.Race{
		First:  sched.Site{Thread: "A", Instr: f.ID},
		Second: sched.Site{Thread: "B", Instr: s.ID},
	}
}

// TestSignatureCrossProgramStability: the signature must be identical
// across programs with the same code structure but different instruction
// IDs, thread schedules and padding — and must differ between races on
// different variables in the same functions.
func TestSignatureCrossProgramStability(t *testing.T) {
	p1 := buildProg(t, 0)
	p2 := buildProg(t, 3)

	s1 := Signature(p1, raceOf(t, p1, "W", "R"))
	s2 := Signature(p2, raceOf(t, p2, "W", "R"))
	if s1 != s2 {
		t.Errorf("signature not stable across programs:\n  p1: %s\n  p2: %s", s1, s2)
	}
	if o := Signature(p1, raceOf(t, p1, "W2", "R2")); o == s1 {
		t.Errorf("races on different variables share signature %s", s1)
	}

	// Pair-level relations must be part of the identity.
	r := raceOf(t, p1, "W", "R")
	r.Phantom = true
	if ph := Signature(p1, r); ph == s1 || !strings.HasSuffix(ph, "|ph") {
		t.Errorf("phantom marker missing: %s", ph)
	}
	r.Phantom = false
	r.CSLock = 42
	if cs := Signature(p1, r); cs == s1 || !strings.HasSuffix(cs, "|cs") {
		t.Errorf("critical-section marker missing: %s", cs)
	}

	// Dynamic identity must NOT leak into the signature: same static
	// pair at different steps, addresses, or thread IDs is one signature.
	r2 := raceOf(t, p1, "W", "R")
	r2.FirstStep, r2.SecondStep, r2.Addr = 17, 23, 0xdead
	if Signature(p1, r2) != s1 {
		t.Errorf("dynamic fields leaked into the signature: %s != %s", Signature(p1, r2), s1)
	}
}

// TestAggregationDeterminism: any interleaving of the same observations
// — shuffled serial orders and a concurrent feed — must produce
// byte-identical encodings.
func TestAggregationDeterminism(t *testing.T) {
	prog := buildProg(t, 0)
	type obs struct {
		sig string
		v   core.Verdict
	}
	var feed []obs
	sigWR := Signature(prog, raceOf(t, prog, "W", "R"))
	sigW2 := Signature(prog, raceOf(t, prog, "W2", "R2"))
	for i := 0; i < 50; i++ {
		feed = append(feed, obs{sigWR, core.VerdictRootCause})
		feed = append(feed, obs{sigW2, core.VerdictBenign})
		if i%5 == 0 {
			feed = append(feed, obs{sigWR, core.VerdictAmbiguous})
		}
	}

	reference := NewStore(Config{})
	for _, o := range feed {
		reference.Observe(o.sig, o.v)
	}
	want := reference.Encode()

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]obs(nil), feed...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		st := NewStore(Config{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(shuffled); i += 4 {
					st.Observe(shuffled[i].sig, shuffled[i].v)
				}
			}(w)
		}
		wg.Wait()
		if got := st.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: concurrent shuffled feed diverged:\n got %s\nwant %s", trial, got, want)
		}
	}
}

// TestEncodeDecodeRoundTrip: a store with verdict statistics survives
// Encode/Decode bit-exactly.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	prog := buildProg(t, 0)
	st := NewStore(Config{MinSupport: 2})
	d := &core.Diagnosis{Tested: []core.TestedRace{
		{Race: raceOf(t, prog, "W", "R"), Verdict: core.VerdictRootCause, FlipRun: &sched.RunResult{}},
		{Race: raceOf(t, prog, "W2", "R2"), Verdict: core.VerdictBenign, FlipRun: &sched.RunResult{}},
	}}
	st.ObserveDiagnosis(prog, d)
	if st.Observations() != 2 || st.Pairs() != 2 {
		t.Fatalf("ObserveDiagnosis recorded %d observations over %d pairs, want 2/2", st.Observations(), st.Pairs())
	}

	enc := st.Encode()
	st2, err := Decode(enc, Config{MinSupport: 2})
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(st2.Encode(), enc) {
		t.Errorf("round trip diverged:\n got %s\nwant %s", st2.Encode(), enc)
	}
	if st2.Observations() != st.Observations() || st2.Pairs() != st.Pairs() {
		t.Errorf("round trip lost statistics: %d/%d, want %d/%d",
			st2.Observations(), st2.Pairs(), st.Observations(), st.Pairs())
	}
}

// TestLoadSnapshotWithKills: testdata/v1-with-kills holds a checkpoint
// written by the prior when it still kept kill relations (three
// diagnoses: cve-2017-15649, syz02-packet-frame and fig1). It still
// loads, to the same pairs and observations, and re-encodes without the
// kill relations.
func TestLoadSnapshotWithKills(t *testing.T) {
	cs, err := durable.OpenCheckpointStore(filepath.Join("testdata", "v1-with-kills"), false)
	if err != nil {
		t.Fatalf("open checkpoint store: %v", err)
	}
	payload, err := cs.Load(CheckpointKey, checkpointVersion)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var old struct {
		Observations uint64                     `json:"observations"`
		Pairs        map[string]PairStats       `json:"pairs"`
		Kills        map[string]json.RawMessage `json:"kills"`
	}
	if err := json.Unmarshal(payload, &old); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(old.Kills) == 0 {
		t.Fatal("testdata snapshot holds no kill relations")
	}

	st := LoadFrom(cs, Config{})
	if st.Observations() != old.Observations || st.Observations() != 11 || st.Pairs() != len(old.Pairs) || st.Pairs() != 11 {
		t.Errorf("loaded %d observations over %d pairs, snapshot holds %d over %d (want 11/11)",
			st.Observations(), st.Pairs(), old.Observations, len(old.Pairs))
	}
	var now struct {
		Pairs map[string]PairStats `json:"pairs"`
		Kills json.RawMessage      `json:"kills"`
	}
	if err := json.Unmarshal(st.Encode(), &now); err != nil {
		t.Fatalf("unmarshal re-encoding: %v", err)
	}
	if !reflect.DeepEqual(now.Pairs, old.Pairs) {
		t.Errorf("pairs changed on load:\n got %v\nwant %v", now.Pairs, old.Pairs)
	}
	if now.Kills != nil {
		t.Errorf("re-encoding still carries kill relations: %s", now.Kills)
	}
}

// TestSelfReinforcementExcluded: prior-skipped and unknown verdicts must
// not be folded back into the store.
func TestSelfReinforcementExcluded(t *testing.T) {
	prog := buildProg(t, 0)
	st := NewStore(Config{})
	d := &core.Diagnosis{Tested: []core.TestedRace{
		{Race: raceOf(t, prog, "W", "R"), Verdict: core.VerdictBenign, PriorSkipped: true},
		{Race: raceOf(t, prog, "W2", "R2"), Verdict: core.VerdictUnknown},
	}}
	st.ObserveDiagnosis(prog, d)
	if st.Observations() != 0 || st.Pairs() != 0 {
		t.Errorf("skipped/unknown verdicts were recorded: %d observations, %d pairs",
			st.Observations(), st.Pairs())
	}
}

// TestRankFlipsSettlement: benign settlement needs MinSupport unanimous
// benign verdicts, and a single disagreeing observation disables it. No
// verdict history settles a race as a chain member: however unanimous,
// a root-cause signature is only scored.
func TestRankFlipsSettlement(t *testing.T) {
	prog := buildProg(t, 0)
	races := []sched.Race{raceOf(t, prog, "W", "R"), raceOf(t, prog, "W2", "R2")}
	sig0, sig1 := Signature(prog, races[0]), Signature(prog, races[1])

	// Empty store: no hits, neutral scores, nothing settled.
	empty := NewStore(Config{})
	for i, p := range empty.RankFlips(prog, races) {
		if p.Hit || p.SettledBenign || p.Score != 0.5 {
			t.Errorf("empty store prior %d = %+v, want neutral", i, p)
		}
	}

	// Unanimous benign at MinSupport settles; one root-cause breaks it.
	st := NewStore(Config{MinSupport: 2})
	st.Observe(sig1, core.VerdictBenign)
	if p := st.RankFlips(prog, races)[1]; p.SettledBenign {
		t.Error("settled benign below MinSupport")
	}
	st.Observe(sig1, core.VerdictBenign)
	if p := st.RankFlips(prog, races)[1]; !p.SettledBenign {
		t.Error("unanimous benign at MinSupport not settled")
	}
	st.Observe(sig1, core.VerdictRootCause)
	if p := st.RankFlips(prog, races)[1]; p.SettledBenign {
		t.Error("conflicting verdict did not disable the benign skip")
	}

	// Unanimous root-cause verdicts rank the race first and settle
	// nothing: its flip runs.
	st2 := NewStore(Config{})
	for i := 0; i < 5; i++ {
		st2.Observe(sig0, core.VerdictRootCause)
	}
	st2.Observe(sig1, core.VerdictBenign)
	got := st2.RankFlips(prog, races)
	if p := got[0]; !p.Hit || p.SettledBenign || p.Score <= got[1].Score {
		t.Errorf("unanimous root-cause prior = %+v, want a hit scored above %v and not settled", p, got[1].Score)
	}
}

// TestLoadDegradesToFixedOrder: an absent or corrupt persisted prior
// must degrade to an empty store — exact fixed-order analysis.
func TestLoadDegradesToFixedOrder(t *testing.T) {
	dir := t.TempDir()
	cs, err := durable.OpenCheckpointStore(dir, false)
	if err != nil {
		t.Fatalf("open checkpoint store: %v", err)
	}

	if st := LoadFrom(cs, Config{}); st.Pairs() != 0 {
		t.Errorf("absent prior: %d pairs, want 0", st.Pairs())
	}

	corruptions := map[string][]byte{
		"garbage":     []byte("not json at all"),
		"wrong magic": []byte(`{"magic":"evil","version":1,"pairs":{}}`),
		"wrong count": []byte(`{"magic":"aitia-prior","version":1,"observations":9,"pairs":{"x":{"benign":1}}}`),
		"empty sig":   []byte(`{"magic":"aitia-prior","version":1,"observations":1,"pairs":{"":{"benign":1}}}`),
		"null stats":  []byte(`{"magic":"aitia-prior","version":1,"observations":1,"pairs":{"x":null}}`),
		"bad version": []byte(`{"magic":"aitia-prior","version":99,"pairs":{}}`),
	}
	for name, payload := range corruptions {
		if err := cs.Save(CheckpointKey, checkpointVersion, payload); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		st := LoadFrom(cs, Config{})
		if st.Pairs() != 0 || st.Observations() != 0 {
			t.Errorf("%s: corrupt prior did not degrade to empty: %d pairs", name, st.Pairs())
		}
		prog := buildProg(t, 0)
		races := []sched.Race{raceOf(t, prog, "W", "R")}
		for _, p := range st.RankFlips(prog, races) {
			if p.SettledBenign || p.Hit {
				t.Errorf("%s: degraded store still settles flips: %+v", name, p)
			}
		}
	}

	// And a valid snapshot loads.
	good := NewStore(Config{})
	good.Observe("sig", core.VerdictBenign)
	if err := good.SaveTo(cs); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	if st := LoadFrom(cs, Config{}); st.Pairs() != 1 || st.Observations() != 1 {
		t.Errorf("valid prior: %d pairs, %d observations; want 1/1", st.Pairs(), st.Observations())
	}
}
