package core

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/scenarios"
)

// fig1Program returns the fig1 scenario's program.
func fig1Program() *kir.Program {
	sc, _ := scenarios.ByName("fig1")
	return sc.MustProgram()
}

// diagnoseFig1 reproduces and analyzes fig1 under cfg, the search
// giving up after 5 s, and returns the chain.
func diagnoseFig1(t testing.TB, cfg *CheckpointConfig) string {
	t.Helper()
	prog := fig1Program()
	m := mustMachine(t, prog)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := ReproduceContext(ctx, m, LIFSOptions{Checkpoint: cfg})
	if err != nil {
		t.Fatalf("Reproduce: %v", err)
	}
	d, err := Analyze(m, rep, AnalysisOptions{Checkpoint: cfg})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return d.Chain.Format(prog)
}

// fig1CAKey diagnoses fig1 with checkpoints and returns the key and
// the final payload of its analysis checkpoint.
func fig1CAKey(t testing.TB) (string, []byte) {
	t.Helper()
	var key string
	cfg := &CheckpointConfig{Store: testCheckpointStore(t)}
	cfg.OnSave = func(k string) {
		if len(k) > 16 && k[len(k)-20:len(k)-16] == ".ca." {
			key = k
		}
	}
	diagnoseFig1(t, cfg)
	payload, err := cfg.Store.Load(key, caCheckpointVersion)
	if err != nil {
		t.Fatalf("analysis checkpoint %q: %v", key, err)
	}
	return key, payload
}

// savedStore returns a checkpoint store holding payload under key, in
// a valid envelope.
func savedStore(t testing.TB, key string, version uint32, payload []byte) *CheckpointConfig {
	t.Helper()
	cfg := &CheckpointConfig{Store: testCheckpointStore(t)}
	if err := cfg.Store.Save(key, version, payload); err != nil {
		t.Fatal(err)
	}
	return cfg
}

const fig1Chain = "A1 => B1 → B2 => A2 → NULL pointer dereference"

// TestCorruptLIFSCheckpointLoadsAsAbsent: frontiers no search writes —
// a next phase past the last one with the round's site count already
// reached, a round past the last — load as absent, and the search runs
// fresh. Loaded, either ends the search with nothing reproduced.
func TestCorruptLIFSCheckpointLoadsAsAbsent(t *testing.T) {
	seed, err := os.ReadFile("testdata/lifs-checkpoint-fig1.json")
	if err != nil {
		t.Fatal(err)
	}
	key := lifsCheckpointKey(fig1Program(), LIFSOptions{MaxInterleavings: DefaultMaxInterleavings, MaxSchedules: DefaultMaxSchedules})
	for name, edit := range map[string]func(ck *lifsCheckpoint){
		"next phase past the last": func(ck *lifsCheckpoint) { ck.Partial, ck.NextPhase = nil, 9 },
		"round past the last":      func(ck *lifsCheckpoint) { ck.Partial, ck.Round = nil, 7 },
	} {
		var ck lifsCheckpoint
		if err := json.Unmarshal(seed, &ck); err != nil {
			t.Fatal(err)
		}
		edit(&ck)
		payload, err := json.Marshal(&ck)
		if err != nil {
			t.Fatal(err)
		}
		if got := diagnoseFig1(t, savedStore(t, key, lifsCheckpointVersion, payload)); got != fig1Chain {
			t.Errorf("%s: chain %q, want %q", name, got, fig1Chain)
		}
	}
}

// TestCorruptCACheckpointLoadsAsAbsent: settled flips no analysis
// writes — a benign or root-cause verdict without its run, a benign run
// that did not fail, an unknown verdict value, a prior skip the
// analysis does not make, a prior skip that is not benign or has a run
// — load as absent, and the analysis runs every flip. Loaded, the first
// gives fig1 a chain without its second race.
func TestCorruptCACheckpointLoadsAsAbsent(t *testing.T) {
	key, golden := fig1CAKey(t)
	var ck caCheckpoint
	if err := json.Unmarshal(golden, &ck); err != nil || len(ck.Flips) == 0 {
		t.Fatalf("golden analysis checkpoint: %v, %d flips", err, len(ck.Flips))
	}
	for name, edit := range map[string]func(fs *flipSnap){
		"no run":          func(fs *flipSnap) { *fs = flipSnap{Idx: fs.Idx} },
		"benign unfailed": func(fs *flipSnap) { fs.Verdict, fs.Failed = uint8(VerdictBenign), false },
		"verdict 9":       func(fs *flipSnap) { fs.Verdict = 9 },
		"skipped":         func(fs *flipSnap) { fs.Skipped, fs.Seq = true, nil },
	} {
		bad := caCheckpoint{Fingerprint: ck.Fingerprint, Flips: append([]flipSnap(nil), ck.Flips...)}
		edit(&bad.Flips[0])
		payload, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if got := diagnoseFig1(t, savedStore(t, key, caCheckpointVersion, payload)); got != fig1Chain {
			t.Errorf("%s: chain %q, want %q", name, got, fig1Chain)
		}
	}

	// Under a ranker that settles flip 0, a prior skip loads only as
	// benign without a run. A skipped root-cause flip with a kill row,
	// as written when the prior could settle chain members, is absent.
	_, rep := reproduceFig1(t)
	skip := make([]bool, len(rep.Races))
	skip[0] = true
	fp := caFingerprint(fig1Program().Hash(), rep, testOrder(rep.Races), AnalysisOptions{Ranker: alignedRanker{}}, skip)
	for name, want := range map[string]bool{
		`{"idx":0,"verdict":0,"skipped":true}`:                                       true,
		`{"idx":0,"verdict":1,"skipped":true,"kills":[1]}`:                           false,
		`{"idx":0,"verdict":1,"skipped":true}`:                                       false,
		`{"idx":0,"verdict":0,"skipped":true,"failed":true,"seq":[{"t":"A","i":0}]}`: false,
	} {
		payload := `{"fingerprint":"` + fp + `","flips":[` + name + `]}`
		cfg := savedStore(t, key, caCheckpointVersion, []byte(payload))
		if got := loadCACheckpoint(cfg, key, fp, skip, fig1Program().NumInstrs()) != nil; got != want {
			t.Errorf("%s: loaded = %v, want %v", name, got, want)
		}
	}
}

// FuzzLIFSCheckpoint mutates the payload of a LIFS checkpoint of fig1
// (testdata/lifs-checkpoint-fig1.json, a serial mid-phase cut with two
// units) and saves it through a real checkpoint store, so its envelope
// and checksum are valid. Loading it and diagnosing fig1 from it must
// not panic, and must either give fig1's golden chain or load as absent
// (which then searches fresh).
func FuzzLIFSCheckpoint(f *testing.F) {
	seed, err := os.ReadFile("testdata/lifs-checkpoint-fig1.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	prog := fig1Program()
	opts := LIFSOptions{MaxInterleavings: DefaultMaxInterleavings, MaxSchedules: DefaultMaxSchedules}
	key := lifsCheckpointKey(prog, opts)
	initSig := mustMachine(f, prog).StateSignature()
	if loadLIFSCheckpoint(savedStore(f, key, lifsCheckpointVersion, seed), key, prog, opts.MaxInterleavings, initSig) == nil {
		f.Fatal("the seed checkpoint loads as absent")
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		cfg := savedStore(t, key, lifsCheckpointVersion, payload)
		loaded := loadLIFSCheckpoint(cfg, key, prog, opts.MaxInterleavings, initSig) != nil
		cfg.Every = 1
		if got := diagnoseFig1(t, cfg); got != fig1Chain {
			t.Fatalf("loaded=%v: chain %q, want %q", loaded, got, fig1Chain)
		}
	})
}

// FuzzCACheckpoint mutates the payload of a causality-analysis
// checkpoint of fig1 (testdata/ca-checkpoint-fig1.json, one of its two
// flips settled) and saves it through a real checkpoint store under the
// analysis's key. Loading it and resuming the analysis must not panic,
// and the diagnosis must complete. It must give fig1's golden chain
// when the payload loads as absent, and when every flip it settles is
// the one an uninterrupted analysis settles. A well-formed flip with
// another verdict or run is trusted, like any loaded checkpoint: only
// re-running the flip could tell it apart.
func FuzzCACheckpoint(f *testing.F) {
	seed, err := os.ReadFile("testdata/ca-checkpoint-fig1.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	prog := fig1Program()
	key, golden := fig1CAKey(f)
	var ck caCheckpoint
	if err := json.Unmarshal(golden, &ck); err != nil {
		f.Fatal(err)
	}
	// A prior-skipped root-cause flip with its kill row, as written when
	// the prior could settle chain members.
	f.Add([]byte(`{"fingerprint":"` + ck.Fingerprint + `","flips":[{"idx":0,"verdict":1,"skipped":true,"kills":[1]}]}`))
	want := make(map[int]flipSnap)
	for _, fs := range ck.Flips {
		want[fs.Idx] = fs
	}
	_, rep := reproduceFig1(f)
	skip := make([]bool, len(rep.Races))
	load := func(cfg *CheckpointConfig) *caCheckpoint {
		return loadCACheckpoint(cfg, key, ck.Fingerprint, skip, prog.NumInstrs())
	}
	if load(savedStore(f, key, caCheckpointVersion, seed)) == nil {
		f.Fatal("the seed checkpoint loads as absent")
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		cfg := savedStore(t, key, caCheckpointVersion, payload)
		ck := load(cfg)
		got := diagnoseFig1(t, cfg)
		settled := ck == nil
		if !settled {
			settled = true
			for _, fs := range ck.Flips {
				settled = settled && reflect.DeepEqual(fs, want[fs.Idx])
			}
		}
		if settled && got != fig1Chain {
			t.Fatalf("loaded=%v: chain %q, want %q", ck != nil, got, fig1Chain)
		}
	})
}

// reproduceFig1 reproduces fig1 without checkpoints.
func reproduceFig1(t testing.TB) (*kvm.Machine, *Reproduction) {
	t.Helper()
	m := mustMachine(t, fig1Program())
	rep, err := Reproduce(m, LIFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m, rep
}
