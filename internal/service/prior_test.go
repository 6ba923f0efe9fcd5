package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"aitia"
	"aitia/internal/durable"
	"aitia/internal/prior"
)

// runToDone submits one request and waits for it to complete.
func runToDone(t *testing.T, s *Service, req Request) JobStatus {
	t.Helper()
	st, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit %s: %v", req.Scenario, err)
	}
	final, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Wait %s: %v", req.Scenario, err)
	}
	if final.State != StateDone {
		t.Fatalf("%s: job state = %q (error %q), want done", req.Scenario, final.State, final.Error)
	}
	return final
}

// runPriorMix runs trace, report and cache-hit jobs on a durable service
// over dir with the default pipeline, shuts it down, and returns the
// encoding of the prior those jobs taught it. The mix diagnoses
// cve-2017-10661 from its trace and then from its crash report, so the
// second analysis settles its benign races from the prior and journals
// prior-settled verdicts.
func runPriorMix(t *testing.T, dir string) []byte {
	t.Helper()
	s := openDurable(t, dir, Config{Workers: 1})
	var reqs []Request
	for _, sc := range []string{"cve-2017-15649", "cve-2017-10661", "syz12-sco-timeout"} {
		reqs = append(reqs, Request{Scenario: sc})
	}
	for _, sc := range []string{"fig1", "cve-2017-10661"} {
		report, err := aitia.ScenarioReport(sc, aitia.Options{})
		if err != nil {
			t.Fatalf("ScenarioReport %s: %v", sc, err)
		}
		reqs = append(reqs, Request{Scenario: sc, Report: report})
	}
	skipped := 0
	for _, req := range reqs {
		st := runToDone(t, s, req)
		if st.CacheHit {
			t.Fatalf("%s: first submission answered from the cache", req.Scenario)
		}
		skipped += st.Result.FlipsSkipped
	}
	if skipped == 0 {
		t.Fatal("no job settled a flip from the prior")
	}
	for _, req := range reqs[1:4] {
		if st := runToDone(t, s, req); !st.CacheHit {
			t.Fatalf("%s: resubmission was not a cache hit", req.Scenario)
		}
	}
	live := s.Prior().Encode()
	if s.Prior().Observations() == 0 {
		t.Fatal("completed diagnoses fed no observations into the prior")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	return live
}

// reopenedPrior restarts the service on dir and returns its prior's
// encoding, checking /healthz reports the same store.
func reopenedPrior(t *testing.T, dir string) []byte {
	t.Helper()
	s := openDurable(t, dir, Config{Workers: 1, Diagnoser: instantDiagnoser("x")})
	defer s.Shutdown(context.Background())
	if h := s.Health(); h.PriorPairs != s.Prior().Pairs() {
		t.Errorf("Health prior pairs = %d, store holds %d", h.PriorPairs, s.Prior().Pairs())
	}
	return s.Prior().Encode()
}

// TestPriorLearnsAndPersists: completed diagnoses feed the learned flip
// prior, and the next service incarnation on the same data dir rebuilds
// it from the journal alone — byte-equal to the store the jobs taught,
// with cache hits and prior-settled verdicts counted once.
func TestPriorLearnsAndPersists(t *testing.T) {
	dir := t.TempDir()
	live := runPriorMix(t, dir)
	if err := os.RemoveAll(filepath.Join(dir, "checkpoints")); err != nil {
		t.Fatal(err)
	}
	if got := reopenedPrior(t, dir); !bytes.Equal(got, live) {
		t.Errorf("rebuilt prior differs from the live one:\n got %s\nwant %s", got, live)
	}
}

// TestPriorCorruptCheckpointRebuildsFromJournal: a prior checkpoint left
// in the data dir, corrupt or stale, has no say: the restarted service
// still rebuilds the prior from the journal, byte-equal to the live one.
func TestPriorCorruptCheckpointRebuildsFromJournal(t *testing.T) {
	dir := t.TempDir()
	live := runPriorMix(t, dir)

	ck, err := durable.OpenCheckpointStore(filepath.Join(dir, "checkpoints"), false)
	if err != nil {
		t.Fatalf("open checkpoint store: %v", err)
	}
	stale := prior.NewStore(prior.Config{})
	stale.ObserveVerdict("load@f[x]:r=>store@g[x]:w", "benign")
	for name, payload := range map[string][]byte{"corrupt": []byte("corrupt"), "stale": stale.Encode()} {
		if err := ck.Save(prior.CheckpointKey, 1, payload); err != nil {
			t.Fatalf("%s checkpoint: %v", name, err)
		}
		if got := reopenedPrior(t, dir); !bytes.Equal(got, live) {
			t.Errorf("%s checkpoint: rebuilt prior differs from the live one:\n got %s\nwant %s", name, got, live)
		}
	}
}

// TestPriorDisabled: a negative PriorMinSupport disables the prior
// entirely — no store, no health fields.
func TestPriorDisabled(t *testing.T) {
	s := openDurable(t, t.TempDir(), Config{Workers: 1, Diagnoser: instantDiagnoser("x"), PriorMinSupport: -1})
	defer s.Shutdown(context.Background())
	if s.Prior() != nil {
		t.Error("Prior() != nil with PriorMinSupport < 0")
	}
	if h := s.Health(); h.PriorPairs != 0 {
		t.Errorf("health advertises a disabled prior: %+v", h)
	}
}
