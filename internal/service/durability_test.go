package service

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"aitia"
	"aitia/internal/kir"
	"aitia/internal/obs"
)

// instantDiagnoser completes immediately with a distinctive summary.
func instantDiagnoser(chain string) Diagnoser {
	return func(ctx context.Context, prog *kir.Program, req Request, tr *obs.Tracer, _ FaultContext) (*aitia.ResultSummary, error) {
		return &aitia.ResultSummary{Failure: "fake", Chain: chain}, nil
	}
}

// openDurable opens a durable service on dir, failing the test on error.
func openDurable(t *testing.T, dir string, cfg Config) *Service {
	t.Helper()
	cfg.DataDir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// TestRestartRecoversAllJobs is the satellite-1 regression: a service
// dies with one job running and two queued-but-unstarted; the next
// incarnation must re-enqueue all three from the journal and run every
// one to a terminal state — no transitions lost.
func TestRestartRecoversAllJobs(t *testing.T) {
	dir := t.TempDir()
	never := make(chan struct{}) // the first incarnation's jobs never finish
	s1 := openDurable(t, dir, Config{Workers: 1, Diagnoser: blockingDiagnoser(never)})

	var ids []string
	for i := 1; i <= 3; i++ {
		st, err := submitN(t, s1, i)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitState(t, s1, ids[0], StateRunning)
	// Simulated SIGKILL: abandon s1 without Shutdown. Its blocked worker
	// goroutine leaks for the test's lifetime; the journal on disk is
	// all the next incarnation sees.

	s2 := openDurable(t, dir, Config{Workers: 2, Diagnoser: instantDiagnoser("A1 => B1")})
	defer s2.Shutdown(context.Background())
	if got := s2.Metrics().JobsRecovered.Value(); got != 3 {
		t.Errorf("jobs_recovered = %d, want 3", got)
	}
	for _, id := range ids {
		st, err := s2.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if st.State != StateDone {
			t.Errorf("job %s: state = %q (error %q), want done", id, st.State, st.Error)
		}
		if st.Result == nil || st.Result.Chain != "A1 => B1" {
			t.Errorf("job %s: result = %+v, want recovered diagnosis", id, st.Result)
		}
	}
	// The recovered jobs ran under a forked fault epoch (the crash was
	// epoch 0's failure).
	s2.mu.Lock()
	for _, id := range ids {
		if ep := s2.jobs[id].requeues; ep != 1 {
			t.Errorf("job %s: fault epoch = %d, want 1", id, ep)
		}
	}
	s2.mu.Unlock()
}

// TestDrainLeavesQueuedJobsForRestart: with a journal, Shutdown finishes
// the in-flight job but leaves queued-but-unstarted jobs on disk instead
// of racing the drain; the next incarnation picks them up.
func TestDrainLeavesQueuedJobsForRestart(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	s1 := openDurable(t, dir, Config{Workers: 1, Diagnoser: blockingDiagnoser(release)})

	st1, err := submitN(t, s1, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, st1.ID, StateRunning)
	st2, err := submitN(t, s1, 2)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- s1.Shutdown(context.Background()) }()
	for s1.Health().Status != "draining" {
		time.Sleep(time.Millisecond)
	}
	close(release) // the running job completes; the queued one must not start
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st, _ := s1.Job(st1.ID); st.State != StateDone {
		t.Errorf("in-flight job drained to %q, want done", st.State)
	}
	if st, _ := s1.Job(st2.ID); st.State != StateQueued {
		t.Errorf("queued job drained to %q, want still queued (it survives in the journal)", st.State)
	}

	s2 := openDurable(t, dir, Config{Workers: 1, Diagnoser: instantDiagnoser("A1 => B1")})
	defer s2.Shutdown(context.Background())
	st, err := s2.Wait(context.Background(), st2.ID)
	if err != nil {
		t.Fatalf("Wait(%s): %v", st2.ID, err)
	}
	if st.State != StateDone {
		t.Errorf("recovered queued job: state = %q, want done", st.State)
	}
	// The drained job's terminal state also survived.
	if st, err := s2.Job(st1.ID); err != nil || st.State != StateDone {
		t.Errorf("drained job after restart: state = %q err = %v, want done", st.State, err)
	}
}

// TestIdempotentResubmission is tentpole part 3: re-POSTing a request
// whose program hash has a journaled terminal result is answered from
// the warmed cache without re-running the pipeline.
func TestIdempotentResubmission(t *testing.T) {
	dir := t.TempDir()
	s1 := openDurable(t, dir, Config{Workers: 1, Diagnoser: instantDiagnoser("A1 => B1")})
	st, err := submitN(t, s1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	forbidden := func(ctx context.Context, prog *kir.Program, req Request, tr *obs.Tracer, _ FaultContext) (*aitia.ResultSummary, error) {
		t.Error("pipeline re-ran for a journaled terminal result")
		return &aitia.ResultSummary{Failure: "rerun"}, nil
	}
	s2 := openDurable(t, dir, Config{Workers: 1, Diagnoser: forbidden})
	defer s2.Shutdown(context.Background())
	st2, err := submitN(t, s2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("resubmission: cache_hit=%t state=%q, want synchronous cache hit", st2.CacheHit, st2.State)
	}
	if st2.Result == nil || st2.Result.Chain != "A1 => B1" {
		t.Errorf("resubmission result = %+v, want the journaled diagnosis", st2.Result)
	}
}

// TestWarmCacheRespectsLRUBound is satellite 2: replaying more journaled
// results than the cache holds must keep only the newest CacheSize of
// them, evicting the oldest.
func TestWarmCacheRespectsLRUBound(t *testing.T) {
	dir := t.TempDir()
	s1 := openDurable(t, dir, Config{Workers: 1, CacheSize: 2, Diagnoser: instantDiagnoser("A1 => B1")})
	var ids []string
	for i := 1; i <= 3; i++ {
		st, err := submitN(t, s1, i)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		if _, err := s1.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, dir, Config{Workers: 1, CacheSize: 2, Diagnoser: instantDiagnoser("rerun")})
	defer s2.Shutdown(context.Background())
	if got := s2.cache.len(); got != 2 {
		t.Errorf("warmed cache holds %d results, want the LRU bound 2", got)
	}
	// The newest two journaled results hit; the oldest was evicted and
	// re-runs the pipeline. It is resubmitted last: its re-run result
	// enters the cache and would evict one of the others.
	for _, c := range []struct {
		i       int
		wantHit bool
	}{{2, true}, {3, true}, {1, false}} {
		i, wantHit := c.i, c.wantHit
		st, err := submitN(t, s2, i)
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHit != wantHit {
			t.Errorf("resubmission %d: cache_hit = %t, want %t", i, st.CacheHit, wantHit)
		}
	}
}

// TestRestartToleratesTornJournalTail: a crash can leave a half-written
// record at the journal tail; the next Open must drop it and recover the
// complete prefix without error.
func TestRestartToleratesTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	s1 := openDurable(t, dir, Config{Workers: 1, Diagnoser: instantDiagnoser("A1 => B1")})
	st, err := submitN(t, s1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: a frame header promising more bytes than exist.
	segs, err := filepath.Glob(filepath.Join(dir, "journal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments: %v", err)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(segs)))
	var last string
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil && fi.Size() > 0 {
			last = seg
			break
		}
	}
	if last == "" {
		last = segs[0]
	}
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 0xAB, 0xCD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openDurable(t, dir, Config{Workers: 1, Diagnoser: instantDiagnoser("rerun")})
	defer s2.Shutdown(context.Background())
	if got, err := s2.Job(st.ID); err != nil || got.State != StateDone {
		t.Errorf("job after torn-tail recovery: state = %q err = %v, want done", got.State, err)
	}
	if torn := s2.journal.Stats().TornTails; torn == 0 {
		t.Error("journal stats report no torn tail dropped")
	}
}

// TestDurableMetricsExported: the Prometheus exposition includes the
// journal and checkpoint families when durability is on.
func TestDurableMetricsExported(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, Config{Workers: 1, Diagnoser: instantDiagnoser("A1 => B1")})
	defer s.Shutdown(context.Background())
	st, err := submitN(t, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	s.Metrics().WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"aitia_journal_appends_total",
		"aitia_journal_segments_total",
		"aitia_checkpoint_saves_total",
		"aitia_jobs_recovered_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
	if !s.Health().Durable {
		t.Error("health does not report durable")
	}
}
