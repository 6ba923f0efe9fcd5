package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"aitia/internal/core"
	"aitia/internal/durable"
	"aitia/internal/kvm"
	"aitia/internal/scenarios"
)

// runCrashResume is the in-process half of the crash-recovery CI gate:
// it proves, without spawning any process, that a diagnosis cut mid-way
// resumes from its durable checkpoints to the exact same answer with
// strictly fewer schedules. For each configuration it runs the pipeline
// cold (the golden outcome), re-runs with checkpoints under a schedule
// budget cut to half the cold cost so the search aborts mid-phase, then
// resumes with the full budget and compares chain, reproduction and
// schedule counts. A second leg interrupts the causality analysis at
// its first settled-flip checkpoint and resumes that too.
func runCrashResume(j *job) error {
	configs := []struct {
		scenario string
		workers  int
		every    int
	}{
		{"cve-2017-15649", 1, 2}, // serial with intra-phase checkpoints
		{"cve-2017-15649", 8, 0}, // parallel, phase boundaries only
		{"syz08-j1939-refcount", 1, 4},
	}
	t := j.tally(34)
	for _, c := range configs {
		label := fmt.Sprintf("%s/w%d/every%d", c.scenario, c.workers, c.every)
		if err := crashResumeOne(c.scenario, c.workers, c.every); err != nil {
			t.fail(label, "%v", err)
			continue
		}
		t.line("ok", label, "interrupted search and analysis both resumed to the golden diagnosis")
	}
	if err := t.err("of %d configurations failed", len(configs)); err != nil {
		return err
	}
	fmt.Printf("crash-resume: all %d configurations recover deterministically\n", len(configs))
	return nil
}

func crashResumeOne(name string, workers, every int) error {
	sc, ok := scenarios.ByName(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q", name)
	}
	lifsOpts := func(ck *core.CheckpointConfig, maxSched int) core.LIFSOptions {
		return core.LIFSOptions{
			WantKind:     sc.WantKind,
			WantInstr:    sc.WantInstr(),
			LeakCheck:    sc.NeedsLeakCheck(),
			Workers:      workers,
			MaxSchedules: maxSched,
			Checkpoint:   ck,
		}
	}
	anOpts := func(ck *core.CheckpointConfig) core.AnalysisOptions {
		return core.AnalysisOptions{
			LeakCheck:  sc.NeedsLeakCheck(),
			Workers:    workers,
			Checkpoint: ck,
		}
	}

	// Cold golden run: no checkpoints anywhere.
	m, err := kvm.New(sc.MustProgram())
	if err != nil {
		return err
	}
	coldRep, err := core.Reproduce(m, lifsOpts(nil, 0))
	if err != nil {
		return fmt.Errorf("cold reproduce: %w", err)
	}
	coldD, err := core.Analyze(m, coldRep, anOpts(nil))
	if err != nil {
		return fmt.Errorf("cold analyze: %w", err)
	}
	goldenChain := coldD.Chain.Format(sc.MustProgram())
	if want := scenarios.GoldenChains[sc.Name]; goldenChain != want {
		return fmt.Errorf("cold chain %q does not match the golden set %q", goldenChain, want)
	}

	dir, err := os.MkdirTemp("", "aitia-crash-resume-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := durable.OpenCheckpointStore(dir, false)
	if err != nil {
		return err
	}
	ck := &core.CheckpointConfig{Store: store, Every: every}

	// Interrupted run: the budget is half the cold cost, so the search
	// aborts mid-way having persisted at least one checkpoint.
	m2, err := kvm.New(sc.MustProgram())
	if err != nil {
		return err
	}
	truncated := coldRep.Stats.Schedules / 2
	if truncated < 1 {
		truncated = 1
	}
	if _, err := core.Reproduce(m2, lifsOpts(ck, truncated)); !core.IsNotReproduced(err) {
		return fmt.Errorf("truncated run (budget %d of %d): err = %v, want not-reproduced", truncated, coldRep.Stats.Schedules, err)
	}

	// Resume with the full budget: strictly fewer schedules, same answer.
	m3, err := kvm.New(sc.MustProgram())
	if err != nil {
		return err
	}
	rep, err := core.Reproduce(m3, lifsOpts(ck, 0))
	if err != nil {
		return fmt.Errorf("resumed reproduce: %w", err)
	}
	if !rep.Stats.Resumed {
		return fmt.Errorf("resumed run did not report Resumed")
	}
	if rep.Stats.Schedules >= coldRep.Stats.Schedules {
		return fmt.Errorf("resumed run executed %d schedules, cold run %d — nothing was saved",
			rep.Stats.Schedules, coldRep.Stats.Schedules)
	}
	if rep.Stats.Interleavings != coldRep.Stats.Interleavings {
		return fmt.Errorf("resumed interleaving count %d != cold %d", rep.Stats.Interleavings, coldRep.Stats.Interleavings)
	}

	// Analysis leg: cut the analysis at its first settled-flip
	// checkpoint via the OnSave seam, then resume it.
	ctx, cancel := context.WithCancel(context.Background())
	ckKill := &core.CheckpointConfig{Store: store, Every: every, OnSave: func(string) { cancel() }}
	aKill := anOpts(nil)
	aKill.Checkpoint = ckKill
	if _, err := core.AnalyzeContext(ctx, m3, rep, aKill); err == nil {
		// The whole analysis fit before the first checkpoint fired; that
		// still exercises the terminal-replay path below.
		fmt.Printf("note %-34s analysis completed before the kill point\n", sc.Name)
	}
	cancel()
	d, err := core.Analyze(m3, rep, anOpts(ck))
	if err != nil {
		return fmt.Errorf("resumed analyze: %w", err)
	}
	if chain := d.Chain.Format(sc.MustProgram()); chain != goldenChain {
		return fmt.Errorf("resumed chain %q != golden %q", chain, goldenChain)
	}
	if len(d.RootCause) != len(coldD.RootCause) || len(d.Benign) != len(coldD.Benign) {
		return fmt.Errorf("resumed verdicts diverge: %d/%d root-cause, %d/%d benign",
			len(d.RootCause), len(coldD.RootCause), len(d.Benign), len(coldD.Benign))
	}
	return nil
}

// runKillRecover is the process-level half of the crash-recovery CI
// gate: it spawns a real aitia-serve with a durable data dir, submits
// the scenario corpus, SIGKILLs the server mid-diagnosis, restarts it
// on the same data dir, and asserts every job reaches a terminal state
// with its golden chain. The data dir is DIR/kill-recover under
// -artifacts, left in place on failure so CI can upload the journal (the
// server log is written there either way), or a temp dir without it.
func runKillRecover(j *job) (err error) {
	serveBin, dataDir := j.arg, j.artifactDir()
	if _, serr := os.Stat(serveBin); serr != nil {
		return fmt.Errorf("kill-recover: serve binary: %w", serr)
	}
	cleanup := false
	if dataDir == "" {
		dataDir, err = os.MkdirTemp("", "aitia-kill-recover-*")
		if err != nil {
			return err
		}
		cleanup = true
	} else if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	defer func() {
		if err == nil && cleanup {
			os.RemoveAll(dataDir)
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "kill-recover: journal and server log left in %s\n", dataDir)
		}
	}()

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	base := "http://" + addr
	logPath := filepath.Join(dataDir, "serve.log")

	// First incarnation: slow enough (1 worker) that most of the corpus
	// is still queued when the kill lands.
	srv, err := spawnServe(serveBin, addr, dataDir, logPath, 1)
	if err != nil {
		return err
	}
	killed := false
	defer func() {
		if !killed && srv.Process != nil {
			srv.Process.Kill()
			srv.Wait()
		}
	}()
	if err := waitHealthy(base, 15*time.Second); err != nil {
		return fmt.Errorf("first incarnation never became healthy: %w", err)
	}

	jobs := make(map[string]string, len(j.list)) // job ID -> scenario name
	for _, sc := range j.list {
		id, err := submitScenario(base, sc.Name)
		if err != nil {
			return fmt.Errorf("submitting %s: %w", sc.Name, err)
		}
		jobs[id] = sc.Name
	}
	fmt.Printf("kill-recover: submitted %d scenarios to %s\n", len(jobs), base)

	// Let the worker get mid-diagnosis, then SIGKILL: no drain, no
	// journal sync, exactly the crash the journal is for.
	if err := waitAnyRunning(base, 10*time.Second); err != nil {
		return err
	}
	time.Sleep(50 * time.Millisecond)
	if err := srv.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	srv.Wait()
	killed = true
	fmt.Printf("kill-recover: SIGKILLed the server mid-diagnosis\n")

	// Second incarnation, same data dir, more workers to finish fast.
	srv2, err := spawnServe(serveBin, addr, dataDir, logPath, 4)
	if err != nil {
		return err
	}
	defer func() {
		srv2.Process.Signal(syscall.SIGTERM)
		srv2.Wait()
	}()
	if err := waitHealthy(base, 15*time.Second); err != nil {
		return fmt.Errorf("restarted incarnation never became healthy: %w", err)
	}

	recovered, err := metricValue(base, "aitia_jobs_recovered_total")
	if err != nil {
		return err
	}
	if recovered == 0 {
		return fmt.Errorf("restarted server recovered 0 jobs from the journal")
	}
	fmt.Printf("kill-recover: restarted server recovered %d jobs from the journal\n", recovered)

	// Every submitted job must reach a terminal state with its golden
	// chain — nothing lost, nothing wrong.
	deadline := time.Now().Add(3 * time.Minute)
	t := j.tally(22)
	resumed := 0
	for id, name := range jobs {
		st, err := waitTerminal(base, id, deadline)
		if err != nil {
			t.fail(name, "job %s: %v", id, err)
			continue
		}
		if st.State != "done" {
			t.fail(name, "job %s: state %q (error %q), want done", id, st.State, st.Error)
			continue
		}
		want := scenarios.GoldenChains[name]
		if st.Result == nil || st.Result.Chain != want {
			got := "<no result>"
			if st.Result != nil {
				got = st.Result.Chain
			}
			t.failChain(name, got, want)
			continue
		}
		if st.Result.Resumed {
			resumed++
		}
	}
	if err := t.err("of %d jobs lost or diverged after the kill", len(jobs)); err != nil {
		return err
	}
	fmt.Printf("kill-recover: all %d jobs reached their golden chain after SIGKILL + restart (%d resumed from a checkpoint)\n",
		len(jobs), resumed)
	return nil
}

func spawnServe(bin, addr, dataDir, logPath string, workers int) (*exec.Cmd, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data-dir", dataDir,
		"-workers", fmt.Sprint(workers),
		"-checkpoint-every", "2",
		"-queue", "128",
	)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	return cmd, nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("no healthy response within %v", timeout)
}

// jobStatus mirrors the wire shape of service.Status closely enough for
// the gate's assertions.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	Result *struct {
		Chain   string `json:"chain"`
		Resumed bool   `json:"resumed,omitempty"`
	} `json:"result,omitempty"`
}

func submitScenario(base, name string) (string, error) {
	body, _ := json.Marshal(map[string]any{"scenario": name})
	resp, err := http.Post(base+"/v1/diagnose", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("POST /v1/diagnose: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	return st.ID, nil
}

func waitAnyRunning(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var list []jobStatus
		if err := getJSON(base+"/v1/jobs", &list); err == nil {
			for _, st := range list {
				if st.State == "running" {
					return nil
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("no job entered running within %v", timeout)
}

func waitTerminal(base, id string, deadline time.Time) (*jobStatus, error) {
	for time.Now().Before(deadline) {
		var st jobStatus
		if err := getJSON(base+"/v1/jobs/"+id, &st); err != nil {
			return nil, err
		}
		switch st.State {
		case "done", "failed", "canceled":
			return &st, nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return nil, fmt.Errorf("not terminal by the deadline")
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metricValue scrapes one counter from the Prometheus exposition.
func metricValue(base, name string) (int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
				return v, nil
			}
		}
	}
	return 0, fmt.Errorf("metric %s not in the exposition", name)
}
