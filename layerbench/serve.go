package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aitia/internal/core"
	"aitia/internal/ingest"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/scenarios"
)

// Serve workload settings.
const (
	// serveRate is the open-loop arrival rate (jobs per second): about
	// half of what the server's two workers sustain in a closed loop.
	serveRate = 100.0
	// serveLimitMS is the verdict-time limit of slo_met_frac: about twice
	// the slowest cold hand-built job.
	serveLimitMS = 50.0
	// pollInterval is the client's job-status polling period, well under
	// the verdict p50 (the API has no blocking wait).
	pollInterval = 500 * time.Microsecond
	// clientConns caps the client's HTTP connections (the CPU count).
	clientConns = 2
	// maxLagMS and maxOutstandingEnd are the open-loop validity limits:
	// a generator later than this at p90 (a tenth of the requests sent
	// late: it cannot keep the rate), or a backlog this deep when the
	// arrivals end, invalidates the run's latencies. Rarer lateness — a
	// stall of the shared host delays every process for a few tens of
	// milliseconds — is no sign of a generator that cannot keep up, and
	// its requests' verdicts are timed from when they were due anyway;
	// bench.lag_ms_p99 reports it.
	maxLagMS          = 10.0
	maxOutstandingEnd = 16
	// drainTimeout bounds the wait for jobs outstanding at the end.
	drainTimeout = 20 * time.Second
	// measurePad numbers the measured cold jobs' unused globals, above
	// any warm-up pad.
	measurePad = 1 << 20
)

// server is a running aitia-serve process.
type server struct {
	cmd     *exec.Cmd
	base    string // API base URL
	debug   string // pprof base URL
	exited  chan struct{}
	logFile *os.File
}

// freeAddr picks a free loopback TCP address.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches aitia-serve with two workers, serial per-job
// analysis, the default cache and prior, and — when dataDir is set — a
// fresh data dir without fsync, and waits until it answers /readyz.
func startServer(bin, dataDir, logPath string, hc *http.Client) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dbg, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-debug-addr", dbg, "-workers", "2", "-job-workers", "1"}
	if dataDir != "" {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dataDir)
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, debug: "http://" + dbg, exited: make(chan struct{}), logFile: logFile}
	go func() { _ = cmd.Wait(); close(s.exited) }()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			logFile.Close()
			return nil, fmt.Errorf("aitia-serve exited before /readyz (log: %s)", logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("aitia-serve not ready after 15s (log: %s)", logPath)
		}
	}
}

// stop drains the server with SIGTERM, kills it if the drain stalls, and
// waits for the process to end.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.logFile.Close()
}

// jobStatus is the subset of the service's job status the client reads.
type jobStatus struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	CacheHit  bool      `json:"cache_hit"`
	Submitted time.Time `json:"submitted"`
	Error     string    `json:"error"`
	Result    *struct {
		Chain         string `json:"chain"`
		Partial       bool   `json:"partial"`
		LIFSSchedules int    `json:"lifs_schedules"`
		TestSetSize   int    `json:"test_set_size"`
		LIFSPruned    int    `json:"lifs_pruned"`
		SnapshotBytes uint64 `json:"snapshot_bytes"`
		Executed      uint64 `json:"executed_instrs"`
		Replayed      uint64 `json:"replayed_instrs"`
		FlipsExecuted int    `json:"flips_executed"`
		FlipsSkipped  int    `json:"flips_skipped"`
		PriorHits     int    `json:"prior_hits"`
		ChainRaces    []struct {
			First string `json:"first"`
		} `json:"chain_races"`
	} `json:"result"`
}

// serveInputs are the serve workload's generated inputs.
type serveInputs struct {
	names       []string          // every scenario
	reportNames []string          // scenarios whose synthesized report round-trips
	items       map[string]item   // kasm text and options per scenario
	reports     map[string]string // synthesized crash report per scenario
	blind       map[string]int    // serial blind LIFS schedules per scenario
	replays     map[string]replay // blind reproduction per scenario
	progs       map[string]*kir.Program
}

// newServeInputs renders every scenario as kasm text and synthesizes its
// crash report from a blind reproduction.
func newServeInputs() (*serveInputs, error) {
	in := &serveInputs{
		items: map[string]item{}, reports: map[string]string{}, blind: map[string]int{},
		replays: map[string]replay{}, progs: map[string]*kir.Program{},
	}
	for _, sc := range scenarios.All() {
		it, err := scenarioItem(sc.Name)
		if err != nil {
			return nil, err
		}
		prog, err := kasm.Parse(it.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		m, err := kvm.New(prog)
		if err != nil {
			return nil, err
		}
		lo := core.LIFSOptions{WantKind: sc.WantKind, WantInstr: kir.NoInstr, LeakCheck: it.LeakCheck}
		if in, ok := prog.ByLabel(sc.WantLabel); ok && sc.WantLabel != "" {
			lo.WantInstr = in.ID
		}
		rep, err := core.Reproduce(m, lo)
		if err != nil {
			return nil, fmt.Errorf("%s: blind reproduction: %w", sc.Name, err)
		}
		in.names = append(in.names, sc.Name)
		in.items[sc.Name] = it
		in.progs[sc.Name] = prog
		in.blind[sc.Name] = rep.Stats.Schedules
		in.replays[sc.Name] = replay{prog: prog, leakCheck: it.LeakCheck, rep: rep}
		if sc.GenInfo != nil && !sc.GenInfo.ReportOK {
			continue
		}
		text, err := ingest.Synthesize(prog, rep.Run, rep.Races)
		if err != nil {
			return nil, fmt.Errorf("%s: synthesize report: %w", sc.Name, err)
		}
		in.reports[sc.Name] = text
		in.reportNames = append(in.reportNames, sc.Name)
	}
	return in, nil
}

// requestBody renders one job submission. Trace jobs carry the failure
// kind, label and leak check the scenario's report implies; report jobs
// carry the report itself.
func (in *serveInputs) requestBody(kind, scenario string, seed int64, pad int) ([]byte, string) {
	it := in.items[scenario]
	body := map[string]any{"source": padSource(it.Source, seed, pad)}
	opts := map[string]any{}
	if it.LeakCheck {
		opts["leak_check"] = true
	}
	path := "/v1/diagnose"
	if kind == kindReport {
		body["report"] = in.reports[scenario]
		path = "/v1/diagnose-report"
	} else {
		opts["failure_kind"] = it.FailureKind
		if it.FailureLabel != "" {
			opts["failure_label"] = it.FailureLabel
		}
	}
	body["options"] = opts
	data, _ := json.Marshal(body)
	return data, path
}

// client is the benchmark's HTTP client of one server.
type client struct {
	hc   *http.Client
	base string
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clientConns,
			MaxIdleConnsPerHost: clientConns,
			DisableCompression:  true,
		},
	}
}

// do sends one request and decodes a JSON reply into out (when non-nil),
// returning the status code.
func (c *client) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// wait polls a job until it leaves the queued and running states.
func (c *client) wait(id string, deadline time.Time) (jobStatus, error) {
	for {
		var st jobStatus
		if _, err := c.do("GET", "/v1/jobs/"+id, nil, &st); err != nil {
			return st, err
		}
		if st.State != "queued" && st.State != "running" {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s", id, st.State)
		}
		time.Sleep(pollInterval)
	}
}

// checkStatus reports whether a finished job carries the golden chain.
func checkStatus(st jobStatus, scenario string) error {
	if st.State != "done" || st.Result == nil {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if want := scenarios.GoldenChains[scenario]; st.Result.Chain != want || st.Result.Partial {
		return fmt.Errorf("job %s (%s): chain %q, want %q", st.ID, scenario, st.Result.Chain, want)
	}
	return nil
}

// warmUpJobs are every scenario once as a cold trace job and once as a
// cold report job: run before measurement, they leave the prior warm and
// its skip rate in steady state.
func warmUpJobs(in *serveInputs) []arrival {
	var jobs []arrival
	for _, n := range in.names {
		jobs = append(jobs, arrival{Kind: kindTrace, Scenario: n, Pad: len(jobs), Of: -1})
	}
	for _, n := range in.reportNames {
		jobs = append(jobs, arrival{Kind: kindReport, Scenario: n, Pad: len(jobs), Of: -1})
	}
	return jobs
}

// runClosed submits the jobs in order, two at a time in a closed loop,
// and checks every verdict. A repeat's Of indexes into jobs.
func runClosed(c *client, in *serveInputs, seed int64, jobs []arrival) error {
	next := make(chan int, len(jobs))
	for i := range jobs {
		next <- i
	}
	close(next)
	errs := make(chan error, clientConns)
	for w := 0; w < clientConns; w++ {
		go func() {
			for i := range next {
				j := jobs[i]
				kind := j.Kind
				if kind == kindRepeat {
					kind = jobs[j.Of].Kind
				}
				body, path := in.requestBody(kind, j.Scenario, seed, j.Pad)
				var st jobStatus
				code, err := c.do("POST", path, body, &st)
				if err == nil && code != http.StatusAccepted {
					err = fmt.Errorf("%s job %s: HTTP %d", kind, j.Scenario, code)
				}
				if err == nil && !st.CacheHit {
					st, err = c.wait(st.ID, time.Now().Add(drainTimeout))
				}
				if err == nil {
					err = checkStatus(st, j.Scenario)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < clientConns; w++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// metricsSnapshot is one scrape of /metrics: series → value.
type metricsSnapshot map[string]float64

func (c *client) scrape() (metricsSnapshot, error) {
	req, err := http.NewRequest("GET", c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	snap := metricsSnapshot{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			snap[line[:i]] = v
		}
	}
	return snap, sc.Err()
}

// heapStats reads runtime counters from the server's pprof heap page.
func heapStats(hc *http.Client, debugBase string) (map[string]float64, error) {
	resp, err := hc.Get(debugBase + "/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var key string
		var v float64
		if n, _ := fmt.Sscanf(sc.Text(), "# %s = %g", &key, &v); n == 2 {
			out[key] = v
		}
	}
	return out, sc.Err()
}

// jobRec is one open-loop request and what the client saw of it.
type jobRec struct {
	arrival
	due, sent, observed time.Time
	id                  string
	status              jobStatus
	submitRTT           time.Duration
	polls               int
	err                 error
}

// openLoop sends the arrivals on schedule from clientConns senders while
// one poller tracks outstanding jobs, then drains. It returns every
// request's record, the poll round trips, and the backlog when the
// arrivals ended.
func openLoop(c *client, in *serveInputs, seed int64, arrivals []arrival) ([]*jobRec, []time.Duration, int) {
	recs := make([]*jobRec, len(arrivals))
	var mu sync.Mutex
	outstanding := map[string]*jobRec{}
	var pollRTTs []time.Duration

	finish := func(r *jobRec, st jobStatus) {
		r.observed = time.Now()
		r.status = st
		if r.err == nil {
			r.err = checkStatus(st, r.Scenario)
		}
	}
	// Request bodies are rendered before the clock starts; each sender
	// takes the next arrival in order and sleeps until it is due.
	bodies := make([][]byte, len(arrivals))
	paths := make([]string, len(arrivals))
	for i, a := range arrivals {
		kind := a.Kind
		if kind == kindRepeat {
			kind = arrivals[a.Of].Kind
		}
		bodies[i], paths[i] = in.requestBody(kind, a.Scenario, seed, a.Pad)
	}
	var next atomic.Int64
	start := time.Now().Add(20 * time.Millisecond)
	var senders sync.WaitGroup
	for w := 0; w < clientConns; w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				r := &jobRec{arrival: arrivals[i], due: start.Add(time.Duration(arrivals[i].At * float64(time.Second)))}
				recs[i] = r
				time.Sleep(time.Until(r.due))
				body, path := bodies[i], paths[i]
				var st jobStatus
				r.sent = time.Now()
				code, err := c.do("POST", path, body, &st)
				r.submitRTT = time.Since(r.sent)
				switch {
				case err != nil:
					r.err = err
				case code != http.StatusAccepted:
					r.err = fmt.Errorf("HTTP %d", code)
				}
				if r.err != nil || st.State == "done" || st.State == "failed" {
					finish(r, st)
					continue
				}
				r.id = st.ID
				mu.Lock()
				outstanding[r.id] = r
				mu.Unlock()
			}
		}()
	}

	arrivalsEnd := start.Add(time.Duration(arrivals[len(arrivals)-1].At * float64(time.Second)))
	backlog := -1
	sendersDone := make(chan struct{})
	go func() { senders.Wait(); close(sendersDone) }()
	var drainDeadline time.Time
	for {
		select {
		case <-sendersDone:
			if drainDeadline.IsZero() {
				drainDeadline = time.Now().Add(drainTimeout)
			}
		default:
		}
		mu.Lock()
		if backlog < 0 && !time.Now().Before(arrivalsEnd) {
			backlog = len(outstanding)
		}
		var ids []string
		for id := range outstanding {
			ids = append(ids, id)
		}
		mu.Unlock()
		if !drainDeadline.IsZero() && (len(ids) == 0 || time.Now().After(drainDeadline)) {
			break
		}
		for _, id := range ids {
			mu.Lock()
			r := outstanding[id]
			mu.Unlock()
			var st jobStatus
			t0 := time.Now()
			_, err := c.do("GET", "/v1/jobs/"+id, nil, &st)
			rtt := time.Since(t0)
			r.polls++
			pollRTTs = append(pollRTTs, rtt)
			if err != nil || (st.State != "queued" && st.State != "running") {
				r.err = err
				finish(r, st)
				mu.Lock()
				delete(outstanding, id)
				mu.Unlock()
			}
		}
		time.Sleep(pollInterval)
	}
	for _, r := range outstanding {
		r.err = fmt.Errorf("job %s not finished %s after the last arrival", r.id, drainTimeout)
	}
	if backlog < 0 {
		backlog = 0
	}
	return recs, pollRTTs, backlog
}

// serveRun holds one serve run's live state.
type serveRun struct {
	cfg    config
	hc     *http.Client
	srv    *server
	in     *serveInputs
	flags  []string
	stopMu sync.Mutex
}

// shutdown stops the live server, if any.
func (sr *serveRun) shutdown() {
	sr.stopMu.Lock()
	defer sr.stopMu.Unlock()
	if sr.srv != nil {
		sr.srv.stop()
		sr.srv = nil
	}
}

// setupOnce generates the inputs, starts a fresh server and warms it up.
func (sr *serveRun) setupOnce(dataDir string) error {
	in, err := newServeInputs()
	if err != nil {
		return err
	}
	sr.in = in
	srv, err := startServer(sr.cfg.serveBin, dataDir, filepath.Join(sr.cfg.workDir, "serve.log"), sr.hc)
	if err != nil {
		return err
	}
	sr.stopMu.Lock()
	sr.srv = srv
	sr.stopMu.Unlock()
	return runClosed(&client{hc: sr.hc, base: srv.base}, in, sr.cfg.seed, warmUpJobs(in))
}

// durableJobs is how many measured arrivals the durable count pass
// replays.
const durableJobs = 300

// durableCounts measures the durable layer's work per job on the
// workload's own inputs: a separate server with a data dir is warmed up
// like the measured one and then replays the first measured arrivals in
// a closed loop; /metrics deltas over the replay give journal appends
// and bytes and checkpoint saves per job. Counts, not times, so the
// disk's speed does not enter them.
func (sr *serveRun) durableCounts(arrivals []arrival) (appends, bytes, saves float64, err error) {
	dataDir := filepath.Join(sr.cfg.workDir, "serve-data")
	defer os.RemoveAll(dataDir)
	srv, err := startServer(sr.cfg.serveBin, dataDir, filepath.Join(sr.cfg.workDir, "serve-durable.log"), sr.hc)
	if err != nil {
		return 0, 0, 0, err
	}
	defer srv.stop()
	c := &client{hc: sr.hc, base: srv.base}
	if err := runClosed(c, sr.in, sr.cfg.seed, warmUpJobs(sr.in)); err != nil {
		return 0, 0, 0, err
	}
	m0, err := c.scrape()
	if err != nil {
		return 0, 0, 0, err
	}
	if err := runClosed(c, sr.in, sr.cfg.seed, arrivals[:min(durableJobs, len(arrivals))]); err != nil {
		return 0, 0, 0, err
	}
	m1, err := c.scrape()
	if err != nil {
		return 0, 0, 0, err
	}
	d := func(k string) float64 { return m1[k] - m0[k] }
	jobs := d("aitia_jobs_submitted_total")
	return ratio(d("aitia_journal_appends_total"), jobs), ratio(d("aitia_journal_appended_bytes_total"), jobs),
		ratio(d("aitia_checkpoint_saves_total"), jobs), nil
}

// runServe is the serve workload: set up (three times, keeping the last
// server), run the open loop, and report end-to-end or per-layer metrics.
func runServe(cfg config, o *outcome) ([]string, error) {
	bin, err := filepath.Abs(cfg.serveBin)
	if err != nil {
		return nil, err
	}
	cfg.serveBin = bin
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	// Two Ps: the client's senders and poller mostly wait on the network,
	// and the calibration sampler must not hold up the one P they would
	// otherwise share.
	runtime.GOMAXPROCS(2)
	sr := &serveRun{cfg: cfg, hc: newHTTPClient()}
	defer sr.shutdown()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer func() { signal.Stop(sigs); close(sigs) }()
	go func() {
		if _, ok := <-sigs; ok {
			sr.shutdown()
			os.Exit(2)
		}
	}()

	var times []float64
	for r := 0; r < setupReps; r++ {
		sr.shutdown()
		t0 := time.Now()
		if err := sr.setupOnce(""); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		o.sampleSetup()
	}
	o.set("setup_s", median(times))

	c := &client{hc: sr.hc, base: sr.srv.base}
	arrivals := serveArrivals(cfg.seed, serveRate, cfg.seconds, sr.in.names, sr.in.reportNames, measurePad)
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("no arrivals in %gs at %g/s", cfg.seconds, serveRate)
	}
	m0, err := c.scrape()
	if err != nil {
		return nil, err
	}
	h0, err := heapStats(sr.hc, sr.srv.debug)
	if err != nil {
		return nil, err
	}
	pid := sr.srv.cmd.Process.Pid
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	stopCalib := o.host.during(calibInterval)
	recs, pollRTTs, backlog := openLoop(c, sr.in, cfg.seed, arrivals)
	stopCalib()
	cpu1, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	m1, err := c.scrape()
	if err != nil {
		return nil, err
	}
	h1, err := heapStats(sr.hc, sr.srv.debug)
	if err != nil {
		return nil, err
	}

	var lats, lags []float64
	verdicts := 0
	var first, last time.Time
	for i, r := range recs {
		lags = append(lags, float64(r.sent.Sub(r.due).Nanoseconds())/1e6)
		ok := r.err == nil
		o.attempt(ok)
		if !ok {
			sr.flags = append(sr.flags, fmt.Sprintf("arrival %d (%s %s): %v", i, r.Kind, r.Scenario, r.err))
			continue
		}
		ms := float64(r.observed.Sub(r.due).Nanoseconds()) / 1e6
		lats = append(lats, ms)
		verdicts++
		if first.IsZero() || r.due.Before(first) {
			first = r.due
		}
		if r.observed.After(last) {
			last = r.observed
		}
	}
	lagP90, _ := percentile(lags, 0.90)
	lagP99, _ := percentile(lags, 0.99)
	o.set("bench.lag_ms_p99", lagP99)
	o.set("bench.outstanding_end", float64(backlog))
	if lagP90 > maxLagMS {
		o.invalid = append(o.invalid, fmt.Sprintf("generator fell behind: lag p90 %.2f ms > %g ms", lagP90, maxLagMS))
	}
	if backlog > maxOutstandingEnd {
		o.invalid = append(o.invalid, fmt.Sprintf("backlog grew: %d jobs outstanding when the arrivals ended", backlog))
	}
	if verdicts == 0 {
		return sr.flags, fmt.Errorf("no verdicts")
	}
	o.latencies(lats, serveLimitMS)
	o.set("cpu_ms_per_verdict", (cpu1-cpu0)*1e3/float64(verdicts))
	o.set("alloc_mb_per_diagnosis", (h1["TotalAlloc"]-h0["TotalAlloc"])/float64(verdicts)/1e6)
	o.set("peak_rss_mb", peakRSSMB(pid))
	if cfg.trace {
		if err := sr.attribute(c, recs, pollRTTs, m0, m1, h1, last.Sub(first), o); err != nil {
			return sr.flags, err
		}
	}
	return sr.flags, nil
}

// procCPUSeconds reads a process's user plus system CPU time, all its
// threads, from /proc (clock ticks of 1/100 s).
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the first,
	// utime and stime the 12th and 13th.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return (utime + stime) / 100, nil
}

// span is one parsed trace span, in nanoseconds from the job's trace
// epoch.
type span struct {
	cat, name  string
	start, end int64
	args       map[string]int64
}

// fetchSpans reads a job's Chrome trace and pairs its B/E events.
func (c *client) fetchSpans(id string) ([]span, error) {
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			PID  int64          `json:"pid"`
			TID  int64          `json:"tid"`
			Args map[string]any `json:"args"` // numbers on spans, names on metadata
		} `json:"traceEvents"`
	}
	if _, err := c.do("GET", "/v1/jobs/"+id+"/trace", nil, &tr); err != nil {
		return nil, err
	}
	open := map[[2]int64][]span{}
	var out []span
	for _, ev := range tr.TraceEvents {
		lane := [2]int64{ev.PID, ev.TID}
		ns := int64(ev.TS * 1e3)
		switch ev.Ph {
		case "B":
			args := map[string]int64{}
			for k, v := range ev.Args {
				if f, ok := v.(float64); ok {
					args[k] = int64(f)
				}
			}
			open[lane] = append(open[lane], span{cat: ev.Cat, name: ev.Name, start: ns, args: args})
		case "E":
			st := open[lane]
			if len(st) == 0 {
				return nil, fmt.Errorf("job %s trace: unmatched end event", id)
			}
			sp := st[len(st)-1]
			open[lane] = st[:len(st)-1]
			sp.end = ns
			out = append(out, sp)
		}
	}
	return out, nil
}

// attribute is the serve workload's traced analysis: per-job traces and
// /metrics deltas give the per-layer metrics and the ledger; the
// micro-loops give unit costs on the workload's own programs and
// reports.
func (sr *serveRun) attribute(c *client, recs []*jobRec, pollRTTs []time.Duration,
	m0, m1 metricsSnapshot, heap map[string]float64, window time.Duration, o *outcome) error {
	in := sr.in
	var srcs, reports []string
	var progs, reportProgs []*kir.Program
	var replays []replay
	for _, n := range in.names {
		srcs = append(srcs, padSource(in.items[n].Source, sr.cfg.seed, 0))
		progs = append(progs, in.progs[n])
		replays = append(replays, in.replays[n])
		if text, ok := in.reports[n]; ok {
			reports = append(reports, text)
			reportProgs = append(reportProgs, in.progs[n])
		}
	}
	parseUS, err := microKasm(srcs)
	if err != nil {
		return err
	}
	kc, err := microKVM(progs)
	if err != nil {
		return err
	}
	sc, err := microSched(replays)
	if err != nil {
		return err
	}
	ic, err := microIngest(reportProgs, reports)
	if err != nil {
		return err
	}
	o.set("kasm.parse_us", parseUS)
	setKVMSched(o, kc, sc)
	o.set("ingest.parse_us", ic.ParseUS)
	o.set("ingest.resolve_us", ic.ResolveUS)

	d := func(k string) float64 { return m1[k] - m0[k] }
	submitted := d("aitia_jobs_submitted_total")
	o.set("service.cache_hit_frac", ratio(d("aitia_cache_hits_total"), submitted))
	o.set("service.rejected", d("aitia_jobs_rejected_total"))
	o.set("service.worker_busy_frac", ratio(d(`aitia_span_seconds_total{cat="job",name="run"}`), 2*window.Seconds()))
	arrivals := make([]arrival, len(recs))
	for i, r := range recs {
		arrivals[i] = r.arrival
	}
	appends, bytesApp, saves, err := sr.durableCounts(arrivals)
	if err != nil {
		return err
	}
	o.set("durable.appends_per_job", appends)
	o.set("durable.bytes_per_job", bytesApp)
	o.set("durable.checkpoint_saves_per_job", saves)
	appendUS, err := microJournal(filepath.Join(sr.cfg.workDir, "journal-micro"), int(ratio(bytesApp, appends)))
	if err != nil {
		return err
	}
	o.set("durable.append_us", appendUS)
	o.set("runtime.gc_cpu_frac", heap["GCCPUFraction"])

	l := &ledger{}
	var hitRTT, pollUS, queueMS, runMS []float64
	var agg struct {
		cold, reportJobs, polls                        float64
		lifs, search, ca, mgr, schedules, pruned, exec float64
		prefixLIFS, replayed, snapshot, lifsExec       float64
		flips, skipped, caRuns, prefixCA, chain        float64
		testSet, priorHits, candidates, guided, blind  float64
	}
	for _, rtt := range pollRTTs {
		pollUS = append(pollUS, float64(rtt.Nanoseconds())/1e3)
	}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		total := float64(r.observed.Sub(r.due).Nanoseconds())
		l.Verdicts++
		l.Total += total
		l.add("bench.lag", float64(r.sent.Sub(r.due).Nanoseconds()))
		if r.status.CacheHit {
			hitRTT = append(hitRTT, float64(r.submitRTT.Nanoseconds())/1e3)
			l.add("httpapi.submit", float64(r.observed.Sub(r.sent).Nanoseconds()))
			continue
		}
		spans, err := c.fetchSpans(r.id)
		if err != nil {
			return err
		}
		var run, queued, diag, az *span
		var reproduce []interval
		var search *span
		for i := range spans {
			s := &spans[i]
			switch s.cat + "." + s.name {
			case "job.run":
				run = s
			case "job.queued":
				queued = s
			case "manager.diagnose":
				diag = s
			case "manager.reproduce":
				reproduce = append(reproduce, interval{s.start, s.end})
			case "lifs.search":
				search = s
			case "ca.analyze":
				az = s
			}
		}
		if run == nil || queued == nil || diag == nil || az == nil || search == nil {
			return fmt.Errorf("job %s trace lacks the job, manager, lifs or ca spans", r.id)
		}
		res := r.status.Result
		epoch := r.status.Submitted.UnixNano()
		lifsNS := float64(covered(interval{diag.start, diag.end}, reproduce))
		caNS := float64(az.end - az.start)
		mgrNS := float64(selfTime(interval{diag.start, diag.end}, append(reproduce, interval{az.start, az.end})))
		// The result counts search and analysis instructions together;
		// they are split in proportion to the two stages' span times, and
		// priced as in the library ledger (raw steps for the search,
		// enforced steps for the flip tests).
		lifsInstrs := float64(res.Executed) * ratio(lifsNS, lifsNS+caNS)
		lifsExec := lifsInstrs * kc.StepNS
		caExec := (float64(res.Executed) - lifsInstrs) * sc.StepNS
		l.add("httpapi.submit", float64(epoch-r.sent.UnixNano()))
		l.add("service.queue", float64(queued.end-queued.start))
		l.add("service.run", float64(selfTime(interval{run.start, run.end}, []interval{{diag.start, diag.end}})))
		l.add("manager", mgrNS)
		l.add("lifs.kvm_steps", lifsExec)
		l.add("lifs.residual", lifsNS-lifsExec)
		l.add("ca.enforced_steps", caExec)
		l.add("ca.residual", caNS-caExec)
		l.add("httpapi.poll_wait", float64(r.observed.UnixNano()-(epoch+run.end)))

		queueMS = append(queueMS, float64(queued.end-queued.start)/1e6)
		runMS = append(runMS, float64(run.end-run.start)/1e6)
		agg.cold++
		agg.polls += float64(r.polls)
		agg.lifs += lifsNS
		agg.search += float64(search.end - search.start)
		agg.ca += caNS
		agg.mgr += float64(run.end-run.start) - lifsNS - caNS
		agg.exec += float64(res.Executed)
		agg.lifsExec += lifsExec
		agg.schedules += float64(res.LIFSSchedules)
		agg.pruned += float64(res.LIFSPruned)
		agg.prefixLIFS += float64(search.args["prefix_hits"])
		agg.replayed += float64(res.Replayed)
		agg.snapshot += float64(res.SnapshotBytes)
		agg.flips += float64(res.FlipsExecuted)
		agg.skipped += float64(res.FlipsSkipped)
		agg.caRuns += float64(az.args["schedules"])
		agg.prefixCA += float64(az.args["prefix_hits"])
		agg.chain += float64(len(res.ChainRaces))
		agg.testSet += float64(res.TestSetSize)
		agg.priorHits += float64(res.PriorHits)
		kind := r.Kind
		if kind == kindRepeat {
			kind = recs[r.Of].Kind
		}
		if kind == kindReport {
			agg.reportJobs++
			agg.candidates += float64(diag.args["slices"])
			agg.guided += float64(res.LIFSSchedules)
			agg.blind += float64(in.blind[r.Scenario])
		}
	}
	if agg.cold == 0 {
		return fmt.Errorf("no cold job finished")
	}
	n := agg.cold
	hitP50, _ := percentile(hitRTT, 0.5)
	pollP50, _ := percentile(pollUS, 0.5)
	qP50, _ := percentile(queueMS, 0.5)
	qP99, ok := percentile(queueMS, 0.99)
	if !ok {
		fmt.Printf("note: service.queue_wait_ms_p99 from %d queued jobs (fewer than %d)\n", len(queueMS), minP99Verdicts)
	}
	runP50, _ := percentile(runMS, 0.5)
	o.set("httpapi.submit_us_p50", hitP50)
	o.set("httpapi.poll_us_p50", pollP50)
	o.set("httpapi.polls_per_job", agg.polls/n)
	o.set("service.queue_wait_ms_p50", qP50)
	o.set("service.queue_wait_ms_p99", qP99)
	o.set("service.run_ms_p50", runP50)
	o.set("kvm.instrs_per_diagnosis", agg.exec/n)
	o.set("lifs.ms", agg.lifs/n/1e6)
	o.set("lifs.schedules", agg.schedules/n)
	o.set("lifs.us_per_schedule", ratio(agg.search/1e3, agg.schedules))
	o.set("lifs.pruned_frac", ratio(agg.pruned, agg.pruned+agg.schedules))
	o.set("lifs.replayed_frac", ratio(agg.replayed, agg.exec))
	o.set("lifs.prefix_hit_frac", ratio(agg.prefixLIFS, agg.schedules))
	o.set("lifs.snapshot_kb", agg.snapshot/n/1024)
	o.set("lifs.attributed_frac", ratio(agg.lifsExec, agg.lifs))
	o.set("lifs.residual_ms", (agg.lifs-agg.lifsExec)/n/1e6)
	o.set("ca.ms", agg.ca/n/1e6)
	o.set("ca.flips_executed", agg.flips/n)
	o.set("ca.flips_skipped", agg.skipped/n)
	o.set("ca.us_per_flip", ratio(agg.ca/1e3, agg.flips))
	o.set("ca.root_cause_frac", ratio(agg.chain, agg.testSet))
	o.set("ca.prefix_hit_frac", ratio(agg.prefixCA, agg.caRuns))
	o.set("prior.hit_frac", ratio(agg.priorHits, agg.testSet))
	o.set("prior.skip_frac", ratio(agg.skipped, agg.flips+agg.skipped))
	o.set("ingest.guided_sched_frac", ratio(agg.guided, agg.blind))
	o.set("manager.overhead_ms", agg.mgr/n/1e6)
	o.set("manager.candidates_per_report", ratio(agg.candidates, agg.reportJobs))
	o.set("obs.overhead_frac", 0)
	o.ledger = l
	return nil
}
