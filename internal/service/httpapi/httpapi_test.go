package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aitia"
	"aitia/internal/fleet"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/obs"
	"aitia/internal/scenarios"
	"aitia/internal/service"
)

func testService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Diagnoser == nil {
		cfg.Diagnoser = func(ctx context.Context, prog *kir.Program, req service.Request, tr *obs.Tracer, _ service.FaultContext) (*aitia.ResultSummary, error) {
			return &aitia.ResultSummary{Failure: "fake", Chain: "A1 => B1"}, nil
		}
	}
	s := service.New(cfg)
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// TestReadyzDistinctFromHealthz: /readyz flips to 503 the moment the
// drain starts, while the process is still alive — the load-balancer
// signal, not the liveness signal.
func TestReadyzDistinctFromHealthz(t *testing.T) {
	svc := testService(t, service.Config{})
	h := New(svc)
	if w := get(t, h, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", w.Code)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := get(t, h, "/readyz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", w.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "not_ready" || body["reason"] != "draining" {
		t.Errorf("body = %v, want not_ready/draining", body)
	}
}

// TestFleetEndpointSingleNode: a non-fleet service 404s /v1/fleet.
func TestFleetEndpointSingleNode(t *testing.T) {
	h := New(testService(t, service.Config{}))
	if w := get(t, h, "/v1/fleet"); w.Code != http.StatusNotFound {
		t.Errorf("/v1/fleet single-node = %d, want 404", w.Code)
	}
}

// TestFleetEndpointStatus: a fleet member serves its membership,
// liveness view and lease counters.
func TestFleetEndpointStatus(t *testing.T) {
	n := fleet.New(fleet.Config{ID: "n1", Peers: []string{"n1", "n2", "n3"}, Epoch: 4})
	n.MarkDown("n3")
	h := New(testService(t, service.Config{NodeID: "n1", Fleet: n}))

	w := get(t, h, "/v1/fleet")
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/fleet = %d, want 200", w.Code)
	}
	var st fleet.Status
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Node != "n1" || st.Epoch != 4 || len(st.Peers) != 3 {
		t.Errorf("status = %+v, want n1 epoch 4 with 3 peers", st)
	}
	for _, p := range st.Peers {
		if p.ID == "n3" && p.Alive {
			t.Error("n3 reported alive after MarkDown")
		}
	}

	if w := get(t, h, "/v1/fleet/ping"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"n1"`) {
		t.Errorf("/v1/fleet/ping = %d %q, want 200 naming n1", w.Code, w.Body.String())
	}
}

// fleetPair builds two fleet services behind real HTTP listeners with
// each other's URLs wired for submission proxying, and returns them
// with their nodes.
func fleetPair(t *testing.T) (map[string]*service.Service, map[string]*fleet.Node, map[string]string) {
	t.Helper()
	ids := []string{"n1", "n2"}
	svcs := make(map[string]*service.Service, 2)
	nodes := make(map[string]*fleet.Node, 2)
	urls := make(map[string]string, 2)
	servers := make(map[string]*httptest.Server, 2)
	for _, id := range ids {
		n := fleet.New(fleet.Config{ID: id, Peers: ids, Epoch: 1})
		nodes[id] = n
		svcs[id] = testService(t, service.Config{NodeID: id, Fleet: n})
	}
	// Two passes: every handler needs the full URL map, which only
	// exists after both listeners are up.
	for _, id := range ids {
		srv := httptest.NewServer(nil)
		servers[id] = srv
		urls[id] = srv.URL
		t.Cleanup(srv.Close)
	}
	for _, id := range ids {
		servers[id].Config.Handler = NewWithFleet(svcs[id], FleetConfig{PeerURLs: urls})
	}
	return svcs, nodes, urls
}

func submitBody(t *testing.T) []byte {
	t.Helper()
	body, err := json.Marshal(service.Request{Scenario: "cve-2017-15649"})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSubmitProxiedToOwner: a submission landing on the non-owner
// replica is proxied to the ring owner, which runs the job; the client
// sees one 202 either way.
func TestSubmitProxiedToOwner(t *testing.T) {
	svcs, nodes, urls := fleetPair(t)
	rr, err := svcs["n1"].Resolve(service.Request{Scenario: "cve-2017-15649"})
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes["n1"].OwnerOf(rr.Hash())
	nonOwner := "n1"
	if owner == "n1" {
		nonOwner = "n2"
	}

	resp, err := http.Post(urls[nonOwner]+"/v1/diagnose", "application/json", bytes.NewReader(submitBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit via non-owner = %d, want 202", resp.StatusCode)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Node != owner {
		t.Errorf("job accepted on %q, want ring owner %q", st.Node, owner)
	}
	if _, err := svcs[owner].Wait(context.Background(), st.ID); err != nil {
		t.Errorf("job not found on the owner: %v", err)
	}
	if _, err := svcs[nonOwner].Job(st.ID); err == nil {
		t.Error("proxied job also exists on the non-owner")
	}
}

// TestSubmitForwardedHeaderBreaksLoop: a request already carrying the
// forwarded marker is handled where it lands, even on the wrong
// replica — one hop, never a proxy cycle.
func TestSubmitForwardedHeaderBreaksLoop(t *testing.T) {
	svcs, nodes, urls := fleetPair(t)
	rr, err := svcs["n1"].Resolve(service.Request{Scenario: "cve-2017-15649"})
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes["n1"].OwnerOf(rr.Hash())
	nonOwner := "n1"
	if owner == "n1" {
		nonOwner = "n2"
	}

	req, _ := http.NewRequest(http.MethodPost, urls[nonOwner]+"/v1/diagnose", bytes.NewReader(submitBody(t)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Node != nonOwner {
		t.Errorf("forwarded submission ran on %q, want local %q", st.Node, nonOwner)
	}
	if _, err := svcs[nonOwner].Wait(context.Background(), st.ID); err != nil {
		t.Errorf("job missing on the landing node: %v", err)
	}
}

// TestSubmitHandoffWhenOwnerDead: with the ring owner marked down, the
// replica the client reached takes the job itself instead of failing
// the submission.
func TestSubmitHandoffWhenOwnerDead(t *testing.T) {
	svcs, nodes, urls := fleetPair(t)
	rr, err := svcs["n1"].Resolve(service.Request{Scenario: "cve-2017-15649"})
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes["n1"].OwnerOf(rr.Hash())
	nonOwner := "n1"
	if owner == "n1" {
		nonOwner = "n2"
	}
	nodes[nonOwner].MarkDown(owner)

	resp, err := http.Post(urls[nonOwner]+"/v1/diagnose", "application/json", bytes.NewReader(submitBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Node != nonOwner {
		t.Errorf("dead-owner job ran on %q, want the handling replica %q", st.Node, nonOwner)
	}
	if _, err := svcs[nonOwner].Wait(context.Background(), st.ID); err != nil {
		t.Errorf("handed-off job missing: %v", err)
	}
	if got := nodes[nonOwner].Status().JobHandoffs; got != 1 {
		t.Errorf("job_handoffs = %d, want 1", got)
	}
}

// TestOwnedSubmissionResolvesOnce: a source submission that lands on
// its ring owner is parsed once there — for its routing key and for the
// job alike — and one proxied from the other replica is parsed once on
// each.
func TestOwnedSubmissionResolvesOnce(t *testing.T) {
	svcs, nodes, urls := fleetPair(t)
	sc, _ := scenarios.ByName("cve-2017-15649")
	prog := sc.MustProgram()
	src := kasm.Disassemble(prog)
	owner := nodes["n1"].OwnerOf(prog.Hash())
	other := "n1"
	if owner == "n1" {
		other = "n2"
	}
	body, err := json.Marshal(service.Request{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	resolved := func(id string) uint64 { return svcs[id].Metrics().RequestsResolved.Value() }
	for _, c := range []struct {
		via                string
		wantOwner, wantOth uint64
	}{{owner, 1, 0}, {other, 2, 1}} {
		resp, err := http.Post(urls[c.via]+"/v1/diagnose", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit via %s = %d", c.via, resp.StatusCode)
		}
		if got, oth := resolved(owner), resolved(other); got != c.wantOwner || oth != c.wantOth {
			t.Errorf("after a submission via %s: owner resolved %d requests, other %d; want %d and %d",
				c.via, got, oth, c.wantOwner, c.wantOth)
		}
	}
}

// TestBranchEndpointRoundTrip: the branch-execution endpoint rejects
// malformed and alien payloads; the executable round-trip itself is
// covered end-to-end by TestHTTPTransportExecutesBranch in the fleet
// package and the core dispatch equivalence tests.
func TestBranchEndpointRoundTrip(t *testing.T) {
	h := New(testService(t, service.Config{}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/fleet/branch", strings.NewReader("not json")))
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed branch request = %d, want 400", w.Code)
	}
}
