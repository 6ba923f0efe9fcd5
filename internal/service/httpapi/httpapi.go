// Package httpapi exposes the diagnosis service over HTTP/JSON. The
// service core stays transport-agnostic; this package only translates
// requests and sentinel errors to HTTP semantics:
//
//	POST   /v1/diagnose   submit a job (202; 429 on queue-full backpressure).
//	                      The request's options.workers field parallelizes
//	                      the job's LIFS search (clamped to the server's
//	                      -max-job-workers cap).
//	POST   /v1/diagnose-report  submit a report-driven job: the request's
//	                      report field carries a KCSAN/KASAN-style crash
//	                      report, diagnosed against the program named by
//	                      scenario or source (400 without a report)
//	GET    /v1/jobs       list all jobs
//	GET    /v1/jobs/{id}  poll one job (includes the result when done)
//	GET    /v1/jobs/{id}/trace  the job's execution trace as Chrome
//	                      trace-event JSON (load in chrome://tracing or
//	                      https://ui.perfetto.dev)
//	DELETE /v1/jobs/{id}  cancel a job
//	GET    /v1/scenarios  list the built-in crash-scenario corpus
//	GET    /metrics       Prometheus text-format metrics
//	GET    /healthz       occupancy and drain state
//	GET    /readyz        routability: 503 while draining or while journal
//	                      recovery is still re-enqueueing, so a fleet load
//	                      balancer stops routing before the drain
//	GET    /v1/fleet      fleet membership, leases and handoff counters
//	                      (404 single-node)
//	POST   /v1/fleet/branch  execute one leased LIFS branch (fleet peers
//	                      only; the distributed-search executor side)
//	GET    /v1/fleet/ping    liveness probe for fleet peers
//
// In fleet mode, POST /v1/diagnose(-report) consistently hashes the
// request's program to its owning replica and proxies the submission
// there (one hop at most, marked by an X-Aitia-Fleet-Forwarded header);
// a dead owner's jobs are accepted locally — the handoff.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"aitia/internal/fleet"
	"aitia/internal/service"
)

// forwardedHeader breaks proxy loops: a submission that already hopped
// once is handled where it lands.
const forwardedHeader = "X-Aitia-Fleet-Forwarded"

// FleetConfig wires a handler's fleet mode: the peer URL map for
// submission proxying ("" or nil entries disable proxying to that
// peer).
type FleetConfig struct {
	// PeerURLs maps fleet node IDs to base URLs.
	PeerURLs map[string]string
	// Client is the proxy HTTP client (default: 30s timeout).
	Client *http.Client
}

// New returns the HTTP handler for a running service (single-node: no
// submission proxying; the fleet endpoints still serve when the service
// carries a fleet node).
func New(svc *service.Service) http.Handler { return NewWithFleet(svc, FleetConfig{}) }

// NewWithFleet returns the HTTP handler with fleet submission routing.
func NewWithFleet(svc *service.Service, fc FleetConfig) http.Handler {
	mux := http.NewServeMux()
	submit := func(w http.ResponseWriter, r *http.Request, req service.Request) {
		if st, ok := routeSubmit(w, r, svc, fc, req); ok {
			writeJSON(w, http.StatusAccepted, st)
		}
	}
	mux.HandleFunc("POST /v1/diagnose", func(w http.ResponseWriter, r *http.Request) {
		var req service.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
			return
		}
		submit(w, r, req)
	})
	mux.HandleFunc("POST /v1/diagnose-report", func(w http.ResponseWriter, r *http.Request) {
		var req service.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
			return
		}
		if req.Report == "" {
			writeError(w, http.StatusBadRequest, "diagnose-report needs a non-empty report field")
			return
		}
		submit(w, r, req)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := svc.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		trace, err := svc.JobTrace(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(trace); err != nil {
			return // client went away; nothing to salvage
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := svc.Cancel(r.PathValue("id")); err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Scenarios())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		svc.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := svc.Health()
		code := http.StatusOK
		if h.Status != "ok" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ok, reason := svc.Ready()
		if ok {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not_ready", "reason": reason})
	})
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		n := svc.Fleet()
		if n == nil {
			writeError(w, http.StatusNotFound, "not a fleet member")
			return
		}
		writeJSON(w, http.StatusOK, n.Status())
	})
	mux.HandleFunc("POST /v1/fleet/branch", func(w http.ResponseWriter, r *http.Request) {
		fleet.BranchHandler()(w, r)
	})
	mux.HandleFunc("GET /v1/fleet/ping", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": svc.NodeID()})
	})
	return mux
}

// routeSubmit decides where a submission runs. Single-node (or already
// forwarded, or no peer URLs): locally. Fleet mode: the program hash's
// ring owner; a submission landing on the wrong replica is proxied to
// the owner with the forwarded marker set — unless the owner is dead or
// unreachable, in which case the local node takes the job over (the
// handoff) rather than failing the client. Returns (status, true) when
// the job was accepted locally; otherwise the response (proxied or
// error) has already been written.
func routeSubmit(w http.ResponseWriter, r *http.Request, svc *service.Service, fc FleetConfig, req service.Request) (service.JobStatus, bool) {
	// Resolved once: the ring key comes from the program a local
	// submission then runs; a proxied one is resolved again only by
	// its owner.
	rr, err := svc.Resolve(req)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return service.JobStatus{}, false
	}
	n := svc.Fleet()
	if n == nil || len(fc.PeerURLs) == 0 || r.Header.Get(forwardedHeader) != "" {
		return submitLocal(w, svc, rr)
	}
	owner := n.OwnerOf(rr.Hash())
	if owner == "" || owner == n.ID() || !n.Alive(owner) || fc.PeerURLs[owner] == "" {
		if owner != "" && owner != n.ID() {
			n.NoteJobHandoff()
		}
		return submitLocal(w, svc, rr)
	}
	if proxySubmit(w, r, fc, owner, req) {
		return service.JobStatus{}, false
	}
	// The owner did not answer: mark it down and take the job — a
	// replica-to-replica handoff, never a client-visible failure.
	n.MarkDown(owner)
	n.NoteJobHandoff()
	return submitLocal(w, svc, rr)
}

func submitLocal(w http.ResponseWriter, svc *service.Service, rr *service.Resolved) (service.JobStatus, bool) {
	st, err := svc.SubmitResolved(rr)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return service.JobStatus{}, false
	}
	return st, true
}

// proxySubmit forwards the submission to the owner and relays its
// response verbatim. Reports success of the proxying itself, not of the
// submission.
func proxySubmit(w http.ResponseWriter, r *http.Request, fc FleetConfig, owner string, req service.Request) bool {
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	client := fc.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	preq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, fc.PeerURLs[owner]+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(forwardedHeader, "1")
	resp, err := client.Do(preq)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// statusFor maps the service's sentinel errors to HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, service.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, service.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, service.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already on the wire: an encode failure here is a
	// client disconnect, with nothing left to report to anyone.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
