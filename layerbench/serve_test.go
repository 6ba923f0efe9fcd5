package main

import (
	"context"
	"net/http/httptest"
	"testing"

	"aitia/internal/service"
	"aitia/internal/service/httpapi"
)

// TestOpenLoopVerdicts drives a short open loop against an in-process
// service: every verdict must carry the golden chain, repeats must be
// answered from the cache, and every request must be accounted for.
func TestOpenLoopVerdicts(t *testing.T) {
	in, err := newServeInputs()
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2, JobWorkers: 1})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(httpapi.New(svc))
	defer srv.Close()
	c := &client{hc: newHTTPClient(), base: srv.URL}

	// A slow rate leaves each repeated job time to finish (and be cached)
	// even under the race detector.
	arrivals := serveArrivals(3, 30, 2, in.names, in.reportNames, measurePad)
	recs, polls, _ := openLoop(c, in, 3, arrivals)
	if len(recs) != len(arrivals) {
		t.Fatalf("%d records for %d arrivals", len(recs), len(arrivals))
	}
	hits := 0
	for i, r := range recs {
		if r.err != nil {
			t.Errorf("arrival %d (%s %s): %v", i, r.Kind, r.Scenario, r.err)
			continue
		}
		if r.sent.Before(r.due) || r.observed.Before(r.sent) {
			t.Errorf("arrival %d: due %v, sent %v, observed %v out of order", i, r.due, r.sent, r.observed)
		}
		if r.Kind == kindRepeat {
			if !r.status.CacheHit {
				t.Errorf("repeat %d of arrival %d was not a cache hit", i, r.Of)
			}
			hits++
		}
	}
	if hits == 0 || len(polls) == 0 {
		t.Errorf("%d cache hits and %d polls: the mix did not exercise both paths", hits, len(polls))
	}

	// The traced view of one cold job pairs its spans.
	for _, r := range recs {
		if r.status.CacheHit || r.err != nil {
			continue
		}
		spans, err := c.fetchSpans(r.id)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, s := range spans {
			names[s.cat+"."+s.name] = true
			if s.end < s.start {
				t.Errorf("span %s.%s ends before it starts", s.cat, s.name)
			}
		}
		for _, want := range []string{"job.queued", "job.run", "manager.diagnose", "lifs.search", "ca.analyze"} {
			if !names[want] {
				t.Errorf("job %s trace lacks %s (has %v)", r.id, want, names)
			}
		}
		break
	}
}
