// Command aitia-serve runs the diagnosis service: a long-running HTTP
// daemon that accepts kasm programs or built-in scenario names as jobs,
// runs the LIFS + Causality Analysis pipeline on a worker pool, and
// serves the resulting causality chains. See README.md ("Running as a
// service") for the endpoints and curl examples.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aitia/internal/faultinject"
	"aitia/internal/fleet"
	"aitia/internal/service"
	"aitia/internal/service/httpapi"
)

// parsePeers parses the -peers flag: comma-separated id=url entries,
// e.g. "n1=http://host1:8080,n2=http://host2:8080". The local node's
// entry may be included (its URL is ignored for routing to self).
func parsePeers(spec string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		id, url, ok := strings.Cut(ent, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("malformed peer entry %q (want id=url)", ent)
		}
		peers[id] = url
	}
	return peers, nil
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 4, "worker-pool size (concurrent diagnoses)")
		queue      = flag.Int("queue", 64, "job-queue depth (backpressure beyond this)")
		cacheSize  = flag.Int("cache", 128, "result-cache capacity in entries")
		jobTimeout = flag.Duration("job-timeout", 2*time.Minute, "per-job deadline")
		jobWorkers = flag.Int("job-workers", 1, "per-job parallelism (parallel flip tests)")
		maxJobW    = flag.Int("max-job-workers", 8, "cap on the per-request 'workers' option (parallel LIFS search)")
		drain      = flag.Duration("drain-timeout", 5*time.Minute, "max time to drain in-flight jobs on shutdown")
		debugAddr  = flag.String("debug-addr", "", "listen address for the net/http/pprof profiling endpoints (e.g. localhost:6060); empty disables them")
		faultSeed  = flag.Int64("fault-seed", 0, "seed for deterministic fault injection (chaos testing); active when -fault-rate > 0")
		faultRate  = flag.Float64("fault-rate", 0, "per-decision fault probability for every fault kind; 0 disables injection entirely")
		retryMax   = flag.Int("retry-max-attempts", 0, "attempts (including the first) for faulted operations; 0 uses the built-in default")
		retryBase  = flag.Duration("retry-base-backoff", 0, "initial retry backoff, doubling per attempt; 0 uses the built-in default")
		retryCap   = flag.Duration("retry-max-backoff", 0, "backoff ceiling; 0 uses the built-in default")
		requeues   = flag.Int("max-requeues", 0, "requeues per job after classified infrastructure faults; 0 uses the default (2), negative disables")
		dataDir    = flag.String("data-dir", "", "directory for the durable job journal and search checkpoints; empty runs in-memory (no crash recovery)")
		syncWrites = flag.Bool("sync", false, "with -data-dir: fsync every journal append (slower, survives power loss, not just process death)")
		ckEvery    = flag.Int("checkpoint-every", 0, "with -data-dir: also checkpoint LIFS every N schedules within a phase (serial searches only); 0 checkpoints at phase boundaries only")
		priorMin   = flag.Int("prior-min-support", 0, "benign observations, with no root-cause or ambiguous one, required before the learned prior skips a race's flip test and settles it benign; the prior only reorders every other flip, and rebuilds from the job journal on restart (0 = default 1, negative disables the prior)")
		nodeID     = flag.String("node-id", "", "this replica's fleet identity; empty runs single-node")
		peersSpec  = flag.String("peers", "", "fleet members as comma-separated id=url entries (e.g. n1=http://host1:8080,n2=http://host2:8080); requires -node-id")
		leaseTTL   = flag.Duration("lease-ttl", fleet.DefaultLeaseTTL, "branch-lease duration between heartbeats in fleet mode")
		fleetEpoch = flag.Uint64("fleet-epoch", 1, "fleet incarnation; bump after a fleet-wide restart so stale leases from the old incarnation are fenced off")
	)
	flag.Parse()

	var plan *faultinject.Plan
	if *faultRate > 0 {
		plan = faultinject.NewPlan(*faultSeed, *faultRate)
		fmt.Fprintf(os.Stderr, "aitia-serve: fault injection armed (seed %d, rate %g)\n", *faultSeed, *faultRate)
	}

	if *debugAddr != "" {
		// pprof registers on the DefaultServeMux; serve it on its own
		// listener so the profiling surface never shares a port with the
		// public API.
		go func() {
			fmt.Fprintf(os.Stderr, "aitia-serve: pprof on http://%s/debug/pprof/\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "aitia-serve: pprof listener: %v\n", err)
			}
		}()
	}

	// Fleet mode: build the node (membership rings + lease table) before
	// the service opens, so Open can attach the WAL to the lease table
	// and replay any leases the previous incarnation left out.
	var fleetNode *fleet.Node
	var peerURLs map[string]string
	if *peersSpec != "" {
		if *nodeID == "" {
			fmt.Fprintln(os.Stderr, "aitia-serve: -peers requires -node-id")
			os.Exit(1)
		}
		urls, err := parsePeers(*peersSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aitia-serve: %v\n", err)
			os.Exit(1)
		}
		peerURLs = urls
		ids := make([]string, 0, len(urls)+1)
		for id := range urls {
			ids = append(ids, id)
		}
		if _, ok := urls[*nodeID]; !ok {
			ids = append(ids, *nodeID)
		}
		fleetNode = fleet.New(fleet.Config{
			ID:        *nodeID,
			Peers:     ids,
			Epoch:     *fleetEpoch,
			LeaseTTL:  *leaseTTL,
			Fault:     plan,
			Transport: &fleet.HTTPTransport{Peers: urls},
		})
		fmt.Fprintf(os.Stderr, "aitia-serve: fleet member %s (epoch %d, %d members, lease TTL %s)\n",
			*nodeID, *fleetEpoch, len(ids), *leaseTTL)
	}

	svc, err := service.Open(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cacheSize,
		JobTimeout:      *jobTimeout,
		JobWorkers:      *jobWorkers,
		MaxJobWorkers:   *maxJobW,
		MaxRequeues:     *requeues,
		DataDir:         *dataDir,
		SyncWrites:      *syncWrites,
		CheckpointEvery: *ckEvery,
		PriorMinSupport: *priorMin,
		NodeID:          *nodeID,
		Fleet:           fleetNode,
		Fault:           plan,
		Retry: faultinject.RetryPolicy{
			MaxAttempts: *retryMax,
			BaseBackoff: *retryBase,
			MaxBackoff:  *retryCap,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aitia-serve: opening durable state in %s: %v\n", *dataDir, err)
		os.Exit(1)
	}
	if *dataDir != "" {
		fmt.Fprintf(os.Stderr, "aitia-serve: durable state in %s (recovered %d jobs)\n",
			*dataDir, svc.Metrics().JobsRecovered.Value())
	}
	srv := &http.Server{Addr: *addr, Handler: httpapi.NewWithFleet(svc, httpapi.FleetConfig{PeerURLs: peerURLs})}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "aitia-serve: listening on %s (%d workers, queue %d, cache %d)\n",
		*addr, *workers, *queue, *cacheSize)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "aitia-serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, then drain queued
	// and in-flight jobs before exiting.
	fmt.Fprintln(os.Stderr, "aitia-serve: shutting down, draining jobs...")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "aitia-serve: http shutdown: %v\n", err)
	}
	if err := svc.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "aitia-serve: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "aitia-serve: drained cleanly")
}
