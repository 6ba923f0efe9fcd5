package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aitia/internal/faultinject"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/obs"
)

// newWorkerMachine launches a fresh machine of prog for a worker: the
// LIFS pool, a fleet node's branch execution and Causality Analysis's
// flip pool. The launch is an injection point (worker death) under op,
// retried under the plan. A nonzero initSig must match the fresh
// machine's initial state signature.
func newWorkerMachine(ctx context.Context, prog *kir.Program, fault *faultinject.Plan, retry faultinject.RetryPolicy, op string, initSig uint64) (*kvm.Machine, error) {
	var m *kvm.Machine
	err := faultinject.Do(ctx, fault, retry, func(context.Context, int) error {
		if err := fault.Check(faultinject.KindWorkerDeath, op, fault.Seq(), 0); err != nil {
			return err
		}
		wm, err := kvm.New(prog)
		if err != nil {
			return err
		}
		if initSig != 0 && wm.StateSignature() != initSig {
			return fmt.Errorf("%w: initial state signature mismatch", ErrBranchTask)
		}
		wm.SetFaultPlan(fault)
		m = wm
		return nil
	})
	return m, err
}

// runWorkers fans jobs 0..n-1 out to a pool of up to workers goroutines.
// Each worker builds its own state once via newState (both callers use
// this for the worker's private kernel VM) and then processes jobs with
// run. It is the one pool shared by the parallel flip tests of Causality
// Analysis and the parallel LIFS search.
//
// Dispatch is traced when tr is enabled: every executed job becomes one
// span in the "pool" category named name, on the worker slot's track, so
// the trace renders a per-worker timeline of the fleet. Which jobs a
// slot executes (and whether a superseded job executes at all) depends
// on runtime scheduling, so pool spans are Volatile — they carry timing
// and placement, and are excluded from the canonical event sequence.
// Spans are committed in job order after the pool drains, never in
// completion order.
//
// Cancellation and errors stop the pool promptly: the feeder re-checks the
// pool context before handing out each job, so a canceled context or a
// failing worker cuts the run short instead of draining the whole job
// list. runWorkers returns the first newState/run error; if cancellation
// alone cut the run short it returns ctx.Err(). nil means every job ran.
func runWorkers[S any](ctx context.Context, tr *obs.Tracer, name string, workers, n int, newState func(worker int) (S, error), run func(ctx context.Context, st S, worker, job int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type jobSpan struct {
		start, dur time.Duration
		worker     int
		ran        bool
	}
	var spans []jobSpan
	if tr.Enabled() {
		spans = make([]jobSpan, n)
	}

	var (
		mu       sync.Mutex
		firstErr error
		done     atomic.Int64
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := newState(w)
			if err != nil {
				fail(err)
				for range jobs { // keep draining so the feeder never blocks
				}
				return
			}
			for job := range jobs {
				if cctx.Err() != nil {
					continue // unwinding: drop the remaining jobs
				}
				var start time.Duration
				if spans != nil {
					start = tr.Now()
				}
				err := run(cctx, st, w, job)
				if spans != nil {
					spans[job] = jobSpan{start: start, dur: tr.Now() - start, worker: w, ran: true}
				}
				if err != nil {
					fail(err)
					continue
				}
				done.Add(1)
			}
		}()
	}

feed:
	for job := 0; job < n; job++ {
		if cctx.Err() != nil {
			break
		}
		select {
		case jobs <- job:
		case <-cctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	for job, sp := range spans {
		if !sp.ran {
			continue
		}
		tr.Emit(obs.Event{
			Cat: "pool", Name: name, Track: int64(sp.worker),
			Start: sp.start, Dur: sp.dur,
			Info:     []obs.Arg{{Key: "job", Val: int64(job)}, {Key: "worker", Val: int64(sp.worker)}},
			Volatile: true,
		})
	}

	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	if int(done.Load()) < n {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fmt.Errorf("core: worker pool completed %d of %d jobs", done.Load(), n)
	}
	return nil
}
