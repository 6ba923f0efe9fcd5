package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"aitia/internal/faultinject"
	"aitia/internal/kir"
	"aitia/internal/scenarios"
	"aitia/internal/sched"
)

// loopbackDispatcher is the minimal BranchDispatcher: every branch is
// executed in-process via ExecuteBranch from the serialized batch, the
// exact round-trip a remote fleet worker performs. skip drops every
// n-th branch (slot left nil) to exercise the local catch-up sweep;
// skip 0 executes everything.
type loopbackDispatcher struct {
	skip     int
	executed atomic.Int64
	dropped  atomic.Int64
	degraded string
}

func (d *loopbackDispatcher) Degraded() string { return d.degraded }

func (d *loopbackDispatcher) RunBranches(ctx context.Context, prog *kir.Program, batch *BranchBatch) ([]*BranchResult, error) {
	results := make([]*BranchResult, len(batch.Work))
	for i := range batch.Work {
		if d.skip > 0 && (int(d.executed.Load()+d.dropped.Load()))%d.skip == d.skip-1 {
			d.dropped.Add(1)
			continue
		}
		res, err := ExecuteBranch(ctx, prog, batch, i)
		if err != nil {
			return nil, err
		}
		results[i] = res
		d.executed.Add(1)
	}
	return results, nil
}

// deadDispatcher executes nothing — the fully partitioned fleet. Every
// branch must be swept up by the local serial fallback.
type deadDispatcher struct{}

func (deadDispatcher) Degraded() string { return "fleet_partitioned" }
func (deadDispatcher) RunBranches(ctx context.Context, prog *kir.Program, batch *BranchBatch) ([]*BranchResult, error) {
	return make([]*BranchResult, len(batch.Work)), nil
}

// TestDispatchedReproduceMatchesParallel: a search whose task units run
// through the dispatch path — serialized to a BranchBatch, re-executed
// on a fresh VM by ExecuteBranch, re-imported — must reproduce exactly
// what the in-process parallel search finds, across the hand-built
// corpus. So must a search whose worker pool never launches (every
// task swept up on the main machine), and a guided search through the
// fleet, and the serial search, blind and guided. Beyond the
// reproduction, the merged access knowledge, the leaves and the
// schedule and prune counts must match: they count only the units up to
// the winner, each a pure function of the phase, whichever machine ran
// them. This is the determinism contract fleet execution rests on.
func TestDispatchedReproduceMatchesParallel(t *testing.T) {
	for _, sc := range scenarios.HandBuilt() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			prog := sc.MustProgram()
			opts := LIFSOptions{
				WantKind:     sc.WantKind,
				WantInstr:    sc.WantInstr(),
				LeakCheck:    sc.NeedsLeakCheck(),
				Workers:      4,
				RecordLeaves: true,
			}
			base, err := Reproduce(mustMachine(t, prog), opts)
			if err != nil {
				if IsNotReproduced(err) {
					t.Skipf("scenario does not reproduce: %v", err)
				}
				t.Fatalf("baseline Reproduce: %v", err)
			}
			guided := opts
			guided.Guide = guideFor(base)
			guidedBase, err := Reproduce(mustMachine(t, prog), guided)
			if err != nil {
				t.Fatalf("guided baseline Reproduce: %v", err)
			}
			dispatch := func(o LIFSOptions, d BranchDispatcher) LIFSOptions {
				o.Dispatch = d
				return o
			}
			serial := func(o LIFSOptions) LIFSOptions {
				o.Workers = 0
				return o
			}
			poolFailure := opts
			poolFailure.Fault = faultinject.NewPlan(1, 0).SetRate(faultinject.KindWorkerDeath, 1)
			poolFailure.Retry = quickRetry
			remote, guidedRemote := &loopbackDispatcher{}, &loopbackDispatcher{}

			for _, tc := range []struct {
				name string
				opts LIFSOptions
				want *Reproduction
			}{
				{"serial", serial(opts), base},
				{"guided-serial", serial(guided), guidedBase},
				{"all-remote", dispatch(opts, remote), base},
				{"every-3rd-dropped", dispatch(opts, &loopbackDispatcher{skip: 3}), base},
				{"all-dropped", dispatch(opts, deadDispatcher{}), base},
				{"pool-failure", poolFailure, base},
				{"guided-all-remote", dispatch(guided, guidedRemote), guidedBase},
			} {
				got, err := Reproduce(mustMachine(t, prog), tc.opts)
				if err != nil {
					t.Fatalf("%s Reproduce: %v", tc.name, err)
				}
				want := tc.want
				if !reflect.DeepEqual(got.Schedule, want.Schedule) {
					t.Errorf("%s schedule = %v\nwant      %v", tc.name, got.Schedule, want.Schedule)
				}
				if !reflect.DeepEqual(got.Races, want.Races) {
					t.Errorf("%s races = %v, want %v", tc.name, got.Races, want.Races)
				}
				if got.Stats.Interleavings != want.Stats.Interleavings {
					t.Errorf("%s interleavings = %d, want %d", tc.name, got.Stats.Interleavings, want.Stats.Interleavings)
				}
				if g, w := got.Accesses.Export(), want.Accesses.Export(); !reflect.DeepEqual(g, w) {
					t.Errorf("%s merged accesses differ: %d records, want %d", tc.name, len(g), len(w))
				}
				if !reflect.DeepEqual(got.Leaves, want.Leaves) {
					t.Errorf("%s leaves differ: %d, want %d", tc.name, len(got.Leaves), len(want.Leaves))
				}
				if got.Stats.Schedules != want.Stats.Schedules || got.Stats.Pruned != want.Stats.Pruned ||
					got.Stats.GuidePruned != want.Stats.GuidePruned {
					t.Errorf("%s schedules/pruned/guide-pruned = %d/%d/%d, want %d/%d/%d", tc.name,
						got.Stats.Schedules, got.Stats.Pruned, got.Stats.GuidePruned,
						want.Stats.Schedules, want.Stats.Pruned, want.Stats.GuidePruned)
				}
			}
			if remote.executed.Load() > 0 && guidedRemote.executed.Load() == 0 {
				t.Errorf("guided search dispatched no branch; the blind one dispatched %d", remote.executed.Load())
			}
		})
	}
}

// TestExecuteBranchValidation: a batch shipped to the wrong program (or
// indexed out of range) is rejected, not silently mis-executed.
func TestExecuteBranchValidation(t *testing.T) {
	sc, _ := scenarios.ByName("cve-2017-15649")
	prog := sc.MustProgram()
	d := &captureDispatcher{}
	opts := LIFSOptions{
		WantKind:  sc.WantKind,
		WantInstr: sc.WantInstr(),
		Workers:   4,
		Dispatch:  d,
	}
	if _, err := Reproduce(mustMachine(t, prog), opts); err != nil {
		t.Fatal(err)
	}
	if d.batch == nil {
		t.Skip("search dispatched no task units for this scenario")
	}
	if _, err := ExecuteBranch(context.Background(), prog, d.batch, len(d.batch.Work)); err == nil {
		t.Error("out-of-range index accepted")
	}
	other, _ := scenarios.ByName("fig1")
	if _, err := ExecuteBranch(context.Background(), other.MustProgram(), d.batch, 0); err == nil {
		t.Error("batch executed against the wrong program")
	}
	if _, err := ExecuteBranch(context.Background(), prog, d.batch, 0); err != nil {
		t.Fatalf("unmutated batch: %v", err)
	}
	// Each field a peer could corrupt is rejected where the explorer
	// first uses it, never a panic and never a result for other work.
	for _, c := range []struct {
		name   string
		mutate func(b *BranchBatch)
	}{
		{"choice -1", func(b *BranchBatch) { b.Work[0].Choice = -1 }},
		{"choice 99", func(b *BranchBatch) { b.Work[0].Choice = 99 }},
		{"initial -1", func(b *BranchBatch) { b.Work[0].Initial = -1 }},
		{"initial 99", func(b *BranchBatch) { b.Work[0].Initial = 99 }},
		{"budget above max", func(b *BranchBatch) { b.Budget = DefaultMaxInterleavings + 1 }},
		{"budget -1", func(b *BranchBatch) { b.Budget = -1 }},
		{"base instr past the program", func(b *BranchBatch) {
			b.Base = append(slices.Clone(b.Base), sched.AccessExport{Thread: "x", Instr: kir.InstrID(prog.NumInstrs()), Addr: 1, Write: true})
		}},
		{"base instr -1", func(b *BranchBatch) {
			b.Base = append(slices.Clone(b.Base), sched.AccessExport{Thread: "x", Instr: -1, Addr: 1, Write: true})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := *d.batch
			b.Work = slices.Clone(d.batch.Work)
			c.mutate(&b)
			res, err := ExecuteBranch(context.Background(), prog, &b, 0)
			if !errors.Is(err, ErrBranchTask) {
				t.Fatalf("got result %v, error %v; want ErrBranchTask", res != nil, err)
			}
		})
	}
}

// captureDispatcher records the first non-empty batch while executing
// everything, so validation tests get a real batch to corrupt.
type captureDispatcher struct {
	inner loopbackDispatcher
	batch *BranchBatch
}

func (d *captureDispatcher) Degraded() string { return "" }
func (d *captureDispatcher) RunBranches(ctx context.Context, prog *kir.Program, batch *BranchBatch) ([]*BranchResult, error) {
	if d.batch == nil && len(batch.Work) > 0 {
		d.batch = batch
	}
	return d.inner.RunBranches(ctx, prog, batch)
}

// corruptingDispatcher executes every branch like loopbackDispatcher,
// then corrupts each accepted result with mutate, as a faulty or hostile
// peer could.
type corruptingDispatcher struct {
	loopbackDispatcher
	mutate    func(prog *kir.Program, res *BranchResult)
	corrupted atomic.Int64
}

func (d *corruptingDispatcher) RunBranches(ctx context.Context, prog *kir.Program, batch *BranchBatch) ([]*BranchResult, error) {
	results, err := d.loopbackDispatcher.RunBranches(ctx, prog, batch)
	for _, res := range results {
		if res != nil && res.Accepted && len(res.Trace) > 0 {
			d.mutate(prog, res)
			d.corrupted.Add(1)
		}
	}
	return results, err
}

// TestCorruptBranchTraceIsDropped: an accepted branch result whose trace
// does not fit the program — a step without an instruction or past the
// program's instructions, on a thread the run cannot have, misnumbered,
// or no trace at all — is dropped on import and its branch swept up
// locally, so the search reproduces exactly what the in-process parallel
// search finds, never panicking on the peer's data.
func TestCorruptBranchTraceIsDropped(t *testing.T) {
	last := func(res *BranchResult) int { return len(res.Trace) - 1 }
	mutations := []struct {
		name   string
		mutate func(prog *kir.Program, res *BranchResult)
	}{
		{"instr nil", func(_ *kir.Program, res *BranchResult) { res.Trace[last(res)].Instr = nil }},
		{"instr past the program", func(prog *kir.Program, res *BranchResult) {
			res.Trace[last(res)].Instr = &kir.Instr{ID: kir.InstrID(prog.NumInstrs())}
		}},
		{"thread 99", func(_ *kir.Program, res *BranchResult) { res.Trace[last(res)].Thread = 99 }},
		{"thread renamed", func(_ *kir.Program, res *BranchResult) { res.Trace[last(res)].Name = "ghost" }},
		{"step misnumbered", func(_ *kir.Program, res *BranchResult) { res.Trace[last(res)].Step = -1 }},
		{"trace dropped", func(_ *kir.Program, res *BranchResult) { res.Trace = nil }},
	}
	for _, mu := range mutations {
		t.Run(mu.name, func(t *testing.T) {
			corrupted := int64(0)
			for _, name := range []string{"fig1", "fig4a", "fig5", "cve-2017-2671"} {
				sc, _ := scenarios.ByName(name)
				prog := sc.MustProgram()
				opts := LIFSOptions{WantKind: sc.WantKind, WantInstr: sc.WantInstr(), LeakCheck: sc.NeedsLeakCheck(), Workers: 4}
				want, err := Reproduce(mustMachine(t, prog), opts)
				if err != nil {
					t.Fatalf("%s: parallel Reproduce: %v", name, err)
				}
				d := &corruptingDispatcher{mutate: mu.mutate}
				opts.Dispatch = d
				got, err := Reproduce(mustMachine(t, prog), opts)
				if err != nil {
					t.Fatalf("%s: Reproduce with corrupt results: %v", name, err)
				}
				if !reflect.DeepEqual(got.Schedule, want.Schedule) || !reflect.DeepEqual(got.Races, want.Races) ||
					got.Stats.Schedules != want.Stats.Schedules {
					t.Errorf("%s: reproduction with corrupt results differs: schedule %v, want %v", name, got.Schedule, want.Schedule)
				}
				corrupted += d.corrupted.Load()
			}
			if corrupted == 0 {
				t.Fatal("no dispatched branch was accepted, so none was corrupted")
			}
		})
	}
}

// FuzzBranchResult mutates the JSON of a branch result a fleet peer
// returned for fig1 (testdata/branch-result-fig1.json, captured from a
// loopback dispatch). Importing it must drop the result, leaving the
// unit untouched, or install it; an installed result's access log and
// trace must then read as the pipeline reads them — folded into an
// access map, planned as a schedule, marked for cut points — without a
// panic.
func FuzzBranchResult(f *testing.F) {
	seed, err := os.ReadFile("testdata/branch-result-fig1.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	sc, _ := scenarios.ByName("fig1")
	prog := sc.MustProgram()
	var fallback []string
	for _, td := range prog.Threads {
		fallback = append(fallback, td.Name)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var res BranchResult
		if json.Unmarshal(data, &res) != nil {
			return
		}
		u := &unit{}
		if err := importBranchResult(prog, u, &res); err != nil {
			if !errors.Is(err, ErrBranchTask) || u.ran || u.cand != nil || u.log.Accs != nil {
				t.Fatalf("dropped result: error %v, unit ran=%v cand=%v log=%d", err, u.ran, u.cand != nil, len(u.log.Accs))
			}
			return
		}
		if !u.ran || (u.cand == nil && res.Accepted) {
			t.Fatalf("installed result: unit ran=%v, candidate %v for accepted=%v", u.ran, u.cand != nil, res.Accepted)
		}
		am := sched.NewAccessMap()
		am.Reserve(prog.NumInstrs())
		am.Fold(u.log)
		if u.cand != nil {
			tr := &u.cand.trace
			sched.FromSeq(tr, fallback)
			sched.CutPoints(prog, tr, am)
			for k := range tr.Steps {
				_ = tr.Site(k)
				_ = tr.Accesses(k)
				_ = tr.Lockset(k)
				_ = tr.Spawned(k)
			}
		}
	})
}
