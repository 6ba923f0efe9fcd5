package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
	"aitia/internal/scenarios"
)

// TestParallelReproduceMatchesSerial: the parallel search must return the
// exact same reproduction as the serial one — schedule, race set,
// interleaving count, merged access knowledge (Accesses.Export, the
// checkpoint and fleet wire form) and the schedule, prune and
// guide-prune counts — across the whole scenario corpus, and a parallel
// analysis of the parallel reproduction must yield a byte-identical
// diagnosis, with the prefix cache on. A serial search under a budget
// that pins nothing must count the same too, and save no replay.
// Scoped to the hand-built subset so factory growth does not swell the
// sweep; the factory itself asserts worker identity on its emissions.
func TestParallelReproduceMatchesSerial(t *testing.T) {
	for _, sc := range scenarios.HandBuilt() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			prog := sc.MustProgram()
			opts := LIFSOptions{
				WantKind:  sc.WantKind,
				WantInstr: sc.WantInstr(),
				LeakCheck: sc.NeedsLeakCheck(),
			}

			mS := mustMachine(t, prog)
			serial, err := Reproduce(mS, opts)
			if err != nil {
				if IsNotReproduced(err) {
					t.Skipf("scenario does not reproduce serially: %v", err)
				}
				t.Fatalf("serial Reproduce: %v", err)
			}
			serialD, err := Analyze(mS, serial, AnalysisOptions{})
			if err != nil {
				t.Fatalf("serial Analyze: %v", err)
			}
			sameCounts := func(name string, got SearchStats) {
				t.Helper()
				want := serial.Stats
				if got.Schedules != want.Schedules || got.Pruned != want.Pruned || got.GuidePruned != want.GuidePruned {
					t.Errorf("%s schedules/pruned/guide-pruned = %d/%d/%d, want serial %d/%d/%d", name,
						got.Schedules, got.Pruned, got.GuidePruned, want.Schedules, want.Pruned, want.GuidePruned)
				}
			}
			coldOpts := opts
			coldOpts.Prefix = pinNothing
			cold, err := Reproduce(mustMachine(t, prog), coldOpts)
			if err != nil {
				t.Fatalf("pin-nothing Reproduce: %v", err)
			}
			sameCounts("pin-nothing", cold.Stats)
			if cold.Stats.SavedInstrs != 0 || cold.Stats.PinnedBytes != 0 {
				t.Errorf("pin-nothing search saved=%d pinned=%d, want 0/0", cold.Stats.SavedInstrs, cold.Stats.PinnedBytes)
			}

			for _, workers := range []int{2, 4, 8} {
				popts := opts
				popts.Workers = workers
				mP := mustMachine(t, prog)
				par, err := Reproduce(mP, popts)
				if err != nil {
					t.Fatalf("workers=%d Reproduce: %v", workers, err)
				}
				if !reflect.DeepEqual(par.Schedule, serial.Schedule) {
					t.Errorf("workers=%d schedule = %v\nwant      %v", workers, par.Schedule, serial.Schedule)
				}
				if !reflect.DeepEqual(par.Races, serial.Races) {
					t.Errorf("workers=%d races = %v, want %v", workers, par.Races, serial.Races)
				}
				if got, want := par.Accesses.Export(), serial.Accesses.Export(); !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d merged accesses differ from serial: %d records, want %d", workers, len(got), len(want))
				}
				if par.Stats.Interleavings != serial.Stats.Interleavings {
					t.Errorf("workers=%d interleavings = %d, want %d",
						workers, par.Stats.Interleavings, serial.Stats.Interleavings)
				}
				sameCounts(fmt.Sprintf("workers=%d", workers), par.Stats)
				parD, err := Analyze(mP, par, AnalysisOptions{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d Analyze: %v", workers, err)
				}
				if cs, cp := serialD.Chain.Format(prog), parD.Chain.Format(prog); cs != cp {
					t.Errorf("workers=%d chain = %q, want %q", workers, cp, cs)
				}
				if len(parD.Tested) != len(serialD.Tested) {
					t.Fatalf("workers=%d test-set size = %d, want %d", workers, len(parD.Tested), len(serialD.Tested))
				}
				for i := range serialD.Tested {
					if serialD.Tested[i].Verdict != parD.Tested[i].Verdict {
						t.Errorf("workers=%d verdict %d = %v, want %v",
							workers, i, parD.Tested[i].Verdict, serialD.Tested[i].Verdict)
					}
				}
			}
		})
	}
}

// TestParallelScheduleCountExact pins the schedule count of
// syz08-j1939-refcount (the corpus's widest search) at every worker
// count, under the default prefix-cache budget and one that pins
// nothing. Every unit prunes only on its own visited states, so serial
// and parallel searches run exactly the same schedules, and the cache
// skips replay work, never schedules.
func TestParallelScheduleCountExact(t *testing.T) {
	sc, _ := scenarios.ByName("syz08-j1939-refcount")
	prog := sc.MustProgram()
	const want = 23
	for _, prefix := range []PrefixConfig{{}, pinNothing} {
		for _, workers := range []int{1, 2, 4, 8} {
			rep, err := Reproduce(mustMachine(t, prog), LIFSOptions{
				WantKind:  sc.WantKind,
				WantInstr: sc.WantInstr(),
				LeakCheck: sc.NeedsLeakCheck(),
				Workers:   workers,
				Prefix:    prefix,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats.Schedules != want {
				t.Errorf("budget=%d workers=%d schedules = %d, want %d",
					prefix.BudgetBytes, workers, rep.Stats.Schedules, want)
			}
			if prefix == pinNothing && (rep.Stats.SavedInstrs != 0 || rep.Stats.PinnedBytes != 0) {
				t.Errorf("pin-nothing workers=%d saved=%d pinned=%d, want 0/0",
					workers, rep.Stats.SavedInstrs, rep.Stats.PinnedBytes)
			}
		}
	}
}

// TestParallelReproduceCancel: canceling the context aborts a parallel
// search promptly with ctx.Err(), with every worker VM wound down.
func TestParallelReproduceCancel(t *testing.T) {
	m, err := kvm.New(slowSearchProg(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = ReproduceContext(ctx, m, LIFSOptions{
		WantKind:     sanitizer.KindNullDeref, // never happens: search runs until stopped
		MaxSchedules: 1 << 30,
		StepBudget:   1 << 20,
		Workers:      8,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}

// TestParallelReproduceRepeatable: repeated parallel runs are themselves
// deterministic (the winner rule is timing-independent), down to the
// schedule and prune counts, which count only the units up to the
// winner.
func TestParallelReproduceRepeatable(t *testing.T) {
	// fig7 and syz02-packet-frame are where counting every executed run,
	// winner or not, drifted with timing.
	for _, name := range []string{"cve-2017-15649", "fig7", "syz02-packet-frame"} {
		sc, _ := scenarios.ByName(name)
		prog := sc.MustProgram()
		opts := LIFSOptions{
			WantKind:  sc.WantKind,
			WantInstr: sc.WantInstr(),
			LeakCheck: sc.NeedsLeakCheck(),
			Workers:   4,
		}
		first, err := Reproduce(mustMachine(t, prog), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			again, err := Reproduce(mustMachine(t, prog), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Schedule, first.Schedule) {
				t.Fatalf("%s run %d schedule = %v, want %v", name, i, again.Schedule, first.Schedule)
			}
			if !reflect.DeepEqual(again.Races, first.Races) {
				t.Fatalf("%s run %d races differ", name, i)
			}
			if again.Stats.Schedules != first.Stats.Schedules || again.Stats.Pruned != first.Stats.Pruned {
				t.Fatalf("%s run %d schedules/pruned = %d/%d, want %d/%d", name, i,
					again.Stats.Schedules, again.Stats.Pruned, first.Stats.Schedules, first.Stats.Pruned)
			}
		}
	}
}
