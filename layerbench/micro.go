package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"aitia/internal/core"
	"aitia/internal/durable"
	"aitia/internal/ingest"
	"aitia/internal/kasm"
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sched"
)

// Micro-loops: unit costs of single layers, measured by calling their
// public functions on the workload's own programs and reports. Each loop
// repeats whole passes over its inputs until microBudget has elapsed.
const microBudget = 200 * time.Millisecond

// repeatFor runs pass until at least budget has elapsed (and at least
// once), returning the number of passes.
func repeatFor(budget time.Duration, pass func() error) (int, error) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < budget {
		if err := pass(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replay is one diagnosis's failing run: the program, the schedule LIFS
// found, and the run it produced.
type replay struct {
	prog      *kir.Program
	leakCheck bool
	rep       *core.Reproduction
}

// microKasm times kasm.Parse over the sources: µs per parse.
func microKasm(srcs []string) (float64, error) {
	var ns time.Duration
	parses := 0
	_, err := repeatFor(microBudget, func() error {
		for _, src := range srcs {
			t0 := time.Now()
			_, err := kasm.Parse(src)
			ns += time.Since(t0)
			if err != nil {
				return err
			}
			parses++
		}
		return nil
	})
	return float64(ns.Nanoseconds()) / float64(parses) / 1e3, err
}

// kvmCosts are the interpreter's unit costs.
type kvmCosts struct {
	NewUS, StepNS, StepAllocs, RestoreNS float64
}

// runSerial steps the machine's first runnable thread until the program
// fails, finishes or blocks, returning the instructions stepped.
func runSerial(m *kvm.Machine, limit int) (int, error) {
	n := 0
	for n < limit && m.Failure() == nil {
		run := m.Runnable()
		if len(run) == 0 {
			break
		}
		if _, err := m.Step(run[0]); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// microKVM measures kvm.New, raw kvm.Step (time and allocations) and
// snapshot restore after a 32-step burst, over the programs.
func microKVM(progs []*kir.Program) (kvmCosts, error) {
	var c kvmCosts
	var newNS time.Duration
	news := 0
	if _, err := repeatFor(microBudget, func() error {
		for _, p := range progs {
			t0 := time.Now()
			_, err := kvm.New(p)
			newNS += time.Since(t0)
			if err != nil {
				return err
			}
			news++
		}
		return nil
	}); err != nil {
		return c, err
	}
	c.NewUS = float64(newNS.Nanoseconds()) / float64(news) / 1e3

	machines := make([]*kvm.Machine, len(progs))
	inits := make([]*kvm.Snapshot, len(progs))
	for i, p := range progs {
		m, err := kvm.New(p)
		if err != nil {
			return c, err
		}
		machines[i], inits[i] = m, m.Snapshot()
	}
	const stepLimit = 1 << 20
	var stepNS time.Duration
	steps := 0
	if _, err := repeatFor(microBudget, func() error {
		for i, m := range machines {
			t0 := time.Now()
			n, err := runSerial(m, stepLimit)
			stepNS += time.Since(t0)
			steps += n
			m.Restore(inits[i])
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return c, err
	}
	c.StepNS = float64(stepNS.Nanoseconds()) / float64(steps)

	// Allocations per raw step, one pass, restores outside the count.
	var allocs uint64
	steps = 0
	for i, m := range machines {
		a0 := mallocs()
		n, err := runSerial(m, stepLimit)
		allocs += mallocs() - a0
		steps += n
		m.Restore(inits[i])
		if err != nil {
			return c, err
		}
	}
	c.StepAllocs = float64(allocs) / float64(steps)

	const burst = 32
	var restoreNS time.Duration
	restores := 0
	if _, err := repeatFor(microBudget, func() error {
		for i, m := range machines {
			if _, err := runSerial(m, burst); err != nil {
				return err
			}
			t0 := time.Now()
			m.Restore(inits[i])
			restoreNS += time.Since(t0)
			restores++
		}
		return nil
	}); err != nil {
		return c, err
	}
	c.RestoreNS = float64(restoreNS.Nanoseconds()) / float64(restores)
	return c, nil
}

// schedCosts are the schedule enforcer's unit costs. StepNS is an
// enforced run's time per instruction it executed.
type schedCosts struct {
	RunUS, StepNS, RunAllocs, RacesUS, RacesPerRun float64
}

// microSched replays each diagnosis's failing schedule under the enforcer
// (time, instructions and allocations per run) and times race extraction
// from its failing run.
func microSched(replays []replay) (schedCosts, error) {
	var c schedCosts
	type rig struct {
		m    *kvm.Machine
		init *kvm.Snapshot
		enf  *sched.Enforcer
		r    replay
	}
	rigs := make([]rig, len(replays))
	for i, r := range replays {
		m, err := kvm.New(r.prog)
		if err != nil {
			return c, err
		}
		rigs[i] = rig{m: m, init: m.Snapshot(), enf: sched.NewEnforcer(m), r: r}
	}
	// enforce replays one failing schedule from the initial state; the
	// restore back to it is not part of the run.
	enforce := func(g rig) error {
		res, err := g.enf.Run(g.r.rep.Schedule, sched.Options{LeakCheck: g.r.leakCheck})
		if err != nil {
			return err
		}
		if !res.Failed() {
			return fmt.Errorf("sched micro-loop: failing schedule of %s did not fail on replay", g.r.prog.Hash())
		}
		return nil
	}
	var runNS time.Duration
	runs := 0
	var instrs uint64
	if _, err := repeatFor(microBudget, func() error {
		for _, g := range rigs {
			before := g.m.Executed()
			t0 := time.Now()
			err := enforce(g)
			runNS += time.Since(t0)
			instrs += g.m.Executed() - before
			runs++
			g.m.Restore(g.init)
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return c, err
	}
	c.RunUS = float64(runNS.Nanoseconds()) / float64(runs) / 1e3
	c.StepNS = float64(runNS.Nanoseconds()) / float64(instrs)

	var allocs uint64
	for _, g := range rigs {
		a0 := mallocs()
		err := enforce(g)
		allocs += mallocs() - a0
		g.m.Restore(g.init)
		if err != nil {
			return c, err
		}
	}
	c.RunAllocs = float64(allocs) / float64(len(rigs))

	var racesNS time.Duration
	extractions, races := 0, 0
	if _, err := repeatFor(microBudget, func() error {
		for _, r := range replays {
			t0 := time.Now()
			n := len(sched.ExtractRaces(r.rep.Run))
			racesNS += time.Since(t0)
			races += n
			extractions++
		}
		return nil
	}); err != nil {
		return c, err
	}
	c.RacesUS = float64(racesNS.Nanoseconds()) / float64(extractions) / 1e3
	c.RacesPerRun = float64(races) / float64(extractions)
	return c, nil
}

// ingestCosts are the report front end's unit costs.
type ingestCosts struct{ ParseUS, ResolveUS float64 }

// microIngest times ingest.Parse of each report and ingest.Resolve of it
// against its program.
func microIngest(progs []*kir.Program, reports []string) (ingestCosts, error) {
	var c ingestCosts
	var parseNS, resolveNS time.Duration
	n := 0
	_, err := repeatFor(microBudget, func() error {
		for i, text := range reports {
			t0 := time.Now()
			rpt, err := ingest.Parse(text)
			t1 := time.Now()
			if err != nil {
				return err
			}
			ingest.Resolve(progs[i], rpt)
			resolveNS += time.Since(t1)
			parseNS += t1.Sub(t0)
			n++
		}
		return nil
	})
	c.ParseUS = float64(parseNS.Nanoseconds()) / float64(n) / 1e3
	c.ResolveUS = float64(resolveNS.Nanoseconds()) / float64(n) / 1e3
	return c, err
}

// microJournal appends payloads of the given size to a scratch journal
// in dir without fsync, as the service does without -sync: µs per append.
func microJournal(dir string, size int) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := durable.OpenJournal(dir, durable.JournalOptions{})
	if err != nil {
		return 0, err
	}
	defer j.Close()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	var ns time.Duration
	appends := 0
	_, err = repeatFor(microBudget, func() error {
		for i := 0; i < 64; i++ {
			t0 := time.Now()
			err := j.Append(payload)
			ns += time.Since(t0)
			if err != nil {
				return err
			}
			appends++
		}
		return nil
	})
	return float64(ns.Nanoseconds()) / float64(appends) / 1e3, err
}
