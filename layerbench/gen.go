package main

import (
	"fmt"
	"math"
	"math/rand"

	"aitia/internal/kasm"
	"aitia/internal/scenarios"
)

// Generators. Every workload input is a pure function of the seed: the
// same seed gives the same item list, pads, mix and arrival times, and
// the program under test only ever sees the generated kasm text, report
// text and options.

// item is one diagnosis input.
type item struct {
	// Name identifies the item in reports: the scenario's name.
	Name string
	// Scenario is the corpus scenario the item diagnoses.
	Scenario string
	// Source is the scenario's kasm text (serve requests).
	Source string
	// FailureKind, FailureLabel and LeakCheck are the diagnosis options.
	FailureKind  string
	FailureLabel string
	LeakCheck    bool
}

// corpusItems is the corpus workload's input: all scenarios, hand-built
// and generated, in a seed-shuffled order.
func corpusItems(seed int64) []item {
	all := scenarios.All()
	rng := rand.New(rand.NewSource(seed))
	out := make([]item, 0, len(all))
	for _, i := range rng.Perm(len(all)) {
		sc := all[i]
		out = append(out, item{Name: sc.Name, Scenario: sc.Name})
	}
	return out
}

// scenarioItem renders a corpus scenario as kasm text plus the options
// its crash report implies.
func scenarioItem(name string) (item, error) {
	sc, ok := scenarios.ByName(name)
	if !ok {
		return item{}, fmt.Errorf("scenario %s missing from the corpus", name)
	}
	prog, err := sc.Program()
	if err != nil {
		return item{}, err
	}
	return item{
		Name:         name,
		Scenario:     name,
		Source:       kasm.Disassemble(prog),
		FailureKind:  sc.WantKind.String(),
		FailureLabel: sc.WantLabel,
		LeakCheck:    sc.NeedsLeakCheck(),
	}, nil
}

// padSource makes a program fresh for the service's content-addressed
// cache and checkpoints by prepending a seed-unique global that no
// instruction touches. The diagnosis must not change.
func padSource(src string, seed int64, n int) string {
	return fmt.Sprintf("global benchpad_%d_%d = 0\n", seed, n) + src
}

// Serve job kinds.
const (
	kindTrace  = "trace"  // cold POST /v1/diagnose with kasm source
	kindReport = "report" // cold POST /v1/diagnose-report
	kindRepeat = "repeat" // exact resubmission of a recent job: a cache hit
)

// Serve mix: every block of ten arrivals holds five cold trace jobs, two
// cold report jobs and three repeats, in a seeded order. A repeat
// resubmits a job repeatMinBack..repeatMaxBack arrivals earlier, long
// enough ago at the workload's rate that it has finished and is cached.
// Fixed shares, and scenarios dealt from shuffled decks, keep the mix's
// cost the same from seed to seed; the seed changes only the order.
var mixBlock = []string{
	kindTrace, kindTrace, kindTrace, kindTrace, kindTrace,
	kindReport, kindReport,
	kindRepeat, kindRepeat, kindRepeat,
}

const (
	repeatMinBack = 8
	repeatMaxBack = 24
)

// deck deals names in seeded shuffled passes: each name once per pass.
type deck struct {
	rng   *rand.Rand
	names []string
	next  []string
}

func (d *deck) deal() string {
	if len(d.next) == 0 {
		d.next = append([]string(nil), d.names...)
		d.rng.Shuffle(len(d.next), func(i, j int) { d.next[i], d.next[j] = d.next[j], d.next[i] })
	}
	n := d.next[0]
	d.next = d.next[1:]
	return n
}

// arrival is one open-loop request of the serve workload.
type arrival struct {
	// At is the due time, in seconds from the start of the measurement.
	At float64
	// Kind is kindTrace, kindReport or kindRepeat.
	Kind string
	// Scenario is the scenario the job diagnoses.
	Scenario string
	// Pad numbers the cold job's unused global (see padSource); a repeat
	// carries the pad of the job it repeats.
	Pad int
	// Of is the index of the cold arrival a repeat resubmits (-1 else).
	Of int
}

// serveArrivals draws the open-loop schedule: rate×seconds Poisson
// arrivals over the duration (a Poisson process conditioned on its count,
// so every seed offers the same load), each a cold trace job, a cold
// report job (only for scenarios whose synthesized report round-trips),
// or a repeat. Pads of cold jobs count from firstPad, so warm-up and
// measurement never share a program.
func serveArrivals(seed int64, rate, seconds float64, names, reportNames []string, firstPad int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	// Exponential gaps scaled to span the window: the arrival times are
	// distributed as sorted uniform draws.
	n := int(math.Round(rate * seconds))
	at := make([]float64, n+1)
	sum := 0.0
	for i := range at {
		sum += rng.ExpFloat64()
		at[i] = sum
	}
	traces := &deck{rng: rng, names: names}
	reports := &deck{rng: rng, names: reportNames}
	var out []arrival
	var block []string
	pad := firstPad
	for _, s := range at[:n] {
		t := seconds * s / sum
		if len(block) == 0 {
			block = append([]string(nil), mixBlock...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		a := arrival{At: t, Kind: block[0], Of: -1}
		block = block[1:]
		back := repeatMinBack + rng.Intn(repeatMaxBack-repeatMinBack+1)
		if a.Kind == kindRepeat && len(out) < back {
			a.Kind = kindTrace // too early in the run to repeat anything
		}
		switch a.Kind {
		case kindTrace:
			a.Scenario = traces.deal()
		case kindReport:
			a.Scenario = reports.deal()
		case kindRepeat:
			of := len(out) - back
			if out[of].Kind == kindRepeat {
				of = out[of].Of
			}
			a.Scenario, a.Of = out[of].Scenario, of
		}
		if a.Kind == kindRepeat {
			a.Pad = out[a.Of].Pad
		} else {
			a.Pad = pad
			pad++
		}
		out = append(out, a)
	}
	return out
}
