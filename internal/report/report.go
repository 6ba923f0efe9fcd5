// Package report renders diagnosis results and evaluation tables as text:
// the human-facing output of the pipeline (crash report, failure-causing
// sequence, test-set verdicts, causality chain, statistics) in the style
// of the paper's figures, plus aligned-column tables for the evaluation
// harness.
package report

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"aitia/internal/core"
	"aitia/internal/kir"
	"aitia/internal/sched"
)

// WriteDiagnosis renders a complete diagnosis report.
func WriteDiagnosis(w io.Writer, prog *kir.Program, rep *core.Reproduction, d *core.Diagnosis) {
	fmt.Fprintf(w, "=== Crash report ===\n%s\n", d.Failure.Report(prog))

	fmt.Fprintf(w, "=== Failure-causing instruction sequence (LIFS) ===\n")
	fmt.Fprintf(w, "%s\n\n", rep.Run.FormatSeq(prog, false))
	WriteSwimlanes(w, prog, &rep.Run.Seq)
	fmt.Fprintf(w, "schedules: %d   interleavings: %d   pruned: %d   elapsed: %v\n\n",
		rep.Stats.Schedules, rep.Stats.Interleavings, rep.Stats.Pruned, rep.Stats.Elapsed)

	fmt.Fprintf(w, "=== Causality Analysis ===\n")
	fmt.Fprintf(w, "test set: %d data race(s); %d memory-accessing instruction(s) in the failing run\n",
		d.Stats.TestSet, d.Stats.MemAccesses)
	for _, tr := range d.Tested {
		mark := " "
		switch tr.Verdict {
		case core.VerdictRootCause:
			mark = "*"
		case core.VerdictAmbiguous:
			mark = "?"
		}
		fmt.Fprintf(w, "  %s %-40s %s", mark, tr.Race.FormatLong(prog), tr.Verdict)
		if gone := Disappeared(prog, rep.Run, tr.FlipRun); len(gone) > 0 && tr.Verdict != core.VerdictBenign {
			fmt.Fprintf(w, "   [disappeared: %s]", strings.Join(gone, " "))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "schedules: %d   elapsed: %v\n\n", d.Stats.Schedules, d.Stats.Elapsed)

	fmt.Fprintf(w, "=== Causality chain (root cause) ===\n")
	fmt.Fprintf(w, "%s\n", d.Chain.Format(prog))
	if d.Chain.HasAmbiguity() {
		fmt.Fprintf(w, "note: the chain contains an ambiguous surrounding race (see §3.4 of the paper)\n")
	}
	fmt.Fprintf(w, "\nHow to fix: a patch that makes any one of the chain's interleaving\norders impossible prevents the failure.\n")
}

// WriteSwimlanes renders an executed sequence as per-thread swimlanes,
// one column per execution context, like the paper's Figure 2: reading
// top to bottom gives the total order, and the column shows which context
// executed each (labelled) instruction.
func WriteSwimlanes(w io.Writer, prog *kir.Program, seq *sched.Trace) {
	var threads []string
	seen := make(map[string]int)
	for k := range seq.Steps {
		if name := seq.Name(k); seen[name] == 0 {
			threads = append(threads, name)
			seen[name] = len(threads) // 1 + column
		}
	}
	if len(threads) == 0 {
		return
	}
	width := 0
	for _, th := range threads {
		if len(th) > width {
			width = len(th)
		}
	}
	for _, e := range seq.Steps {
		if n := nameLen(prog.InstrAt(e.Instr)); n > width {
			width = n
		}
	}
	width += 2

	cell := func(col int, s string) string {
		var b strings.Builder
		for i := 0; i < len(threads); i++ {
			if i == col {
				b.WriteString(pad(s, width))
			} else {
				b.WriteString(pad("", width))
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	for i, th := range threads {
		fmt.Fprintf(w, "  %s\n", cell(i, th))
	}
	var header strings.Builder
	for range threads {
		header.WriteString(pad(strings.Repeat("-", width-2), width))
	}
	fmt.Fprintf(w, "  %s\n", strings.TrimRight(header.String(), " "))
	for k, e := range seq.Steps {
		if in := prog.InstrAt(e.Instr); in.Label != "" {
			fmt.Fprintf(w, "  %s\n", cell(seen[seq.Name(k)]-1, in.Label))
		}
	}
	fmt.Fprintln(w)
}

// nameLen returns len(in.Name()) without formatting the name of an
// unlabelled instruction: the column width is all the swimlanes need of
// it, and only labelled instructions are drawn.
func nameLen(in *kir.Instr) int {
	if in.Label != "" {
		return len(in.Label)
	}
	return len(in.Fn) + len("+") + decimalLen(in.Idx)
}

// decimalLen returns len(strconv.Itoa(n)) for n >= 0.
func decimalLen(n int) int {
	l := 1
	for ; n >= 10; n /= 10 {
		l++
	}
	return l
}

// Disappeared lists the labelled instructions of the original failing run
// that no longer execute in a perturbed run — the paper's Figure 6(a)
// "Disappeared" column, the visible footprint of a race-steered control
// flow. Either run may be a flip run; both its parts are read. A nil
// perturbed run (a flip settled by the learned prior without executing)
// has no footprint.
func Disappeared(prog *kir.Program, original, perturbed *sched.RunResult) []string {
	if perturbed == nil {
		return nil
	}
	// The original's labelled sites, struck off as the perturbed run
	// executes them.
	gone := make(map[sched.Site]string)
	for _, part := range original.Parts() {
		for k, e := range part.Steps {
			if in := prog.InstrAt(e.Instr); in.Label != "" {
				gone[part.Site(k)] = in.Label
			}
		}
	}
	for _, part := range perturbed.Parts() {
		for k := range part.Steps {
			if len(gone) == 0 {
				return nil
			}
			delete(gone, part.Site(k))
		}
	}
	var out []string
	for _, label := range gone {
		out = append(out, label)
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// Table renders rows with aligned columns; the first row is the header.
type Table struct {
	Title string
	Rows  [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	if len(t.Rows) == 0 {
		return
	}
	widths := make([]int, 0, 8)
	for _, row := range t.Rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(row []string) {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Rows[0])
	sep := make([]string, len(t.Rows[0]))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows[1:] {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
