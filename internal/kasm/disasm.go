package kasm

import (
	"fmt"
	"sort"
	"strings"

	"aitia/internal/kir"
)

// Disassemble renders a finalized program back to kasm source text. For
// a program Parse assembled, the output round-trips through Parse into
// the same program: Parse(Disassemble(p)).Hash() == p.Hash().
func Disassemble(prog *kir.Program) string {
	var b strings.Builder

	for _, g := range prog.Globals {
		switch {
		case g.HeapSize > 0:
			fmt.Fprintf(&b, "heap %s[%d]%s\n", g.Name, g.HeapSize, initList(g.Init))
		case len(g.AddrOf) == 1 && g.Size == 1:
			fmt.Fprintf(&b, "ptr %s -> %s\n", g.Name, g.AddrOf[0])
		case g.Size == 1 && len(g.Init) <= 1:
			fmt.Fprintf(&b, "global %s%s\n", g.Name, initList(g.Init))
		default:
			fmt.Fprintf(&b, "global %s[%d]%s\n", g.Name, g.Size, initList(g.Init))
		}
	}
	b.WriteString("\n")

	for _, t := range prog.Threads {
		switch {
		case t.Kind == kir.KindHardIRQ:
			fmt.Fprintf(&b, "thread %s %s irq\n", t.Name, t.Entry)
		case t.Arg != 0:
			fmt.Fprintf(&b, "thread %s %s arg=%d\n", t.Name, t.Entry, t.Arg)
		default:
			fmt.Fprintf(&b, "thread %s %s\n", t.Name, t.Entry)
		}
	}

	names := make([]string, 0, len(prog.Funcs))
	for name := range prog.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		f := prog.Funcs[name]
		fmt.Fprintf(&b, "\nfunc %s\n", name)
		targets := make(map[int][]string)
		for lbl, idx := range f.Labels() {
			targets[idx] = append(targets[idx], lbl)
		}
		for idx, in := range f.Instrs {
			for _, lbl := range sortStrings(targets[idx]) {
				fmt.Fprintf(&b, "%s:\n", lbl)
			}
			if in.Label != "" {
				fmt.Fprintf(&b, "@%-7s %s\n", in.Label, in.String())
			} else {
				fmt.Fprintf(&b, "        %s\n", in.String())
			}
		}
		// Branch targets one past the last instruction, which only a
		// built program has: Parse rejects a label with nothing after
		// it, so a nop follows.
		for _, lbl := range sortStrings(targets[len(f.Instrs)]) {
			fmt.Fprintf(&b, "%s:\n", lbl)
			b.WriteString("        nop\n")
		}
		b.WriteString("end\n")
	}
	return b.String()
}

func initList(init []int64) string {
	if len(init) == 0 {
		return ""
	}
	parts := make([]string, len(init))
	for i, v := range init {
		parts[i] = fmt.Sprint(v)
	}
	return " = " + strings.Join(parts, ", ")
}

func sortStrings(s []string) []string {
	sort.Strings(s)
	return s
}
