package core

import (
	"sort"
	"strconv"
	"strings"

	"aitia/internal/kir"
	"aitia/internal/sanitizer"
	"aitia/internal/sched"
)

// ChainNode is one step of a causality chain: a conjunction of one or more
// root-cause races whose interleaving orders jointly enable the next step
// (the paper's "(A2 => B11) ∧ (B2 => A6)" group). Races end up in the same
// node when they mutually depend on each other: flipping either makes the
// other disappear, so neither can be said to cause the other — they are
// the two halves of one multi-variable atomicity violation.
type ChainNode struct {
	Races     []sched.Race
	Ambiguous []bool // parallel to Races
}

// Format renders the node in paper notation.
func (n ChainNode) Format(prog *kir.Program) string {
	parts := make([]string, len(n.Races))
	for i, r := range n.Races {
		parts[i] = r.Format(prog)
		if n.Ambiguous[i] {
			parts[i] += " (ambiguous)"
		}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "(" + strings.Join(parts, " ∧ ") + ")"
}

// Chain is a causality chain: the root cause of a concurrency failure as a
// chained sequence of data races (conjunction nodes), ending at the
// failure. Nodes[i] has causality to Nodes[i+1]; the last node directly
// causes the failure.
type Chain struct {
	Nodes   []ChainNode
	Failure *sanitizer.Failure

	// Edges exposes the reduced causality DAG over Nodes: Edges[i] lists
	// the node indexes Nodes[i] has causality to. For every bug in the
	// paper's study the DAG is a simple path, but the general structure is
	// kept for completeness.
	Edges [][]int
}

// Len returns the number of races in the chain.
func (c *Chain) Len() int {
	n := 0
	for _, node := range c.Nodes {
		n += len(node.Races)
	}
	return n
}

// Races returns all chain races in node order.
func (c *Chain) Races() []sched.Race {
	var out []sched.Race
	for _, node := range c.Nodes {
		out = append(out, node.Races...)
	}
	return out
}

// HasAmbiguity reports whether any chain race is flagged ambiguous.
func (c *Chain) HasAmbiguity() bool {
	for _, node := range c.Nodes {
		for _, a := range node.Ambiguous {
			if a {
				return true
			}
		}
	}
	return false
}

// Format renders the chain like the paper's Figure 3:
//
//	(A2 => B11 ∧ B2 => A6) → A6 => B12 → B17 => A12 → kernel BUG (BUG_ON)
func (c *Chain) Format(prog *kir.Program) string {
	var parts []string
	for _, n := range c.Nodes {
		parts = append(parts, n.Format(prog))
	}
	parts = append(parts, c.Failure.Kind.String())
	return strings.Join(parts, " → ")
}

// buildChain constructs the causality chain from the diagnosis evidence.
//
// For chain members R1, R2 (root-cause or ambiguous races), let
// kills(R1, R2) mean "R2 does not occur in the run where R1 is flipped"
// (a race-steered control flow made R2's accesses unreachable). Then:
//
//   - kills(R1, R2) && kills(R2, R1): the races are mutually dependent —
//     one conjunction node (the multi-variable pattern of Figure 3).
//   - kills(R1, R2) only, with R2 later in the failing sequence:
//     a causality edge R1 → R2.
//
// The edge DAG is transitively reduced and nodes are ordered by their
// position in the failing sequence; the final node causes the failure.
func buildChain(d *Diagnosis, failure *sanitizer.Failure) *Chain {
	type member struct {
		race      sched.Race
		ambiguous bool
		flipRun   *sched.RunResult
	}
	var members []member
	for _, tr := range d.Tested {
		switch tr.Verdict {
		case VerdictRootCause:
			members = append(members, member{race: tr.Race, flipRun: tr.FlipRun})
		case VerdictAmbiguous:
			members = append(members, member{race: tr.Race, ambiguous: true, flipRun: tr.FlipRun})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		return members[i].race.LastStep() < members[j].race.LastStep()
	})
	n := len(members)
	c := &Chain{Failure: failure}
	if n == 0 {
		return c
	}

	kills := make([][]bool, n)
	for i := range kills {
		kills[i] = make([]bool, n)
		for j := range kills[i] {
			if i != j {
				kills[i][j] = !sched.RaceOccurred(members[i].flipRun, members[j].race)
			}
		}
	}

	// Union mutually dependent races into conjunction groups.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if kills[i][j] && kills[j][i] {
				union(i, j)
			}
		}
	}

	type group struct {
		idxs []int
		last int
	}
	var (
		groups []group
		adj    [][]bool
	)
	// Build the group DAG; then merge groups with identical successor
	// sets (their interleaving orders are jointly required to enable the
	// same next step — a conjunction) and rebuild, until stable.
	for {
		groupOf := make(map[int][]int) // root -> member indexes
		for i := 0; i < n; i++ {
			r := find(i)
			groupOf[r] = append(groupOf[r], i)
		}
		groups = groups[:0]
		for _, idxs := range groupOf {
			sort.Ints(idxs)
			last := 0
			for _, i := range idxs {
				if ls := members[i].race.LastStep(); ls > last {
					last = ls
				}
			}
			groups = append(groups, group{idxs: idxs, last: last})
		}
		sort.Slice(groups, func(a, b int) bool {
			if groups[a].last != groups[b].last {
				return groups[a].last < groups[b].last
			}
			return groups[a].idxs[0] < groups[b].idxs[0]
		})
		gIndex := make([]int, n) // member -> group position
		for gi, g := range groups {
			for _, i := range g.idxs {
				gIndex[i] = gi
			}
		}

		// Directional edges: some member of the earlier group kills some
		// member of the later group.
		ng := len(groups)
		adj = make([][]bool, ng)
		for i := range adj {
			adj[i] = make([]bool, ng)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				gi, gj := gIndex[i], gIndex[j]
				if gi != gj && groups[gi].last < groups[gj].last && kills[i][j] {
					adj[gi][gj] = true
				}
			}
		}

		// Transitive reduction.
		reach := make([][]bool, ng)
		for i := range reach {
			reach[i] = make([]bool, ng)
			copy(reach[i], adj[i])
		}
		for k := ng - 1; k >= 0; k-- {
			for i := 0; i < ng; i++ {
				if reach[i][k] {
					for j := 0; j < ng; j++ {
						if reach[k][j] {
							reach[i][j] = true
						}
					}
				}
			}
		}
		for i := 0; i < ng; i++ {
			for j := 0; j < ng; j++ {
				if !adj[i][j] {
					continue
				}
				for k := 0; k < ng; k++ {
					if k != i && k != j && adj[i][k] && reach[k][j] {
						adj[i][j] = false
						break
					}
				}
			}
		}

		// Merge groups whose (reduced) successor sets are identical and
		// non-independent of the chain (including the final groups, whose
		// empty successor set means "directly causes the failure").
		sig := func(gi int) string {
			var ss []byte
			for gj := 0; gj < ng; gj++ {
				if adj[gi][gj] {
					ss = strconv.AppendInt(append(ss, ' '), int64(gj), 10)
				}
			}
			return string(ss)
		}
		merged := false
		seen := make(map[string]int)
		for gi := 0; gi < ng; gi++ {
			s := sig(gi)
			if prev, ok := seen[s]; ok {
				union(groups[prev].idxs[0], groups[gi].idxs[0])
				merged = true
			} else {
				seen[s] = gi
			}
		}
		if !merged {
			break
		}
	}

	for gi, g := range groups {
		node := ChainNode{}
		// Conjunction members render in instruction order of their First
		// access (the paper lists "(A2 => B11) ∧ (B2 => A6)").
		idxs := append([]int(nil), g.idxs...)
		sort.Slice(idxs, func(a, b int) bool {
			ra, rb := members[idxs[a]].race, members[idxs[b]].race
			if ra.First.Instr != rb.First.Instr {
				return ra.First.Instr < rb.First.Instr
			}
			return ra.Second.Instr < rb.Second.Instr
		})
		for _, i := range idxs {
			node.Races = append(node.Races, members[i].race)
			node.Ambiguous = append(node.Ambiguous, members[i].ambiguous)
		}
		c.Nodes = append(c.Nodes, node)
		var succ []int
		for gj := range groups {
			if adj[gi][gj] {
				succ = append(succ, gj)
			}
		}
		c.Edges = append(c.Edges, succ)
	}
	return c
}
