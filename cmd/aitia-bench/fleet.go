package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aitia/internal/core"
	"aitia/internal/eval"
	"aitia/internal/faultinject"
	"aitia/internal/fleet"
	"aitia/internal/scenarios"
)

// fleetNodes is the gate's cluster shape: three replicas, the smallest
// fleet where both the coordinator and a branch executor can die while
// a third node still carries the work.
var fleetNodes = []string{"fleet-a", "fleet-b", "fleet-c"}

// fleetOutcome records one scenario's gate result for the failure
// artifact.
type fleetOutcome struct {
	Scenario    string         `json:"scenario"`
	SerialChain string         `json:"serial_chain"`
	FleetChain  string         `json:"fleet_chain"`
	Degraded    string         `json:"degraded,omitempty"`
	Killed      []string       `json:"killed,omitempty"`
	Status      []fleet.Status `json:"nodes"`
	Failure     string         `json:"failure,omitempty"`
}

// runFleet is the fleet chaos CI gate. Per corpus scenario it runs the
// diagnosis three ways and demands byte-identical causality chains:
//
//  1. Serial baseline: the plain parallel search, no fleet, checked
//     against the golden set.
//  2. Chaos fleet: a fresh 3-node in-process fleet whose coordinator
//     leases every deepening-phase branch to its peers, under seeded
//     lease-expiry and handoff-drop faults at fleetRate and node
//     death at a quarter of it. Whatever the fleet drops, re-leases or
//     loses to a SIGKILLed node, the chain must equal the serial one.
//  3. Partitioned coordinator: the coordinator is cut off from both
//     peers before the search starts; it must degrade to the local
//     serial sweep with the machine-readable fleet_partitioned reason —
//     and still produce the identical chain.
//
// The first scenario additionally exercises the job-routing handoff:
// its ring owner is killed before submission and the next replica in
// the ring takes the job over. Corpus-wide, the gate also fails unless
// at least one injected lease expiry fired and at least one node was
// actually killed mid-diagnosis — a chaos run where nothing went wrong
// proves nothing.
func runFleet(j *job) error {
	seed := j.cfg.seed
	pipeline := func(sc *scenarios.Scenario, dispatch core.BranchDispatcher) (string, error) {
		_, d, err := eval.DiagnoseWith(sc,
			core.LIFSOptions{Workers: 4, Dispatch: dispatch},
			core.AnalysisOptions{Workers: 4})
		if err != nil {
			return "", err
		}
		return d.Chain.Format(sc.MustProgram()), nil
	}
	// coordinatorFor picks the scenario's ring owner among the live
	// nodes — the replica a fleet submission would land on.
	coordinatorFor := func(c *fleet.LocalCluster, progHash string) *fleet.Node {
		any := c.Node(fleetNodes[0])
		for _, id := range any.JobSequence(progHash) {
			if !c.Killed(id) {
				return c.Node(id)
			}
		}
		return any
	}

	fmt.Printf("fleet gate: %d nodes, fault seed %d, rate %g (node death %g)\n",
		len(fleetNodes), seed, fleetRate, fleetRate/4)
	t := j.tally(22)
	var outcomes []fleetOutcome
	var totalExpiry, totalDrops, totalReexec, totalRemote, totalKills uint64
	for i, sc := range j.list {
		out := fleetOutcome{Scenario: sc.Name}
		fail := func(format string, args ...any) {
			out.Failure = fmt.Sprintf(format, args...)
			t.fail(sc.Name, "%s", out.Failure)
		}
		progHash := sc.MustProgram().Hash()

		// 1. Serial baseline, held to the golden chain.
		chainSerial, serr := pipeline(sc, nil)
		out.SerialChain = chainSerial
		if serr != nil {
			fail("serial baseline errored: %v", serr)
			outcomes = append(outcomes, out)
			continue
		}
		if want := scenarios.GoldenChains[sc.Name]; chainSerial != want {
			fail("serial chain = %q, golden %q", chainSerial, want)
			outcomes = append(outcomes, out)
			continue
		}

		// 2. Chaos fleet: expiries and drops at fleetRate, node death at a
		// quarter of it (a death is fleet-wide and permanent, so it is
		// the rarest event of the mix).
		plan := faultinject.NewPlan(seed, 0).
			SetRate(faultinject.KindLeaseExpiry, fleetRate).
			SetRate(faultinject.KindPartition, fleetRate).
			SetRate(faultinject.KindNodeDeath, fleetRate/4)
		cluster := fleet.NewLocalCluster(fleetNodes, fleet.ClusterConfig{
			Epoch:    1,
			LeaseTTL: 500 * time.Millisecond,
			Fault:    plan,
		})
		coord := coordinatorFor(cluster, progHash)
		if i == 0 {
			// Job-routing handoff: the ring owner dies before this job
			// arrives; the next replica in the ring must take it.
			owner := coord.OwnerOf(progHash)
			cluster.Kill(owner)
			coord = coordinatorFor(cluster, progHash)
			coord.NoteJobHandoff()
			t.line("hand", sc.Name, "ring owner %s killed pre-submit, %s takes the job", owner, coord.ID())
		}
		disp := coord.Dispatcher()
		chainFleet, ferr := pipeline(sc, disp)
		out.FleetChain = chainFleet
		out.Degraded = disp.Degraded()
		st := coord.Status()
		out.Status = append(out.Status, st)
		totalExpiry += st.InjectedExpiry
		totalDrops += st.HandoffDrops
		totalReexec += st.Reexecuted
		totalRemote += st.RemoteBranches
		for _, id := range fleetNodes {
			if cluster.Killed(id) {
				out.Killed = append(out.Killed, id)
				totalKills++
			}
		}
		switch {
		case ferr != nil:
			fail("fleet run errored: %v", ferr)
		case chainFleet != chainSerial:
			fail("fleet chain = %q, serial %q", chainFleet, chainSerial)
		case disp.Degraded() != "" && disp.Degraded() != fleet.ReasonPartitioned:
			fail("fleet degraded with unknown reason %q", disp.Degraded())
		default:
			t.line("ok", sc.Name, "%d remote, %d expired, %d dropped, %d re-executed, killed %v",
				st.RemoteBranches, st.InjectedExpiry, st.HandoffDrops, st.Reexecuted, out.Killed)
		}

		// 3. Partitioned coordinator: no chaos, just the cut. The search
		// must degrade to local serial with the machine-readable reason,
		// not hang and not diverge.
		pcluster := fleet.NewLocalCluster(fleetNodes, fleet.ClusterConfig{Epoch: 1, LeaseTTL: 500 * time.Millisecond})
		pcoord := coordinatorFor(pcluster, progHash)
		pcluster.Partition(pcoord.ID())
		pdisp := pcoord.Dispatcher()
		chainPart, perr := pipeline(sc, pdisp)
		switch {
		case perr != nil:
			fail("partitioned run errored: %v", perr)
		case pdisp.Degraded() != fleet.ReasonPartitioned:
			fail("partitioned coordinator degraded = %q, want %q", pdisp.Degraded(), fleet.ReasonPartitioned)
		case chainPart != chainSerial:
			fail("partitioned chain = %q, serial %q", chainPart, chainSerial)
		default:
			t.line("part", sc.Name, "degraded to local serial (%s), chain identical", pdisp.Degraded())
		}
		outcomes = append(outcomes, out)
	}

	fmt.Printf("fleet gate totals: %d remote branches, %d injected expiries, %d handoff drops, %d re-executions, %d node deaths\n",
		totalRemote, totalExpiry, totalDrops, totalReexec, totalKills)
	if totalExpiry == 0 {
		t.fail("", "corpus-wide: no injected lease expiry fired (seed %d, rate %g) — the chaos proved nothing", seed, fleetRate)
	}
	if totalKills == 0 {
		t.fail("", "corpus-wide: no node death fired (seed %d, rate %g) — raise the rate or change the seed", seed, fleetRate/4)
	}
	if t.bad > 0 {
		if dir := j.artifactDir(); dir != "" {
			if err := writeJSON(filepath.Join(dir, "fleet-outcomes.json"), outcomes); err != nil {
				fmt.Fprintf(os.Stderr, "fleet: could not write artifacts: %v\n", err)
			}
		}
	}
	if err := t.err("violations across %d %s scenarios (seed %d, rate %g)", len(j.list), j.corpus, seed, fleetRate); err != nil {
		return err
	}
	fmt.Printf("fleet: all %d %s scenarios byte-identical to serial across chaos fleet, node death and coordinator partition (seed %d, rate %g)\n",
		len(j.list), j.corpus, seed, fleetRate)
	return nil
}
