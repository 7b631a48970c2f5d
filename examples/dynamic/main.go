// Dynamic adaptation: Section 5 sketches how the root can re-initiate the
// BW-First procedure when it detects a throughput drop, because the
// procedure costs only two single-number messages per used edge. This
// example degrades one link of the Section 8 platform at "runtime",
// re-negotiates, and compares the schedules before and after — including
// which nodes join or leave the active set.
package main

import (
	"fmt"
	"log"

	"bwc"
)

func main() {
	platform := bwc.PaperExampleTree()
	// One goroutine per machine stays alive for the whole run: the
	// paper's semi-autonomous protocol with persistent node processes.
	session := bwc.NewProtocolSession(platform)
	defer session.Close()

	before := session.Run()
	fmt.Printf("initial negotiation: throughput %s, %d nodes enrolled, %d protocol messages\n",
		before.Throughput, before.VisitedCount, before.Messages)

	// The link to P1 degrades sharply (1/2 -> 4 time units per task):
	// a congested backbone. The root notices the completion rate drop and
	// re-initiates the procedure against the re-measured platform —
	// without restarting a single node process.
	p1 := platform.MustLookup("P1")
	degraded, err := platform.WithCommTime(p1, bwc.RatInt(4))
	if err != nil {
		log.Fatal(err)
	}
	after, err := session.Renegotiate(degraded)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after degradation:   throughput %s, %d nodes enrolled, %d protocol messages\n",
		after.Throughput, after.VisitedCount, after.Messages)

	// Which nodes changed role?
	fmt.Printf("\nrole changes:\n")
	for id := 0; id < platform.Len(); id++ {
		name := platform.Name(bwc.NodeID(id))
		b, a := before.Nodes[id].Visited, after.Nodes[id].Visited
		switch {
		case b && !a:
			fmt.Printf("  %-4s dropped from the schedule\n", name)
		case !b && a:
			fmt.Printf("  %-4s newly enrolled\n", name)
		}
	}

	// The bandwidth-centric principle reshuffles the root's priorities:
	// compare the per-edge rates.
	resBefore := bwc.Solve(platform)
	resAfter := bwc.Solve(degraded)
	fmt.Printf("\nper-edge steady-state rates from the root:\n")
	fmt.Printf("%-6s %12s %12s\n", "child", "before", "after")
	for _, c := range platform.Children(platform.Root()) {
		fmt.Printf("%-6s %12s %12s\n", platform.Name(c), resBefore.SendRate(c), resAfter.SendRate(c))
	}

	// Rebuild schedules and verify both are executable.
	for _, regime := range []struct {
		label string
		res   *bwc.Result
	}{{"before", resBefore}, {"after", resAfter}} {
		s, err := bwc.BuildSchedule(regime.res)
		if err != nil {
			log.Fatal(err)
		}
		run, err := bwc.Simulate(s, bwc.WithPeriods(3), bwc.WithSkipIntervals())
		if err != nil {
			log.Fatal(err)
		}
		if err := run.CheckConservation(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: simulated %d tasks over %s units (period %s)",
			regime.label, run.Stats.Completed, run.Trace.End, s.TreePeriod())
	}
	fmt.Println()
}
