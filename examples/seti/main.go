// SETI-style campaign: a master distributes measurement-processing tasks
// through institutional gateways to volunteer machines — the application
// class that motivates the paper (SETI@home, sequence comparison,
// Entropia). The example shows the full pipeline on a generated wide-area
// platform, including the bandwidth-centric pruning of volunteers whose
// links cannot sustain useful work, and checks how quickly the campaign
// approaches the optimal rate.
package main

import (
	"fmt"
	"log"

	"bwc"
)

func main() {
	// A 40-node volunteer-computing hierarchy: master, 2-4 institutional
	// gateways on fat links, dozens of home machines on thin links.
	platform := bwc.GeneratePlatform(bwc.SETI, 40, 2026)
	fmt.Printf("platform: %d nodes, height %d\n", platform.Len(), platform.Height())

	res := bwc.Solve(platform)
	fmt.Printf("optimal rate: %s tasks/unit (%.3f)\n", res.Throughput, res.Throughput.Float64())

	// The bandwidth-centric principle prunes volunteers that cannot be
	// fed: their links are too slow relative to closer consumers.
	unused := res.UnvisitedNodes()
	fmt.Printf("volunteers enrolled: %d of %d (pruned %d whose links cannot sustain work)\n",
		res.VisitedCount, platform.Len(), len(unused))

	s, err := bwc.BuildSchedule(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steady-state period: %s units\n", s.TreePeriod())
	fmt.Printf("start-up bound (Prop. 4): %s units\n\n", s.MaxStartupBound())

	// Run a campaign: delegate work for 600 time units, then stop and
	// drain (results are tiny for SETI-like apps, so no return traffic).
	run, err := bwc.Simulate(s, bwc.WithStop(bwc.RatInt(600)), bwc.WithSkipIntervals())
	if err != nil {
		log.Fatal(err)
	}
	if err := run.CheckConservation(); err != nil {
		log.Fatal(err)
	}
	st := run.Stats
	fmt.Printf("campaign: %d work units completed in %s time units\n", st.Completed, run.Trace.End)
	fmt.Printf("wind-down after stop: %s units; peak buffered: %d tasks\n", st.WindDown, st.MaxHeld)

	// Effective rate over the campaign vs the optimum.
	eff := float64(st.Completed) / run.Trace.End.Float64()
	fmt.Printf("effective rate: %.3f tasks/unit (%.1f%% of the steady-state optimum)\n",
		eff, 100*eff/res.Throughput.Float64())

	// What if results were NOT negligible? Section 9: with result files
	// 1/4 the size of inputs, the folded model misestimates the optimum.
	d := bwc.Rat(1, 4)
	p, err := bwc.PlatformWithUniformResultReturn(platform, d)
	if err != nil {
		log.Fatal(err)
	}
	trueOpt, _, err := bwc.LPThroughput(p)
	if err != nil {
		log.Fatal(err)
	}
	folded, err := bwc.FoldedThroughput(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith result return (d = %s per task):\n", d)
	fmt.Printf("  true optimum (separate flows): %s tasks/unit\n", trueOpt)
	fmt.Printf("  folded-model estimate:         %s tasks/unit\n", folded)
}
