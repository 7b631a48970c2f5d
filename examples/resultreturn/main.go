// Result return (Section 9): the paper's counter-example showing that
// folding the result-return time into the task communication time — the
// simplification used by Beaumont et al. and Kreaseck et al. — is wrong,
// because it ignores the receive-port resource. This example walks
// through the 3-node platform on the first-class pipeline — native
// return costs on the platform, the generalized greedy procedure checked
// against the exact LP, a real engine run draining results to the root —
// and then sweeps the result/input size ratio on a larger platform to
// show where the folded model's error comes from.
package main

import (
	"fmt"
	"log"

	"bwc"
)

func main() {
	// The paper's platform: a master with no computing power, two
	// children computing 1 task/unit each; sending a task takes 1/2,
	// returning its result takes 1/2. Return costs are part of the
	// platform itself (the text format's optional 5th column carries
	// them too).
	base := bwc.NewBuilder().
		RootSwitch("master").
		Child("master", "w1", bwc.Rat(1, 2), bwc.RatInt(1)).
		Child("master", "w2", bwc.Rat(1, 2), bwc.RatInt(1)).
		MustBuild()
	platform, err := bwc.PlatformWithUniformResultReturn(base, bwc.Rat(1, 2))
	if err != nil {
		log.Fatal(err)
	}

	// The generalized greedy procedure schedules both flows; Verify
	// checks its result against the exact LP optimum.
	sess := bwc.NewSession()
	res := sess.Solve(platform)
	exact, err := bwc.Verify(platform)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("separate flows (correct model): %s tasks/unit (LP optimum %s)\n", res.Throughput, exact)
	for i := 0; i < platform.Len(); i++ {
		if a := res.Nodes[i].Alpha; a.IsPos() {
			fmt.Printf("  %s computes %s/unit\n", platform.Name(bwc.NodeID(i)), a)
		}
	}
	fmt.Printf("  master send port:    2 x 1/2 x 1 = 1 (saturated, but feasible)\n")
	fmt.Printf("  master receive port: 2 x 1/2 x 1 = 1 (saturated, but feasible)\n\n")

	folded, err := bwc.FoldedThroughput(platform)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("folded model (c' = c + d = 1):  %s task/unit\n", folded)
	fmt.Printf("  the folded model charges the result transfer against the SEND port,\n")
	fmt.Printf("  so the master appears able to serve only one worker per time unit —\n")
	fmt.Printf("  underestimating the platform by a factor of %.0fx.\n\n",
		res.Throughput.Float64()/folded.Float64())

	// The schedule is executable, not just a rate: run a batch through
	// the engine and watch every result drain back to the master.
	run, err := sess.Simulate(platform, bwc.WithTasks(40))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine run: %d released, %d computed, %d results home (makespan %s)\n\n",
		run.Stats.Generated, run.Stats.Completed, run.Stats.ResultsReturned, run.Stats.Makespan)

	// Sweep the result/input ratio on the Section 8 tree: the folded
	// model drifts away from the truth as results grow.
	big := bwc.PaperExampleTree()
	fmt.Printf("sweep on the 12-node Section 8 platform (result size d per task):\n")
	fmt.Printf("%-8s %12s %12s %10s\n", "d", "true", "folded", "error")
	for _, d := range []bwc.Rational{bwc.RatInt(0), bwc.Rat(1, 4), bwc.Rat(1, 2), bwc.RatInt(1), bwc.RatInt(2)} {
		pp, err := bwc.PlatformWithUniformResultReturn(big, d)
		if err != nil {
			log.Fatal(err)
		}
		trueV, err := bwc.Verify(pp)
		if err != nil {
			log.Fatal(err)
		}
		foldV, err := bwc.FoldedThroughput(pp)
		if err != nil {
			log.Fatal(err)
		}
		errPct := 100 * (trueV.Float64() - foldV.Float64()) / trueV.Float64()
		fmt.Printf("%-8s %12s %12s %9.1f%%\n", d, trueV, foldV, errPct)
	}
	fmt.Printf("\nconclusion: result returns are a first-class platform model here —\n")
	fmt.Printf("the greedy procedure schedules both flows, the engine executes them,\n")
	fmt.Printf("and the LP certifies the rate (see `bwsched resultreturn`).\n")
}
