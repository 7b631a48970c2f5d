package main

// The churn subcommand drives the churn-hardened closed loop: generate
// a seeded stochastic fleet-churn script (joins, leaves, drift,
// fail-stop crashes), re-solve incrementally along the affected spine
// on every detected drift, and hot-swap only the changed node
// schedules. The output pins the churn-smoke CI contract: a run that
// self-stabilizes prints "stabilized:" and exits 0; a collapse —
// retained throughput below the retention floor after the retry
// budget — exits 9 (ErrChurnCollapse).

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bwc"
)

func cmdChurn(args []string) error {
	fs := flag.NewFlagSet("churn", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	seed := fs.Int64("seed", 1, "churn-script seed; the same seed replays a byte-identical run")
	rate := fs.Float64("rate", 4, "mean churn events per 100 time units at peak intensity")
	duration := fs.String("duration", "600", "run horizon: the root stops releasing at this time")
	floor := fs.Float64("floor", 0.5, "retention floor: collapse below this fraction of baseline throughput")
	shape := fs.Float64("shape", 0, "Pareto shape of the inter-arrival gaps (0 = default 1.5)")
	crashFrac := fs.Float64("crash-frac", 0, "max fraction of workers the script may crash (0 = default 0.15, negative = none)")
	flapK := fs.Int("flap", 0, "quarantine a node after this many perturbations in the flap window (0 = default 3)")
	retries := fs.Int("retries", 0, "re-solve retry budget before declaring collapse (0 = default 3)")
	var faultSpecs multiFlag
	fs.Var(&faultSpecs, "fault", "extra scripted fault as at:kind:node[:value]; repeatable")
	asJSON := fs.Bool("json", false, "print the post-churn health report as JSON")
	showLog := fs.Bool("log", false, "print the deterministic controller event log")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	stopAt, err := bwc.ParseRat(*duration)
	if err != nil {
		return err
	}
	var scripted []bwc.Fault
	for _, spec := range faultSpecs {
		f, err := parseFault(spec)
		if err != nil {
			return err
		}
		scripted = append(scripted, f)
	}

	res := sess.Solve(t)
	cfg := bwc.ChurnConfig{
		Seed:          *seed,
		Rate:          *rate,
		ParetoShape:   *shape,
		CrashFraction: *crashFrac,
	}
	opts := []bwc.Option{
		bwc.WithChurn(cfg),
		bwc.WithStop(stopAt),
		bwc.WithRetentionFloor(*floor),
	}
	if len(scripted) > 0 {
		opts = append(opts, bwc.WithFaults(scripted...))
	}
	if *flapK > 0 {
		opts = append(opts, bwc.WithFlapQuarantine(*flapK, bwc.RatInt(0)))
	}
	if *retries > 0 {
		opts = append(opts, bwc.WithResolveRetries(*retries))
	}

	fmt.Printf("platform:  %d nodes, baseline steady state %s tasks/unit\n", t.Len(), res.Throughput)
	fmt.Printf("churn:     seed %d, rate %.3g/100u, horizon %s, retention floor %.0f%%\n",
		*seed, *rate, stopAt, 100**floor)

	rep, runErr := sess.SimulateChurn(t, opts...)
	if rep == nil {
		return runErr
	}

	fmt.Printf("script:    %d churn events\n", len(rep.Faults))
	for i, ad := range rep.Adaptations {
		spine := ""
		if i < len(rep.ReSolves) {
			rs := rep.ReSolves[i]
			spine = fmt.Sprintf(", spine %d recomputed / %d reused", rs.Recomputed, rs.Reused)
			if rs.Pruned > 0 {
				spine += fmt.Sprintf(", %d pruned", rs.Pruned)
			}
			spine += fmt.Sprintf(", delta %d node(s)", rs.Delta)
		}
		fmt.Printf("cycle #%d:  drift t=%s, swap t=%s, throughput %s%s\n",
			i+1, ad.Drift.At, ad.SwapAt, ad.Throughput, spine)
	}
	if len(rep.Drifts) == 0 {
		fmt.Printf("no drift detected over [0, %s]\n", rep.Stop)
	}
	if len(rep.Quarantined) > 0 {
		fmt.Printf("quarantined: %s\n", strings.Join(rep.Quarantined, ", "))
	}
	if *showLog {
		for _, line := range rep.Log {
			fmt.Printf("  log: %s\n", line)
		}
	}
	if runErr != nil && !rep.Collapsed {
		// The loop stopped before its verdict: there is no retention to
		// report.
		return runErr
	}
	fmt.Printf("retention: %s retained of oracle %s (%.1f%%; baseline %s)\n",
		rep.Final, rep.Oracle, 100*rep.Retention, rep.Baseline)
	if rep.Post != nil {
		fmt.Printf("post-churn: %s (verified to t=%s)\n", verdictLine(rep.Post), rep.Stop)
		if *asJSON {
			if err := rep.Post.WriteJSON(os.Stdout); err != nil {
				return err
			}
		} else if err := rep.Post.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if runErr != nil {
		return runErr
	}
	if !rep.Healed {
		return fmt.Errorf("churn: final regime failed %d conformance check(s)", rep.Post.Failed)
	}
	fmt.Printf("stabilized: the run re-converged under churn (%d adaptation(s))\n", len(rep.Adaptations))
	return nil
}
