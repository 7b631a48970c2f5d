package main

// The adapt subcommand drives the closed adaptation loop of Section 5:
// inject faults into a simulated run, detect the drift against the
// deployed schedule, re-solve with BW-First on the measured platform
// (a crashed node's subtree excluded), and hot-swap the re-solved
// schedule mid-run. The output pins the demo contract CI greps for: the
// stale regime must report "pre-swap: FAIL", the adapted regime
// "post-swap: PASS", and the command exits 0 only when the run healed.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bwc"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

var faultKinds = map[string]bwc.FaultKind{
	"link-set":     bwc.FaultLinkSet,
	"link-scale":   bwc.FaultLinkScale,
	"link-restore": bwc.FaultLinkRestore,
	"node-set":     bwc.FaultNodeSet,
	"node-scale":   bwc.FaultNodeScale,
	"node-restore": bwc.FaultNodeRestore,
	"crash":        bwc.FaultCrash,
}

// parseFault reads one -fault spec: at:kind:node[:value].
func parseFault(spec string) (bwc.Fault, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 && len(parts) != 4 {
		return bwc.Fault{}, fmt.Errorf("fault %q: want at:kind:node[:value]", spec)
	}
	at, err := bwc.ParseRat(parts[0])
	if err != nil {
		return bwc.Fault{}, fmt.Errorf("fault %q: at: %v", spec, err)
	}
	kind, ok := faultKinds[parts[1]]
	if !ok {
		return bwc.Fault{}, fmt.Errorf("fault %q: unknown kind %q (want one of link-set, link-scale, link-restore, node-set, node-scale, node-restore, crash)", spec, parts[1])
	}
	f := bwc.Fault{At: at, Node: parts[2], Kind: kind}
	needsValue := kind == bwc.FaultLinkSet || kind == bwc.FaultLinkScale ||
		kind == bwc.FaultNodeSet || kind == bwc.FaultNodeScale
	if needsValue != (len(parts) == 4) {
		if needsValue {
			return bwc.Fault{}, fmt.Errorf("fault %q: kind %s needs a value", spec, parts[1])
		}
		return bwc.Fault{}, fmt.Errorf("fault %q: kind %s takes no value", spec, parts[1])
	}
	if needsValue {
		if f.Value, err = bwc.ParseRat(parts[3]); err != nil {
			return bwc.Fault{}, fmt.Errorf("fault %q: value: %v", spec, err)
		}
	}
	return f, nil
}

func cmdAdapt(args []string) error {
	fs := flag.NewFlagSet("adapt", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	degrade := fs.String("degrade", "", "link degradation as node=newComm (e.g. P1=4)")
	at := fs.String("at", "120", "time of the -degrade change")
	var faultSpecs multiFlag
	fs.Var(&faultSpecs, "fault", "scripted fault as at:kind:node[:value]; repeatable")
	random := fs.Int("random", 0, "generate this many seeded random degradations instead")
	seed := fs.Int64("seed", 1, "seed for -random")
	stop := fs.String("stop", "400", "detection horizon: the root stops releasing at this time")
	window := fs.String("window", "", "drift-detection window (default: the schedule's rootless period)")
	threshold := fs.Float64("threshold", 0.85, "minimum worst-node achieved/α ratio per window")
	k := fs.Int("k", 2, "consecutive bad windows that fire the detector")
	maxAdapts := fs.Int("max-adapts", 4, "re-negotiation budget before giving up")
	detectOnly := fs.Bool("detect-only", false, "report the first drift as an error instead of adapting")
	asJSON := fs.Bool("json", false, "print the post-swap health report as JSON")
	logOut := fs.String("log-out", "", "write controller events + span JSONL to this file ('-' = stdout)")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	stopAt, err := bwc.ParseRat(*stop)
	if err != nil {
		return err
	}

	var faults []bwc.Fault
	if *degrade != "" {
		name, commS, ok := strings.Cut(*degrade, "=")
		if !ok {
			return fmt.Errorf("need -degrade node=newComm")
		}
		comm, err := bwc.ParseRat(commS)
		if err != nil {
			return err
		}
		atR, err := bwc.ParseRat(*at)
		if err != nil {
			return err
		}
		faults = append(faults, bwc.DegradeLink(atR, name, comm))
	}
	for _, spec := range faultSpecs {
		f, err := parseFault(spec)
		if err != nil {
			return err
		}
		faults = append(faults, f)
	}
	if *random > 0 {
		faults = append(faults, bwc.RandomFaults(t, *seed, *random, stopAt)...)
	}
	if len(faults) == 0 {
		return fmt.Errorf("no faults given; use -degrade, -fault or -random")
	}

	res := sess.Solve(t)

	opts := []bwc.Option{
		bwc.WithFaults(faults...),
		bwc.WithStop(stopAt),
		bwc.WithDriftThreshold(*threshold),
		bwc.WithDriftDebounce(*k),
		bwc.WithMaxAdapts(*maxAdapts),
	}
	if *window != "" {
		w, err := bwc.ParseRat(*window)
		if err != nil {
			return err
		}
		opts = append(opts, bwc.WithDriftWindow(w))
	}
	if *detectOnly {
		opts = append(opts, bwc.WithDetectOnly())
	}
	var logW io.WriteCloser
	if *logOut != "" {
		ob := bwc.NewObserver()
		if logW, err = openOut(*logOut); err != nil {
			return err
		}
		defer logW.Close()
		ob.AttachJSONL(logW)
		defer ob.Close()
		opts = append(opts, bwc.WithObserver(ob))
	}

	fmt.Printf("platform:  %d nodes, optimal steady state %s tasks/unit\n", t.Len(), res.Throughput)
	fmt.Printf("fault timeline:\n")
	for _, f := range faults {
		fmt.Printf("  %s\n", f)
	}

	rep, err := sess.SimulateAdaptive(t, opts...)
	if err != nil {
		return err
	}
	for i, ad := range rep.Adaptations {
		fmt.Printf("drift:     t=%s, worst node %s at %.0f%% of its α share\n",
			ad.Drift.At, ad.Drift.Window.WorstNode, 100*ad.Drift.Window.MinRatio)
		pruned := "none"
		if len(ad.Pruned) > 0 {
			pruned = strings.Join(ad.Pruned, ",")
		}
		fmt.Printf("adapt #%d:  swap at t=%s, resume t=%s, throughput %s (visited %d, messages %d, pruned %s)\n",
			i+1, ad.SwapAt, ad.ResumeAt, ad.Throughput, ad.Visited, ad.Messages, pruned)
	}
	// The loop adapts to every drift but a last one with no swap boundary
	// left before the horizon.
	if n := len(rep.Drifts); n > len(rep.Adaptations) {
		d := rep.Drifts[n-1]
		fmt.Printf("drift:     t=%s, worst node %s at %.0f%% of its α share\n", d.At, d.Window.WorstNode, 100*d.Window.MinRatio)
		fmt.Printf("late:      no swap boundary before the horizon %s; verifying the run as it stands\n", stopAt)
	}
	if len(rep.Drifts) == 0 {
		fmt.Printf("no drift detected over [0, %s]; schedule still conforms\n", rep.Stop)
	}
	if rep.Pre != nil {
		fmt.Printf("pre-swap:  %s\n", verdictLine(rep.Pre))
	}
	if rep.Post != nil {
		fmt.Printf("post-swap: %s (verified to t=%s)\n", verdictLine(rep.Post), rep.Stop)
	}
	if *asJSON && rep.Post != nil {
		if err := rep.Post.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else if rep.Post != nil {
		if err := rep.Post.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if !rep.Healed {
		return fmt.Errorf("adapt: final regime failed %d conformance check(s)", rep.Post.Failed)
	}
	fmt.Printf("healed: the run converged to the re-negotiated steady state\n")
	return nil
}

// verdictLine summarizes a health report as PASS/FAIL with counts.
func verdictLine(r *bwc.HealthReport) string {
	if r.Healthy() {
		return fmt.Sprintf("PASS (%d checks, %d skipped)", r.Passed, r.Skipped)
	}
	return fmt.Sprintf("FAIL (%d of %d checks failed)", r.Failed, r.Passed+r.Failed)
}
