package adapt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bwc/internal/bwcerr"
	"bwc/internal/bwfirst"
	"bwc/internal/engine"
	"bwc/internal/obs/analyze"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/sim"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

// ChurnConfig seeds the stochastic fleet-churn process. Every field has
// a usable default; Seed alone fully determines the generated timeline
// for a given tree and horizon.
type ChurnConfig struct {
	// Seed drives the generator; the same seed yields a byte-identical
	// fault script (and therefore an identical simulated run).
	Seed int64
	// Rate is the expected number of churn events per 100 virtual time
	// units at peak diurnal intensity (default 8).
	Rate float64
	// ParetoShape is the tail index of the heavy-tailed inter-arrival
	// gaps: smaller means burstier, with occasional long lulls
	// (default 1.5).
	ParetoShape float64
	// DayLength is the diurnal period of the intensity envelope; zero
	// uses the horizon, giving one quiet–busy–quiet cycle per run.
	DayLength rat.R
	// Trough is the off-peak intensity floor in (0,1] (default 0.15).
	Trough float64
	// Grid quantizes event instants up to multiples of 1/Grid so every
	// timestamp stays an exact rational (default 32).
	Grid int64
	// CrashFraction caps fail-stop victims as a fraction of the non-root
	// fleet (default 0.15; negative disables crashes entirely).
	CrashFraction float64
}

// churn event generation bounds: events land in the middle of the
// horizon — after start-up has settled, with a cooldown tail so the
// final regime can re-stabilize before verification — and a runaway
// rate is capped rather than allowed to flood the timeline.
const (
	churnOnsetFrac    = 0.125
	churnCooldownFrac = 0.75
	churnMaxEvents    = 256
)

// GenerateChurn compiles cfg into a reproducible fault script for t
// over [0, horizon): join/leave churn (a leave is a link collapsed by
// 16×, the rejoin its restore), bandwidth and compute drift (scales of
// 1.5–6× with probabilistic recovery), and a bounded budget of
// permanent fail-stop crashes. Inter-arrival gaps are heavy-tailed
// (Pareto) and thinned by a diurnal intensity envelope; instants are
// quantized up to the rational grid so the driven simulation stays
// exact. The root is never targeted.
func GenerateChurn(t *tree.Tree, horizon rat.R, cfg ChurnConfig) []Fault {
	if t == nil || t.Len() < 2 || !horizon.IsPos() {
		return nil
	}
	rate := cfg.Rate
	if rate <= 0 {
		rate = 8
	}
	shape := cfg.ParetoShape
	if shape <= 0 {
		shape = 1.5
	}
	grid := cfg.Grid
	if grid <= 0 {
		grid = 32
	}
	day := cfg.DayLength
	if !day.IsPos() {
		day = horizon
	}
	frac := cfg.CrashFraction
	switch {
	case frac < 0:
		frac = 0
	case frac == 0:
		frac = 0.15
	}
	crashBudget := int(frac * float64(t.Len()-1))

	// Normalize the Pareto samples to mean 1 (median 1 when the shape
	// puts the mean out of reach) so meanGap really is the mean gap.
	norm := 1 / math.Pow(2, 1/shape)
	if shape > 1 {
		norm = (shape - 1) / shape
	}
	meanGap := 100 / rate
	H := horizon.Float64()
	dayF := day.Float64()
	start, end := churnOnsetFrac*H, churnCooldownFrac*H

	rng := rand.New(rand.NewSource(cfg.Seed))
	crashed := map[tree.NodeID]bool{}
	var out []Fault
	gap := func(scale float64) float64 {
		return scale * norm * treegen.Pareto(rng, shape)
	}
	for x := start; len(out) < churnMaxEvents; {
		x += gap(meanGap) / treegen.DiurnalIntensity(x/dayF, cfg.Trough)
		if x >= end {
			break
		}
		at := treegen.QuantizeUp(x, grid)
		victim := tree.NodeID(1 + rng.Intn(t.Len()-1))
		name := t.Name(victim)
		_, hasProc := t.ProcTime(victim)
		outage := x + gap(meanGap*0.75)
		roll := rng.Intn(10)
		switch {
		case roll == 0 && crashBudget > 0 && !crashed[victim]:
			crashed[victim] = true
			crashBudget--
			out = append(out, Fault{At: at, Node: name, Kind: Crash})
		case roll <= 3 && hasProc:
			// Compute drift: the machine slows by 1.5–6×.
			factor := rat.New(int64(3+rng.Intn(10)), 2)
			out = append(out, Fault{At: at, Node: name, Kind: NodeScale, Value: factor})
			if rng.Intn(10) < 6 && outage < end {
				out = append(out, Fault{At: treegen.QuantizeUp(outage, grid), Node: name, Kind: NodeRestore})
			}
		case roll <= 6:
			// Bandwidth drift: the incoming link degrades by 1.5–6×.
			factor := rat.New(int64(3+rng.Intn(10)), 2)
			out = append(out, Fault{At: at, Node: name, Kind: LinkScale, Value: factor})
			if rng.Intn(10) < 6 && outage < end {
				out = append(out, Fault{At: treegen.QuantizeUp(outage, grid), Node: name, Kind: LinkRestore})
			}
		default:
			// Leave + rejoin: the link collapses outright, then comes
			// back at its baseline weight after a longer outage.
			rejoin := x + gap(meanGap*1.5)
			out = append(out, Fault{At: at, Node: name, Kind: LinkScale, Value: rat.FromInt(16)})
			if rejoin < end {
				out = append(out, Fault{At: treegen.QuantizeUp(rejoin, grid), Node: name, Kind: LinkRestore})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Less(out[j].At) })
	return out
}

// ChurnOptions configures SimulateChurn. The embedded Options carry the
// detection horizon, detector thresholds, and any scripted faults to
// merge with the generated churn.
type ChurnOptions struct {
	Options
	// Churn seeds the stochastic churn generator.
	Churn ChurnConfig
	// RetentionFloor is the graceful-degradation contract's hard floor:
	// a re-solve whose throughput falls below this fraction of the
	// baseline is treated as a failed re-negotiation and retried; when
	// the retry budget is exhausted the run collapses with
	// bwcerr.ErrChurnCollapse (default 0.5).
	RetentionFloor float64
	// OracleFloor is the verdict threshold for the churn-retention
	// check: the final retained throughput must reach this fraction of
	// an oracle full re-solve on the final platform (default 0.9).
	OracleFloor float64
	// ResolveRetries bounds how many consecutive failed re-solves are
	// retried with backoff before collapsing (default 3).
	ResolveRetries int
	// RetryBackoff is the base backoff between retries, doubled per
	// consecutive failure and jittered deterministically from the churn
	// seed; zero uses the detection window.
	RetryBackoff rat.R
	// FlapThreshold quarantines a node observed perturbed in this many
	// re-solve cycles within FlapWindow: its subtree is pruned from
	// subsequent schedules instead of being chased (default 3).
	FlapThreshold int
	// FlapWindow is the sliding window for flap counting; zero uses a
	// quarter of the horizon.
	FlapWindow rat.R
}

func (o ChurnOptions) withChurnDefaults() ChurnOptions {
	if o.MaxAdapts == 0 {
		// Churn fires many more adaptations than a scripted fault demo.
		o.MaxAdapts = 16
	}
	if o.RetentionFloor <= 0 {
		o.RetentionFloor = 0.5
	}
	if o.OracleFloor <= 0 {
		o.OracleFloor = 0.9
	}
	if o.ResolveRetries <= 0 {
		o.ResolveRetries = 3
	}
	if o.FlapThreshold <= 0 {
		o.FlapThreshold = 3
	}
	if !o.FlapWindow.IsPos() {
		o.FlapWindow = o.Stop.Div(rat.FromInt(4))
	}
	o.Options = o.Options.withDefaults()
	return o
}

// ReSolveStat records the cost of one incremental re-solve cycle.
type ReSolveStat struct {
	// At is the drift-detection instant that triggered the cycle.
	At rat.R
	// Recomputed and Reused count live spine transactions vs memoized
	// subtree answers carried over from the previous solution.
	Recomputed int
	Reused     int
	// Pruned counts crashed plus quarantined nodes excluded outright.
	Pruned int
	// Delta counts the nodes whose schedule actually changed — the only
	// cursors the hot-swap reset.
	Delta int
}

// ChurnReport is the outcome of one SimulateChurn run.
type ChurnReport struct {
	SimReport
	// Faults is the full merged fault timeline (generated + scripted).
	Faults []Fault
	// Baseline is the initial schedule's steady-state throughput.
	Baseline rat.R
	// Oracle is a full (non-incremental) re-solve on the final measured
	// platform with only the truly crashed nodes pruned — the best any
	// controller could retain.
	Oracle rat.R
	// Final is the steady-state throughput of the last deployed
	// schedule; Retention is Final/Oracle.
	Final     rat.R
	Retention float64
	// Quarantined names the flapping nodes the controller gave up on.
	Quarantined []string
	// ReSolves records the incremental cost of each adaptation cycle.
	ReSolves []ReSolveStat
	// Collapsed reports the terminal degradation state (the run also
	// returns bwcerr.ErrChurnCollapse).
	Collapsed bool
	// Log is the deterministic event log: identical seeds and options
	// reproduce it byte for byte.
	Log []string
}

func (r *ChurnReport) logf(format string, a ...any) {
	r.Log = append(r.Log, fmt.Sprintf(format, a...))
}

const churnJitterSalt = 0x5bd1e995

// SimulateChurn runs the churn-hardened closed loop against the exact
// simulator: generate a seeded churn timeline, simulate, detect drift,
// and — unlike SimulateAdaptive's full re-negotiation — re-solve
// incrementally along the affected root-to-leaf spine only
// (bwfirst.SolveIncremental over tree.DiffWeights), hot-swapping just
// the changed schedules through the engine's delta seam. Flapping nodes
// are quarantined, failed re-solves retried with seeded backoff jitter,
// and a run whose retained throughput stays below RetentionFloor of the
// baseline after the retry budget collapses with ErrChurnCollapse.
//
// The controller is fully deterministic: a fixed seed reproduces the
// fault script, the simulated runs, and the report log byte for byte.
func SimulateChurn(s *sched.Schedule, opt ChurnOptions) (*ChurnReport, error) {
	if s == nil || s.Tree == nil || s.Tree.Len() == 0 {
		return nil, fmt.Errorf("adapt: no schedule")
	}
	if !opt.Stop.IsPos() {
		return nil, fmt.Errorf("adapt: Stop must be positive")
	}
	opt = opt.withChurnDefaults()
	base := s.Tree

	faults := GenerateChurn(base, opt.Stop, opt.Churn)
	faults = append(faults, opt.Faults...)
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].At.Less(faults[j].At) })
	physics, err := Timeline(base, faults, rat.FromInt(crashFactor))
	if err != nil {
		return nil, err
	}
	opt.Faults = faults // CrashedBefore and the report see the merged script

	rep := &ChurnReport{Faults: faults}
	rep.Stop = opt.Stop
	for _, f := range faults {
		rep.logf("fault %s", f)
	}

	prevRes := s.Res
	if prevRes == nil {
		prevRes = bwfirst.Solve(base)
	}
	rep.Baseline = prevRes.Throughput
	rep.Final = prevRes.Throughput
	prevTree := base

	phases := []sim.Phase{{At: rat.Zero, Schedule: s}}
	segStart := rat.Zero
	active := s
	settle := s.MaxStartupBound()
	quarantined := map[tree.NodeID]bool{}
	flaps := map[tree.NodeID][]rat.R{}
	retries := 0
	jitter := rand.New(rand.NewSource(opt.Churn.Seed ^ churnJitterSalt))

	for {
		run, err := simulateOnce(phases, physics, opt.Stop)
		if err != nil {
			return nil, err
		}
		window, err := opt.windowFor(active)
		if err != nil {
			return nil, err
		}
		drift, found := scan(analyze.FromRun(run.Trace, run.Obs), active, segStart, settle, opt.Stop, window, opt.detector())
		if !found {
			break
		}
		rep.logf("drift t=%s node=%s ratio=%.3f", drift.At, drift.Window.WorstNode, drift.Window.MinRatio)
		if len(rep.Adaptations) >= opt.MaxAdapts {
			return rep, adaptExhausted(drift.At, len(rep.Adaptations))
		}

		measured := physicsAt(base, physics, drift.At)
		dirty, err := tree.DiffWeights(prevTree, measured)
		if err != nil {
			return rep, fmt.Errorf("adapt: churn diff: %w", err)
		}
		quarantineFlappers(rep, base, dirty, drift.At, opt, flaps, quarantined)
		pruned := prunedSet(measured, CrashedBefore(faults, drift.At), quarantined)

		res, serr := bwfirst.SolveIncremental(prevRes, measured, dirty, pruned)
		var next *sched.Schedule
		if serr == nil && retainsFloor(res.Throughput, rep.Baseline, opt.RetentionFloor) {
			next, serr = buildResolved(res, opt.Sched)
		}
		if next == nil {
			// Failed re-negotiation: back off (exponentially, with seeded
			// jitter so repeated runs of one seed stay reproducible while
			// distinct seeds desynchronize) and give restores a chance to
			// land before trying again.
			retries++
			thr := rat.Zero
			if serr == nil {
				thr = res.Throughput
			}
			if retries > opt.ResolveRetries {
				rep.Collapsed = true
				rep.logf("collapse t=%s throughput=%s floor=%.0f%% of baseline %s", drift.At, thr, 100*opt.RetentionFloor, rep.Baseline)
				verr := verifyAndReport(&rep.SimReport, phases, physics, opt.Options, segStart, s)
				finishChurn(rep, base, physics, faults, quarantined, opt)
				if verr != nil {
					return rep, verr
				}
				return rep, fmt.Errorf("adapt: churn collapse at t=%s: retained throughput %s is below %.0f%% of baseline %s after %d attempts: %w",
					drift.At, thr, 100*opt.RetentionFloor, rep.Baseline, retries, bwcerr.ErrChurnCollapse)
			}
			backoff := opt.RetryBackoff
			if !backoff.IsPos() {
				backoff = window
			}
			backoff = backoff.Mul(rat.FromInt(int64(1) << (retries - 1)))
			jit := rat.New(int64(jitter.Intn(8)), 8).Mul(window)
			settle = drift.At.Add(backoff).Add(jit)
			rep.logf("retry %d/%d t=%s backoff=%s jitter=%s", retries, opt.ResolveRetries, drift.At, backoff, jit)
			continue
		}
		retries = 0

		swapAt, err := nextBoundary(active, segStart, drift.At, opt.Stop)
		if err != nil {
			if errors.Is(err, bwcerr.ErrAdaptTimeout) {
				// Drift fired so late that no swap boundary fits before the
				// horizon: nothing left to adapt, verify what we have.
				rep.logf("late drift t=%s: no swap boundary before the horizon, verifying as-is", drift.At)
				break
			}
			return rep, err
		}
		drain := drainBound(active, measured, swapAt.Sub(segStart))
		resumeAt := swapAt
		installed := active
		if drain.IsPos() {
			pause := pauseSchedule(active)
			// Pausing touches exactly the root; every other cursor keeps
			// its place so buffered tasks drain along the old routes.
			phases = append(phases, sim.Phase{At: swapAt, Schedule: pause, Changed: []tree.NodeID{active.Tree.Root()}})
			resumeAt = swapAt.Add(drain)
			installed = pause
		}
		changed := engine.ChangedNodes(installed, next)
		if changed == nil {
			changed = []tree.NodeID{}
		}
		phases = append(phases, sim.Phase{At: resumeAt, Schedule: next, Changed: changed})
		rep.Adaptations = append(rep.Adaptations, Adaptation{
			Drift:      drift,
			SwapAt:     swapAt,
			ResumeAt:   resumeAt,
			Throughput: res.Throughput,
			Messages:   2 * (len(res.Transactions) + 1), // the virtual parent's pair included
			Visited:    res.Recomputed(),
			Pruned:     nodeNames(base, pruned),
			Schedule:   next,
		})
		rep.ReSolves = append(rep.ReSolves, ReSolveStat{
			At:         drift.At,
			Recomputed: res.Recomputed(),
			Reused:     res.Reused(),
			Pruned:     len(pruned),
			Delta:      len(changed),
		})
		rep.logf("resolve t=%s spine=%d reused=%d pruned=%d delta=%d throughput=%s",
			drift.At, res.Recomputed(), res.Reused(), len(pruned), len(changed), res.Throughput)
		rep.logf("swap t=%s resume=%s", swapAt, resumeAt)
		settle = resumeAt.Add(next.MaxStartupBound())
		segStart = resumeAt
		active = next
		prevTree = measured
		prevRes = res
		rep.Final = res.Throughput
	}

	if err := verifyAndReport(&rep.SimReport, phases, physics, opt.Options, segStart, s); err != nil {
		return rep, err
	}
	finishChurn(rep, base, physics, faults, quarantined, opt)
	return rep, nil
}

// retainsFloor reports whether thr clears floor·baseline. The floor is a
// float knob, so the comparison is exact on the rational side: thr is
// compared against baseline scaled by the floor rounded to 1/1024.
func retainsFloor(thr, baseline rat.R, floor float64) bool {
	f := rat.New(int64(math.Ceil(floor*1024)), 1024)
	return !thr.Less(baseline.Mul(f))
}

// quarantineFlappers folds one cycle's dirty set into the sliding flap
// counters and quarantines any non-root node perturbed in FlapThreshold
// cycles within FlapWindow.
func quarantineFlappers(rep *ChurnReport, base *tree.Tree, dirty []tree.NodeID, at rat.R, opt ChurnOptions, flaps map[tree.NodeID][]rat.R, quarantined map[tree.NodeID]bool) {
	cut := at.Sub(opt.FlapWindow)
	for _, id := range dirty {
		if id == base.Root() {
			continue
		}
		ev := append(flaps[id], at)
		for len(ev) > 0 && ev[0].Less(cut) {
			ev = ev[1:]
		}
		flaps[id] = ev
		if !quarantined[id] && len(ev) >= opt.FlapThreshold {
			quarantined[id] = true
			rep.logf("quarantine %s after %d perturbations within %s", base.Name(id), len(ev), opt.FlapWindow)
		}
	}
}

// prunedSet merges crashed names and quarantined ids into a sorted,
// deduplicated prune list.
func prunedSet(t *tree.Tree, crashed []string, quarantined map[tree.NodeID]bool) []tree.NodeID {
	set := map[tree.NodeID]bool{}
	for _, name := range crashed {
		if id, ok := t.Lookup(name); ok {
			set[id] = true
		}
	}
	for id := range quarantined {
		set[id] = true
	}
	out := make([]tree.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func nodeNames(t *tree.Tree, ids []tree.NodeID) []string {
	var out []string
	for _, id := range ids {
		out = append(out, t.Name(id))
	}
	return out
}

// finishChurn computes the oracle comparison and folds the retention
// verdict into the post-swap conformance report.
func finishChurn(rep *ChurnReport, base *tree.Tree, physics []sim.PhysicsChange, faults []Fault, quarantined map[tree.NodeID]bool, opt ChurnOptions) {
	finalPlat := physicsAt(base, physics, opt.Stop)
	var crashIDs []tree.NodeID
	for _, name := range CrashedBefore(faults, opt.Stop) {
		if id, ok := finalPlat.Lookup(name); ok {
			crashIDs = append(crashIDs, id)
		}
	}
	if oracle, err := bwfirst.SolvePruned(finalPlat, crashIDs); err == nil {
		rep.Oracle = oracle.Throughput
	}
	if fs := rep.FinalSchedule(); fs != nil && fs.Res != nil {
		rep.Final = fs.Res.Throughput
	}
	if rep.Oracle.IsPos() {
		rep.Retention = rep.Final.Div(rep.Oracle).Float64()
	}
	var qIDs []tree.NodeID
	for id := range quarantined {
		qIDs = append(qIDs, id)
	}
	sort.Slice(qIDs, func(i, j int) bool { return qIDs[i] < qIDs[j] })
	rep.Quarantined = nodeNames(base, qIDs)
	if rep.Post != nil {
		rep.Post.AddCheck(analyze.ChurnRetention(rep.Final, rep.Oracle, opt.OracleFloor))
		rep.Healed = rep.Post.Healthy() && !rep.Collapsed
	}
	rep.logf("final retained=%s oracle=%s retention=%.3f quarantined=%d adaptations=%d",
		rep.Final, rep.Oracle, rep.Retention, len(rep.Quarantined), len(rep.Adaptations))
}
