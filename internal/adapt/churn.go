package adapt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bwc/internal/bwfirst"
	"bwc/internal/obs"
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

// ChurnOptions configures SimulateChurn: the churn policy of the
// adaptation loop. The embedded Options carry the detection horizon,
// detector thresholds, and any scripted faults to merge with the
// generated churn.
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
	// ResolveRetries bounds how many consecutive failed re-solves are
	// retried before collapsing (default 3). The backoff between retries
	// is the detection window, doubled per consecutive failure and
	// jittered deterministically from the churn seed.
	ResolveRetries int
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

// oracleFloor is the churn-retention verdict's threshold: the final
// retained throughput must reach this fraction of an oracle full re-solve
// on the final platform.
const oracleFloor = 0.9

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
}

// SimulateChurn runs the adaptation loop under a seeded churn timeline
// (ChurnConfig) merged with the scripted faults, against the exact
// simulator. It is SimulateAdaptive's loop with the churn policy: each
// re-solve runs incrementally along the affected root-to-leaf spine only
// (bwfirst.SolveIncremental over tree.DiffWeights) and hot-swaps just the
// changed schedules through the engine's delta seam, as every
// adaptation does; flapping nodes are quarantined, re-solves below
// RetentionFloor of the baseline are retried with seeded backoff jitter,
// and a run whose retry budget runs out collapses with
// ErrChurnCollapse. The report compares the retained throughput with an
// oracle full re-solve on the final platform.
//
// The controller is fully deterministic: a fixed seed reproduces the
// fault script, the simulated runs, and the report log byte for byte.
func SimulateChurn(s *sched.Schedule, opt ChurnOptions) (*ChurnReport, error) {
	return control(s, opt.withChurnDefaults(), true)
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
func quarantineFlappers(rep *ChurnReport, base *tree.Tree, dirty []tree.NodeID, at rat.R, opt ChurnOptions, flaps map[tree.NodeID][]rat.R, quarantined []bool) {
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
			rep.note(opt.Obs, at, "quarantine", fmt.Sprintf("quarantine %s after %d perturbations within %s", base.Name(id), len(ev), opt.FlapWindow),
				obs.A("node", base.Name(id)), obs.A("perturbations", fmt.Sprint(len(ev))), obs.A("window", opt.FlapWindow.String()))
		}
	}
}

// prunedSet lists, in node-ID order, the nodes a re-solve at t must
// exclude: the quarantined ones, and the ones crashed by t (a crash is
// permanent).
func prunedSet(tr *tree.Tree, faults []Fault, t rat.R, quarantined []bool) []tree.NodeID {
	mark := make([]bool, tr.Len())
	copy(mark, quarantined)
	for _, f := range faults {
		if id, ok := tr.Lookup(f.Node); ok && f.Kind == Crash && f.At.LessEq(t) {
			mark[id] = true
		}
	}
	var out []tree.NodeID
	for id, m := range mark {
		if m {
			out = append(out, tree.NodeID(id))
		}
	}
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
func finishChurn(rep *ChurnReport, base *tree.Tree, physics []sim.PhysicsChange, faults []Fault, quarantined []bool, opt ChurnOptions) {
	finalPlat := physicsAt(base, physics, opt.Stop)
	if oracle, err := bwfirst.SolvePruned(finalPlat, prunedSet(finalPlat, faults, opt.Stop, nil)); err == nil {
		rep.Oracle = oracle.Throughput
	}
	if fs := rep.FinalSchedule(); fs != nil {
		rep.Final = fs.Throughput()
	}
	if rep.Oracle.IsPos() {
		rep.Retention = rep.Final.Div(rep.Oracle).Float64()
	}
	rep.Quarantined = nodeNames(base, prunedSet(base, nil, rat.Zero, quarantined))
	if rep.Post != nil {
		rep.Post.AddCheck(analyze.ChurnRetention(rep.Final, rep.Oracle, oracleFloor))
		rep.Healed = rep.Post.Healthy() && !rep.Collapsed
	}
	rep.note(opt.Obs, opt.Stop, "final", fmt.Sprintf("final retained=%s oracle=%s retention=%.3f quarantined=%d adaptations=%d",
		rep.Final, rep.Oracle, rep.Retention, len(rep.Quarantined), len(rep.Adaptations)),
		obs.A("retained", rep.Final.String()), obs.A("oracle", rep.Oracle.String()),
		obs.A("retention", fmt.Sprintf("%.3f", rep.Retention)), obs.A("adaptations", fmt.Sprint(len(rep.Adaptations))))
}
