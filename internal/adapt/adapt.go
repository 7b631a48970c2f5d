package adapt

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"bwc/internal/bwcerr"
	"bwc/internal/bwfirst"
	"bwc/internal/engine"
	"bwc/internal/obs"
	"bwc/internal/obs/analyze"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/sim"
	"bwc/internal/tree"
)

// Options configures an adaptive run.
type Options struct {
	// Faults is the scripted perturbation timeline (see RandomFaults for
	// a generated one).
	Faults []Fault
	// Stop is the detection horizon: the root releases tasks until Stop
	// (virtual time). Required for SimulateAdaptive.
	Stop rat.R
	// Window is the drift-detection window width; zero uses the active
	// schedule's rootless period.
	Window rat.R
	// Threshold is the minimum worst-node achieved/α per window
	// (default 0.85).
	Threshold float64
	// Consecutive is how many bad windows in a row fire the detector
	// (default 2).
	Consecutive int
	// MaxAdapts bounds the number of re-negotiations. 0 means the
	// default (4; 16 under SimulateChurn). Negative means detect only: the
	// first drift surfaces as ErrScheduleStale.
	MaxAdapts int
	// Sched configures re-solved schedule construction.
	Sched sched.Options
	// Obs, when enabled, receives the controller's events, one per line
	// of the report's Log.
	Obs *obs.Scope
}

// Controller constants.
const (
	// bufferSlack is the tolerated peak-buffer excess over χ per window:
	// schedule transitions jitter occupancy by a task or two.
	bufferSlack = 2
	// crashFactor is the compute slowdown standing in for a fail-stopped
	// process.
	crashFactor = 1 << 20
	// verifyPeriods is how many tree periods of the final schedule the
	// post-swap verification window must cover; the verification run
	// extends its horizon past Stop if needed.
	verifyPeriods = 4
)

func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = 0.85
	}
	if o.Consecutive <= 0 {
		o.Consecutive = 2
	}
	switch {
	case o.MaxAdapts == 0:
		o.MaxAdapts = 4
	case o.MaxAdapts < 0: // detect only
		o.MaxAdapts = 0
	}
	return o
}

// windowFor resolves the detection window for a schedule.
func (o Options) windowFor(s *sched.Schedule) (rat.R, error) {
	if o.Window.IsPos() {
		return o.Window, nil
	}
	w := rat.FromBigInt(s.RootlessPeriod())
	if !w.IsPos() {
		w = rat.FromBigInt(s.TreePeriod())
	}
	if !w.IsPos() {
		return rat.Zero, fmt.Errorf("adapt: schedule has no positive period to derive a detection window from: %w", bwcerr.ErrInfeasible)
	}
	return w, nil
}

// Adaptation records one detect → re-solve → swap cycle.
type Adaptation struct {
	// Drift is the detection that triggered the cycle.
	Drift Drift
	// SwapAt is the period boundary the stale schedule was deactivated
	// at: the first root period boundary after detection.
	SwapAt rat.R
	// ResumeAt is when the new schedule started releasing: SwapAt plus
	// the pause the controller inserts to drain the stale backlog off
	// the root's send port (equal to SwapAt when no drain was needed).
	ResumeAt rat.R
	// Throughput is the re-negotiated steady-state rate on the measured
	// platform.
	Throughput rat.R
	// Messages and Visited report the cost of the re-solve as the
	// protocol's full wave would pay it (the paper's Prop. 2 economy:
	// only the useful subtree is walked): the nodes BW-First visits on the
	// measured platform, and two messages per visited node, the virtual
	// parent's pair included (E9). What the incremental re-solve actually
	// recomputed is in ChurnReport.ReSolves.
	Messages int
	Visited  int
	// Pruned names the nodes whose subtrees the re-solve excluded (the
	// crashed ones, and under SimulateChurn the quarantined ones too), in
	// node-ID order.
	Pruned []string
	// Schedule is the newly deployed schedule.
	Schedule *sched.Schedule
}

// SimReport is the outcome of one SimulateAdaptive run.
type SimReport struct {
	// Run is the final verification run: the full timeline with every
	// adaptation applied.
	Run *sim.Run
	// Drifts lists every drift the loop detected, in order: each one it
	// acted on (the Drift of an Adaptation), each one whose re-solve it
	// retried, and a last one it could not act on — too late for a swap
	// boundary, over budget, detect-only, or a crashed root.
	Drifts []Drift
	// Adaptations lists the detect/re-solve/swap cycles, in order.
	Adaptations []Adaptation
	// Pre analyzes the regime before the first swap under the original
	// schedule (the stale regime — expected to fail when faults bite);
	// nil when no adaptation happened.
	Pre *analyze.HealthReport
	// Post analyzes the regime after the last swap (past its start-up
	// bound) under the final schedule; when no adaptation happened it is
	// the whole-run report.
	Post *analyze.HealthReport
	// Healed reports whether the final regime passes every check.
	Healed bool
	// Stop is the verification horizon actually simulated (≥ the
	// requested Stop when the last swap needed more room to verify).
	Stop rat.R
	// Log is the deterministic controller log, one line per step: the
	// fault script, then each drift, quarantine, retry, re-solve, swap,
	// late drift or collapse, and a churn run's final retention. Each line
	// has a matching event on Options.Obs; identical inputs reproduce the
	// log byte for byte.
	Log []string
}

// FinalSchedule returns the schedule active at the end of the run.
func (r *SimReport) FinalSchedule() *sched.Schedule {
	if n := len(r.Adaptations); n > 0 {
		return r.Adaptations[n-1].Schedule
	}
	return nil
}

// SimulateAdaptive runs the closed loop against the exact simulator
// under the scripted faults alone: simulate, scan the evidence for drift
// against the active schedule, re-solve on the measured (faulted)
// platform with the crashed nodes' subtrees excluded, and hot-swap the
// new schedule at the next root period boundary; repeat until no drift
// remains or MaxAdapts is exhausted.
//
// Detection-only mode (negative MaxAdapts) returns ErrScheduleStale on
// the first drift. A run whose drift persists after MaxAdapts re-solves
// returns ErrAdaptTimeout, and a crashed root ErrInfeasible. A drift with
// no swap boundary left before Stop ends the loop, and the run is
// verified as it stands.
func SimulateAdaptive(s *sched.Schedule, opt Options) (*SimReport, error) {
	rep, err := control(s, ChurnOptions{Options: opt.withDefaults()}, false)
	if rep == nil {
		return nil, err
	}
	return &rep.SimReport, err
}

// churnJitterSalt decorrelates the retry jitter from the churn script
// drawn from the same seed.
const churnJitterSalt = 0x5bd1e995

// control is the one adaptation loop behind both entry points, Section
// 5's procedure: simulate the grown phase list, scan the active regime
// for drift, re-solve incrementally on the measured platform, and
// install the result at the next root period boundary; then verify and
// report. It is deterministic: re-simulating the grown phase list
// replays the identical prefix, so each iteration extends the previous
// timeline exactly, and a fixed seed reproduces the log byte for byte.
//
// opt, defaulted by the entry point, is the policy: MaxAdapts is the
// adaptation budget (zero detects only), FlapThreshold > 0 quarantines
// flapping nodes, and a re-solve below RetentionFloor or without a
// usable schedule is retried ResolveRetries times with seeded backoff
// (with none, its error ends the run). churn adds the seeded churn
// process to the scripted faults and judges the final throughput
// against the oracle.
func control(s *sched.Schedule, opt ChurnOptions, churn bool) (*ChurnReport, error) {
	if s == nil || s.Tree == nil || s.Tree.Len() == 0 {
		return nil, fmt.Errorf("adapt: no schedule")
	}
	if !opt.Stop.IsPos() {
		return nil, fmt.Errorf("adapt: Stop must be positive")
	}
	base := s.Tree
	faults := opt.Faults
	if churn {
		faults = append(GenerateChurn(base, opt.Stop, opt.Churn), opt.Faults...)
		sort.SliceStable(faults, func(i, j int) bool { return faults[i].At.Less(faults[j].At) })
	}
	physics, err := Timeline(base, faults, rat.FromInt(crashFactor))
	if err != nil {
		return nil, err
	}

	rep := &ChurnReport{Faults: faults}
	rep.Stop = opt.Stop
	for _, f := range faults {
		attrs := []obs.Attr{obs.A("at", f.At.String()), obs.A("node", f.Node), obs.A("kind", f.Kind.String())}
		if f.Value.IsPos() {
			attrs = append(attrs, obs.A("value", f.Value.String()))
		}
		rep.note(opt.Obs, f.At, "fault", "fault "+f.String(), attrs...)
	}
	prevRes, prevTree := s.Res, base
	if prevRes == nil {
		prevRes = bwfirst.Solve(base)
	}
	rep.Baseline, rep.Final = prevRes.Throughput, prevRes.Throughput

	var phases []sim.Phase // the swaps after s, which runs from 0
	segStart, active := rat.Zero, s
	// settle is the absolute time before which the active regime is not
	// yet owed its steady state: its Proposition 4 start-up bound past the
	// instant it began releasing, or the end of a retry's backoff.
	settle := s.MaxStartupBound()
	quarantined := make([]bool, base.Len())
	flaps := map[tree.NodeID][]rat.R{}
	retries := 0
	jitter := rand.New(rand.NewSource(opt.Churn.Seed ^ churnJitterSalt))
	var collapse error

	for {
		run, err := simulateOnce(s, phases, physics, opt.Stop)
		if err != nil {
			return nil, err
		}
		window, err := opt.windowFor(active)
		if err != nil {
			return nil, err
		}
		drift, found := scan(analyze.FromRun(run.Trace, run.Obs), active, segStart, settle, window, opt.Options)
		if !found {
			break
		}
		rep.Drifts = append(rep.Drifts, drift)
		ratio := fmt.Sprintf("%.3f", drift.Window.MinRatio)
		rep.note(opt.Obs, drift.At, "drift", fmt.Sprintf("drift t=%s node=%s ratio=%s", drift.At, drift.Window.WorstNode, ratio),
			obs.A("at", drift.At.String()), obs.A("node", drift.Window.WorstNode), obs.A("ratio", ratio))
		if opt.MaxAdapts == 0 {
			return rep, staleDrift(drift.At, drift.Window.WorstNode, drift.Window.MinRatio)
		}
		if len(rep.Adaptations) >= opt.MaxAdapts {
			return rep, adaptExhausted(drift.At, len(rep.Adaptations))
		}

		measured := physicsAt(base, physics, drift.At)
		dirty, err := tree.DiffWeights(prevTree, measured)
		if err != nil {
			return rep, fmt.Errorf("adapt: diff: %w", err)
		}
		if opt.FlapThreshold > 0 {
			quarantineFlappers(rep, base, dirty, drift.At, opt, flaps, quarantined)
		}
		pruned := prunedSet(base, faults, drift.At, quarantined)
		res, err := bwfirst.SolveIncremental(prevRes, measured, dirty, pruned)
		if err != nil {
			// SolveIncremental refuses only a pruned root: a crashed root
			// leaves nothing to schedule, and no retry brings it back.
			return rep, fmt.Errorf("adapt: re-solve without %s: %v: %w", strings.Join(nodeNames(base, pruned), ","), err, bwcerr.ErrInfeasible)
		}
		var next *sched.Schedule
		if retainsFloor(res.Throughput, rep.Baseline, opt.RetentionFloor) {
			if next, err = buildResolved(res, opt.Sched); err != nil && opt.ResolveRetries == 0 {
				return rep, err
			}
		}
		if next == nil {
			// Refused re-negotiation: back off (exponentially, with seeded
			// jitter so repeated runs of one seed stay reproducible while
			// distinct seeds desynchronize) and give restores a chance to
			// land before trying again.
			thr := rat.Zero
			if err == nil {
				thr = res.Throughput
			}
			if retries++; retries > opt.ResolveRetries {
				rep.Collapsed = true
				rep.note(opt.Obs, drift.At, "collapse", fmt.Sprintf("collapse t=%s throughput=%s floor=%.0f%% of baseline %s", drift.At, thr, 100*opt.RetentionFloor, rep.Baseline),
					obs.A("at", drift.At.String()), obs.A("throughput", thr.String()), obs.A("baseline", rep.Baseline.String()))
				collapse = fmt.Errorf("adapt: churn collapse at t=%s: retained throughput %s is below %.0f%% of baseline %s after %d attempts: %w",
					drift.At, thr, 100*opt.RetentionFloor, rep.Baseline, retries, bwcerr.ErrChurnCollapse)
				break
			}
			backoff := window.Mul(rat.FromInt(int64(1) << (retries - 1)))
			jit := rat.New(int64(jitter.Intn(8)), 8).Mul(window)
			settle = drift.At.Add(backoff).Add(jit)
			rep.note(opt.Obs, drift.At, "retry", fmt.Sprintf("retry %d/%d t=%s backoff=%s jitter=%s", retries, opt.ResolveRetries, drift.At, backoff, jit),
				obs.A("at", drift.At.String()), obs.A("attempt", fmt.Sprint(retries)), obs.A("backoff", backoff.String()), obs.A("jitter", jit.String()))
			continue
		}
		retries = 0

		swapAt, err := nextBoundary(active, segStart, drift.At)
		if err != nil {
			return rep, err
		}
		if !swapAt.Less(opt.Stop) {
			// No swap boundary fits before the horizon: nothing is left to
			// adapt, so the run is verified as it stands.
			rep.note(opt.Obs, drift.At, "late", fmt.Sprintf("late drift t=%s: no swap boundary before the horizon, verifying as-is", drift.At),
				obs.A("at", drift.At.String()), obs.A("boundary", swapAt.String()))
			break
		}
		// The stale regime kept releasing at its old rate onto the faulted
		// platform, piling transfers onto the root's send port. Drain, then
		// swap: pause the root at the boundary long enough for the backlog
		// to clear, then start the new schedule from a clean port. Both
		// phases install deltas: pausing touches exactly the root, and
		// every other cursor keeps its place so buffered tasks drain along
		// the old routes.
		drain := drainBound(active, measured, swapAt.Sub(segStart))
		resumeAt, installed := swapAt, active
		if drain.IsPos() {
			installed = pauseSchedule(active)
			phases = append(phases, sim.Phase{At: swapAt, Schedule: installed, Changed: []tree.NodeID{base.Root()}})
			resumeAt = swapAt.Add(drain)
		}
		changed := engine.ChangedNodes(installed, next)
		if changed == nil {
			changed = []tree.NodeID{} // an empty delta, not a full install
		}
		phases = append(phases, sim.Phase{At: resumeAt, Schedule: next, Changed: changed})
		ad := Adaptation{Drift: drift, SwapAt: swapAt, ResumeAt: resumeAt, Throughput: res.Throughput,
			Messages: 2 * res.VisitedCount, Visited: res.VisitedCount, Pruned: nodeNames(base, pruned), Schedule: next}
		rep.Adaptations = append(rep.Adaptations, ad)
		rep.ReSolves = append(rep.ReSolves, ReSolveStat{At: drift.At, Recomputed: res.Recomputed(), Reused: res.Reused(), Pruned: len(pruned), Delta: len(changed)})
		rep.note(opt.Obs, drift.At, "negotiate", fmt.Sprintf("resolve t=%s spine=%d reused=%d pruned=%d delta=%d throughput=%s",
			drift.At, res.Recomputed(), res.Reused(), len(pruned), len(changed), res.Throughput),
			obs.A("throughput", ad.Throughput.String()), obs.A("messages", fmt.Sprint(ad.Messages)),
			obs.A("visited", fmt.Sprint(ad.Visited)), obs.A("pruned", fmt.Sprint(len(pruned))))
		rep.note(opt.Obs, swapAt, "swap", fmt.Sprintf("swap t=%s resume=%s", swapAt, resumeAt),
			obs.A("at", swapAt.String()), obs.A("resume", resumeAt.String()),
			obs.A("throughput", ad.Throughput.String()), obs.A("messages", fmt.Sprint(ad.Messages)))
		settle = resumeAt.Add(next.MaxStartupBound())
		segStart, active = resumeAt, next
		prevTree, prevRes = measured, res
	}

	verr := verifyAndReport(&rep.SimReport, phases, physics, opt.Options, segStart, s)
	if churn {
		finishChurn(rep, base, physics, faults, quarantined, opt)
	}
	if verr != nil {
		return rep, verr
	}
	return rep, collapse
}

// note records one controller step twice over: an event on the observer,
// stamped with the step's virtual instant at, and a line in the report's
// log.
func (r *SimReport) note(sc *obs.Scope, at rat.R, name, line string, attrs ...obs.Attr) {
	sc.EmitAt(at, name, attrs...)
	r.Log = append(r.Log, line)
}

// verifyAndReport is the controller's verification pass: extend the
// horizon so the final regime has verifyPeriods full tree periods past
// its settle time, re-simulate the grown timeline, and split the
// evidence at the swap boundaries. The post window starts on the final
// schedule's tree-period grid (anchored at the last swap) so that
// per-node steady-state expectations are exact integers.
func verifyAndReport(rep *SimReport, phases []sim.Phase, physics []sim.PhysicsChange, opt Options, segStart rat.R, s *sched.Schedule) error {
	final := rep.FinalSchedule()
	verifyStop := opt.Stop
	var postFrom, onsetW rat.R
	if len(rep.Adaptations) > 0 {
		tp := rat.FromBigInt(final.TreePeriod())
		if !tp.IsPos() {
			var err error
			if tp, err = opt.windowFor(final); err != nil {
				return err
			}
		}
		k := final.MaxStartupBound().Div(tp).Ceil()
		postFrom = segStart.Add(k.Mul(tp))
		verifyStop = rat.Max(verifyStop, postFrom.Add(tp.Mul(rat.FromInt(verifyPeriods))))
		onsetW = tp
	}
	run, err := simulateOnce(s, phases, physics, verifyStop)
	if err != nil {
		return err
	}
	rep.Run, rep.Stop = run, verifyStop
	ev := analyze.FromRun(run.Trace, run.Obs)
	if len(rep.Adaptations) == 0 {
		rep.Post = analyze.Analyze(ev, analyze.Options{Schedule: s, Stop: verifyStop})
		rep.Healed = rep.Post.Healthy()
		return nil
	}
	firstSwap := rep.Adaptations[0].SwapAt
	rep.Pre = analyze.Analyze(analyze.ClipEvidence(ev, rat.Zero, firstSwap),
		analyze.Options{Schedule: s, Stop: firstSwap})
	rep.Post = analyze.Analyze(analyze.ClipEvidence(ev, postFrom, verifyStop),
		analyze.Options{Schedule: final, Stop: verifyStop.Sub(postFrom), OnsetWindow: onsetW})
	rep.Healed = rep.Post.Healthy()
	return nil
}

// simulateOnce runs s and the accumulated timeline under a fresh scope.
func simulateOnce(s *sched.Schedule, phases []sim.Phase, physics []sim.PhysicsChange, stop rat.R) (*sim.Run, error) {
	return sim.Simulate(s, sim.Options{Stop: stop, Phases: phases, Physics: physics, Obs: obs.New()})
}

// physicsAt returns the platform in effect at time t.
func physicsAt(base *tree.Tree, physics []sim.PhysicsChange, t rat.R) *tree.Tree {
	cur := base
	for _, pc := range physics {
		if pc.At.LessEq(t) {
			cur = pc.Tree
		}
	}
	return cur
}

// buildResolved builds the schedule of a re-solve and refuses one the
// root could not release tasks by.
func buildResolved(res *bwfirst.Result, opt sched.Options) (*sched.Schedule, error) {
	if !res.Throughput.IsPos() {
		return nil, fmt.Errorf("adapt: re-negotiated throughput is zero on the measured platform: %w", bwcerr.ErrInfeasible)
	}
	next, err := sched.Build(res, opt)
	if err != nil {
		return nil, err
	}
	if !next.Nodes[next.Tree.Root()].Active {
		return nil, fmt.Errorf("adapt: re-solved schedule's root is inactive: %w", bwcerr.ErrInfeasible)
	}
	return next, nil
}

// nextBoundary returns the first root period boundary of the active
// schedule strictly after the detection instant; the boundary grid is
// anchored where the schedule activated.
func nextBoundary(active *sched.Schedule, segStart, detectedAt rat.R) (rat.R, error) {
	tw := active.Nodes[active.Tree.Root()].TW
	if !tw.IsPos() {
		return rat.Zero, fmt.Errorf("adapt: active schedule has no root period: %w", bwcerr.ErrInfeasible)
	}
	k := detectedAt.Sub(segStart).Div(tw).Floor().Add(rat.One)
	return segStart.Add(k.Mul(tw)), nil
}

// pauseSchedule returns old with its root deactivated: every other node
// keeps its bunch order (in-flight and buffered tasks still route and
// compute), but the root releases nothing while the platform drains.
func pauseSchedule(old *sched.Schedule) *sched.Schedule {
	pause := old.Clone()
	pause.Nodes[old.Tree.Root()].Active = false
	return pause
}

// drainBound bounds how long the root's send port needs to work off the
// backlog a stale regime left behind: the stale schedule demanded
// Σ η_i·c_new(i) units of port time per released unit under the faulted
// link weights, so a stale window of duration `stale` queues at most
// (inflation − 1)·stale units of port work. An overestimate merely
// leaves the port idle for a moment; an underestimate would start the
// new regime behind a backlog a saturated port can never clear.
func drainBound(old *sched.Schedule, phys *tree.Tree, stale rat.R) rat.R {
	if !stale.IsPos() {
		return rat.Zero
	}
	root := old.Tree.Root()
	rs := &old.Nodes[root]
	inflate := rat.Zero
	for i, c := range old.Tree.Children(root) {
		if i < len(rs.Sends) && rs.Sends[i].IsPos() {
			inflate = inflate.Add(rs.Sends[i].Mul(phys.CommTime(c)))
		}
	}
	if inflate.LessEq(rat.One) {
		return rat.Zero
	}
	return stale.Mul(inflate.Sub(rat.One))
}
