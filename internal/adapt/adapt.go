package adapt

import (
	"fmt"
	"strings"

	"bwc/internal/bwcerr"
	"bwc/internal/bwfirst"
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
	// default (4). Negative means detect only: the first drift surfaces
	// as ErrScheduleStale (DetectOnly wraps this).
	MaxAdapts int
	// Sched configures re-solved schedule construction.
	Sched sched.Options
	// Obs, when enabled, receives the controller's adaptation events.
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

// detector builds the detector configured by o.
func (o Options) detector() *Detector {
	return &Detector{Threshold: o.Threshold, BufferSlack: bufferSlack, Consecutive: o.Consecutive}
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
	// Messages and Visited report the cost of the re-solve (the paper's
	// Prop. 2 economy: only the useful subtree is walked): two protocol
	// messages per transaction, and the nodes the re-solve visited.
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
	Run *sim.DynRun
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
}

// FinalSchedule returns the schedule active at the end of the run.
func (r *SimReport) FinalSchedule() *sched.Schedule {
	if n := len(r.Adaptations); n > 0 {
		return r.Adaptations[n-1].Schedule
	}
	return nil
}

// SimulateAdaptive runs the closed loop against the exact simulator:
// simulate under the fault timeline, scan the evidence for drift against
// the active schedule, re-solve on the measured (faulted) platform with
// the crashed nodes' subtrees excluded, and hot-swap the new schedule at
// the next root period boundary; repeat until no drift remains or
// MaxAdapts is exhausted. The controller is deterministic: re-simulating
// the grown phase list replays the identical prefix, so each iteration
// extends the previous timeline exactly.
//
// Detection-only mode (DetectOnly) returns ErrScheduleStale on the first
// drift. A run whose drift persists after MaxAdapts re-solves returns
// ErrAdaptTimeout, and a crashed root ErrInfeasible.
func SimulateAdaptive(s *sched.Schedule, opt Options) (*SimReport, error) {
	if s == nil || s.Tree == nil || s.Tree.Len() == 0 {
		return nil, fmt.Errorf("adapt: no schedule")
	}
	if !opt.Stop.IsPos() {
		return nil, fmt.Errorf("adapt: Stop must be positive")
	}
	opt = opt.withDefaults()
	base := s.Tree
	physics, err := Timeline(base, opt.Faults, rat.FromInt(crashFactor))
	if err != nil {
		return nil, err
	}

	rep := &SimReport{Stop: opt.Stop}
	phases := []sim.Phase{{At: rat.Zero, Schedule: s}}
	segStart := rat.Zero
	active := s
	// settle is the absolute time before which the active regime is not
	// yet owed its steady state (its Proposition 4 start-up bound past
	// the instant it began releasing).
	settle := s.MaxStartupBound()

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
		opt.Obs.Emit("drift",
			obs.A("at", drift.At.String()),
			obs.A("node", drift.Window.WorstNode),
			obs.A("ratio", fmt.Sprintf("%.3f", drift.Window.MinRatio)))
		if opt.MaxAdapts == 0 {
			return rep, staleDrift(drift.At, drift.Window.WorstNode, drift.Window.MinRatio)
		}
		if len(rep.Adaptations) >= opt.MaxAdapts {
			return rep, adaptExhausted(drift.At, len(rep.Adaptations))
		}

		measured := physicsAt(base, physics, drift.At)
		ad, err := resolve(measured, prunedSet(measured, CrashedBefore(opt.Faults, drift.At), nil), opt)
		if err != nil {
			return rep, err
		}
		swapAt, err := nextBoundary(active, segStart, drift.At, opt.Stop)
		if err != nil {
			return rep, err
		}
		// The stale regime kept releasing at its old rate onto the faulted
		// platform, piling transfers onto the root's send port. Drain, then
		// swap: pause the root at the boundary long enough for the backlog
		// to clear, then start the new schedule from a clean port.
		drain := drainBound(active, measured, swapAt.Sub(segStart))
		resumeAt := swapAt
		if drain.IsPos() {
			phases = append(phases, sim.Phase{At: swapAt, Schedule: pauseSchedule(active)})
			resumeAt = swapAt.Add(drain)
		}
		phases = append(phases, sim.Phase{At: resumeAt, Schedule: ad.Schedule})
		ad.Drift, ad.SwapAt, ad.ResumeAt = drift, swapAt, resumeAt
		rep.Adaptations = append(rep.Adaptations, ad)
		opt.Obs.Emit("swap",
			obs.A("at", swapAt.String()),
			obs.A("resume", resumeAt.String()),
			obs.A("throughput", ad.Throughput.String()),
			obs.A("messages", fmt.Sprint(ad.Messages)))
		settle = resumeAt.Add(ad.Schedule.MaxStartupBound())
		segStart = resumeAt
		active = ad.Schedule
	}

	if err := verifyAndReport(rep, phases, physics, opt, segStart, s); err != nil {
		return rep, err
	}
	return rep, nil
}

// verifyAndReport runs the verification pass shared by the adaptive and
// churn controllers: extend the horizon so the final regime has
// verifyPeriods full tree periods past its settle time, re-simulate the
// grown timeline, and split the evidence at the swap boundaries. The
// post window starts on the final schedule's tree-period grid (anchored
// at the last swap) so that per-node steady-state expectations are
// exact integers.
func verifyAndReport(rep *SimReport, phases []sim.Phase, physics []sim.PhysicsChange, opt Options, segStart rat.R, s *sched.Schedule) error {
	final := phases[len(phases)-1].Schedule
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
	run, err := simulateOnce(phases, physics, verifyStop)
	if err != nil {
		return err
	}
	rep.Run = run
	rep.Stop = verifyStop
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

// DetectOnly runs the detection half of the loop without ever adapting:
// it returns nil if the run conforms to s throughout, and an error
// wrapping bwcerr.ErrScheduleStale describing the first drift otherwise.
func DetectOnly(s *sched.Schedule, opt Options) error {
	opt.MaxAdapts = -1
	_, err := SimulateAdaptive(s, opt)
	return err
}

// simulateOnce runs the accumulated timeline under a fresh scope.
func simulateOnce(phases []sim.Phase, physics []sim.PhysicsChange, stop rat.R) (*sim.DynRun, error) {
	return sim.SimulateDynamic(sim.DynOptions{
		Phases:  phases,
		Physics: physics,
		Stop:    stop,
		Obs:     obs.New(),
	})
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

// resolve re-runs BW-First on the measured platform with the crashed
// nodes' subtrees excluded — Section 5's re-negotiation, in which a
// failed node is a link nobody can use — and builds the new schedule.
// The returned Adaptation holds the re-solve's outcome; the caller adds
// the drift and swap instants.
func resolve(measured *tree.Tree, crashed []tree.NodeID, opt Options) (Adaptation, error) {
	ad := Adaptation{Pruned: nodeNames(measured, crashed)}
	res, err := bwfirst.SolvePruned(measured, crashed)
	if err != nil {
		// SolvePruned refuses only a pruned root: a crashed root leaves
		// nothing to schedule.
		return Adaptation{}, fmt.Errorf("adapt: re-solve without %s: %v: %w", strings.Join(ad.Pruned, ","), err, bwcerr.ErrInfeasible)
	}
	ad.Throughput, ad.Visited = res.Throughput, res.VisitedCount
	// Two messages per transaction, the virtual parent's pair included.
	ad.Messages = 2 * (len(res.Transactions) + 1)
	opt.Obs.Emit("negotiate",
		obs.A("throughput", ad.Throughput.String()),
		obs.A("messages", fmt.Sprint(ad.Messages)),
		obs.A("visited", fmt.Sprint(ad.Visited)),
		obs.A("pruned", fmt.Sprint(len(crashed))))
	if ad.Schedule, err = buildResolved(res, opt.Sched); err != nil {
		return Adaptation{}, err
	}
	return ad, nil
}

// buildResolved builds the schedule of a re-solve for either controller
// and refuses one the root could not release tasks by.
func buildResolved(res *bwfirst.Result, opt sched.Options) (*sched.Schedule, error) {
	if !res.Throughput.IsPos() {
		return nil, fmt.Errorf("adapt: re-negotiated throughput is zero on the measured platform: %w", bwcerr.ErrInfeasible)
	}
	next, err := sched.Build(res, opt)
	if err != nil {
		return nil, err
	}
	if rs := &next.Nodes[next.Tree.Root()]; !rs.Active || rs.Pattern == nil {
		return nil, fmt.Errorf("adapt: re-solved schedule has no usable root pattern: %w", bwcerr.ErrInfeasible)
	}
	return next, nil
}

// nextBoundary returns the first root period boundary of the active
// schedule strictly after the detection instant; the boundary grid is
// anchored where the schedule activated.
func nextBoundary(active *sched.Schedule, segStart, detectedAt, stop rat.R) (rat.R, error) {
	tw := active.Nodes[active.Tree.Root()].TW
	if !tw.IsPos() {
		return rat.Zero, fmt.Errorf("adapt: active schedule has no root period: %w", bwcerr.ErrInfeasible)
	}
	k := detectedAt.Sub(segStart).Div(tw).Floor().Add(rat.One)
	at := segStart.Add(k.Mul(tw))
	if !at.Less(stop) {
		return rat.Zero, fmt.Errorf("adapt: drift detected at t=%s but the next period boundary %s falls outside the horizon %s: %w",
			detectedAt, at, stop, bwcerr.ErrAdaptTimeout)
	}
	return at, nil
}

// pauseSchedule returns old with its root deactivated: every other node
// keeps its pattern (in-flight and buffered tasks still route and
// compute), but the root releases nothing while the platform drains.
func pauseSchedule(old *sched.Schedule) *sched.Schedule {
	pause := old.Clone()
	rs := &pause.Nodes[old.Tree.Root()]
	rs.Active = false
	rs.Pattern = nil
	return pause
}

// drainBound bounds how long the root's send port needs to work off the
// backlog a stale regime left behind: the stale pattern demanded
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
