package sim

import (
	"fmt"

	"bwc/internal/des"
	"bwc/internal/engine"
	"bwc/internal/obs"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/trace"
	"bwc/internal/tree"
)

// The paper's Section 5 sketches dynamic adaptation — the root re-runs
// BW-First when it observes a throughput drop — and leaves "measuring the
// overhead incurred by the global synchronization phase" as future work.
// SimulateDynamic makes that measurable: the physical platform can change
// mid-run (a link degrades), and the schedules can change at a *different*
// (later) moment, modeling the detection-and-renegotiation lag. Between
// the two instants every node still runs its stale schedule against the
// new physics, which is exactly the regime whose cost the paper asks
// about.

// Phase activates a schedule at a point in virtual time. The first phase
// must start at 0. Activating a phase resets every node's pattern cursor;
// buffered tasks survive and are re-routed by the new pattern.
type Phase struct {
	At       rat.R
	Schedule *sched.Schedule
	// Changed, when non-nil, activates the phase through the engine's
	// delta seam (Core.InstallDelta): only the listed nodes get their
	// pattern cursor reset, every other node keeps its Ψ-bunch position.
	// Pass engine.ChangedNodes(prev, next) — the adaptation loop's
	// delta swap. nil keeps the historical full-reset semantics.
	Changed []tree.NodeID
}

// PhysicsChange swaps the physical platform (weights only; same topology)
// at a point in virtual time. Transfers already in flight complete under
// the conditions they started with.
type PhysicsChange struct {
	At   rat.R
	Tree *tree.Tree
}

// DynOptions configures a dynamic run.
type DynOptions struct {
	// Phases lists the schedule regimes in increasing At order; the first
	// must have At = 0.
	Phases []Phase
	// Physics lists platform changes in increasing At order (may be
	// empty).
	Physics []PhysicsChange
	// Stop is when the root stops releasing tasks.
	Stop rat.R
	// MaxEvents bounds the engine (default 20 million).
	MaxEvents uint64
	// SkipIntervals suppresses Gantt interval recording in an unobserved
	// run (see Options.SkipIntervals).
	SkipIntervals bool
	// Obs, when enabled, instruments the run exactly like Options.Obs:
	// spans per interval and DES batch, per-node buffer gauges, task and
	// event counters. nil is the disabled fast path.
	Obs *obs.Scope
}

// DynRun is the result of a dynamic simulation.
type DynRun struct {
	Trace *trace.Trace
	// Generated and Completed count tasks over the whole run; Dropped
	// counts stragglers that no node could handle after a schedule switch
	// (Generated = Completed + Dropped after drain).
	Generated int
	Completed int
	Dropped   int
	// WindDown is the drain time after Stop.
	WindDown rat.R
	// MaxHeld is the peak buffered-task count over all nodes.
	MaxHeld int
	// Obs is the scope the run was observed with (nil when unobserved).
	Obs *obs.Scope
}

// SimulateDynamic runs a multi-phase schedule over a platform whose
// physics may change mid-run.
func SimulateDynamic(opt DynOptions) (*DynRun, error) {
	if len(opt.Phases) == 0 {
		return nil, fmt.Errorf("sim: no phases")
	}
	if !opt.Phases[0].At.IsZero() {
		return nil, fmt.Errorf("sim: first phase must start at 0 (got %s)", opt.Phases[0].At)
	}
	if !opt.Stop.IsPos() {
		return nil, fmt.Errorf("sim: Stop must be positive")
	}
	if opt.MaxEvents == 0 {
		opt.MaxEvents = 20_000_000
	}
	for i, p := range opt.Phases {
		if p.Schedule == nil {
			return nil, fmt.Errorf("sim: phase %d has no schedule", i)
		}
	}
	base := opt.Phases[0].Schedule.Tree
	for i, p := range opt.Phases {
		if err := engine.SameShape(base, p.Schedule.Tree); err != nil {
			return nil, fmt.Errorf("sim: phase %d: %v", i, err)
		}
		if i > 0 && !opt.Phases[i-1].At.Less(p.At) {
			return nil, fmt.Errorf("sim: phase times not increasing")
		}
		for j := range p.Schedule.Nodes {
			ns := &p.Schedule.Nodes[j]
			if ns.Active && ns.Pattern == nil {
				return nil, fmt.Errorf("sim: phase %d: node %s pattern too large", i, base.Name(ns.Node))
			}
		}
	}
	for i, pc := range opt.Physics {
		if err := engine.SameShape(base, pc.Tree); err != nil {
			return nil, fmt.Errorf("sim: physics change %d: %v", i, err)
		}
		if i > 0 && !opt.Physics[i-1].At.Less(pc.At) {
			return nil, fmt.Errorf("sim: physics times not increasing")
		}
	}

	sm := &simulator{
		eng:   &des.Engine{},
		t:     base,
		s:     opt.Phases[0].Schedule,
		tr:    &trace.Trace{Tree: base},
		opt:   Options{Stop: opt.Stop, MaxEvents: opt.MaxEvents, SkipIntervals: opt.SkipIntervals},
		stats: &Stats{StopAt: opt.Stop, TreePeriod: opt.Phases[0].Schedule.TreePeriod()},
	}
	if opt.Obs.Enabled() {
		sm.initObs(opt.Obs)
	}
	sm.eng.SetHandler(sm.fire)
	// BestEffort: a phase switch can strand in-flight tasks at nodes the
	// new schedule no longer uses; the engine re-routes or drops them.
	sm.core = engine.New(engine.Config{
		Schedule:   opt.Phases[0].Schedule,
		Clock:      sm.eng,
		Hooks:      sm,
		BestEffort: true,
	})

	// Physics swaps.
	for _, pc := range opt.Physics {
		if opt.Stop.Less(pc.At) {
			continue
		}
		t := pc.Tree
		sm.eng.At(pc.At, func() { sm.core.SetPhysics(t) })
	}
	// Phase activations (the first is already in place) and the root's
	// release chains, one per phase window.
	sm.phases = make([]phase, len(opt.Phases))
	for i, p := range opt.Phases {
		until := opt.Stop
		if i+1 < len(opt.Phases) && opt.Phases[i+1].At.Less(until) {
			until = opt.Phases[i+1].At
		}
		if !p.At.Less(until) {
			continue // phase entirely after Stop
		}
		s := p.Schedule
		if i > 0 {
			if changed := p.Changed; changed != nil {
				sm.eng.At(p.At, func() { sm.core.InstallDelta(s, changed) })
			} else {
				sm.eng.At(p.At, func() { sm.core.Install(s) })
			}
		}
		if rs := &s.Nodes[s.Tree.Root()]; rs.Active && len(rs.Pattern) > 0 {
			sm.phases[i] = phase{pacer: engine.NewPacer(s, false), start: p.At, until: until}
			sm.genPhase(i, 0)
		}
	}
	if sm.sc != nil {
		if err := sm.drainObserved(opt.MaxEvents); err != nil {
			return nil, err
		}
	} else if err := sm.eng.Drain(opt.MaxEvents); err != nil {
		return nil, err
	}
	sm.tr.End = sm.eng.Now()
	sm.exportIntervalSpans()

	run := &DynRun{
		Trace:     sm.tr,
		Generated: sm.stats.Generated,
		Completed: sm.tr.TotalCompleted(),
		Dropped:   int(sm.core.Dropped()),
		Obs:       sm.sc,
	}
	if last, ok := sm.tr.LastCompletion(); ok && opt.Stop.Less(last) {
		run.WindDown = last.Sub(opt.Stop)
	}
	for _, h := range sm.tr.MaxBufferHeld() {
		if h > run.MaxHeld {
			run.MaxHeld = h
		}
	}
	return run, nil
}

// genPhase releases the root's period-p tasks of phase i's window
// [start, until) using the phase schedule's pacing, anchored at the
// phase start, then chains the next period.
func (sm *simulator) genPhase(i int, p int64) {
	ph := &sm.phases[i]
	base := ph.start.Add(ph.pacer.PeriodStart(p))
	if !base.Less(ph.until) {
		return
	}
	for j := 0; j < ph.pacer.Len(); j++ {
		at := ph.start.Add(ph.pacer.At(p, j))
		if !at.Less(ph.until) {
			continue
		}
		sm.eng.Post(at, des.Event{Kind: release, Node: int32(i), Arg: int64(j)})
	}
	next := base.Add(ph.pacer.TW())
	if next.Less(ph.until) {
		sm.eng.Post(next, des.Event{Kind: nextPhasePeriod, Node: int32(i), Task: p + 1})
	}
}
