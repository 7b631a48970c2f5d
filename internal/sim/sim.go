// Package sim executes a reconstructed schedule (internal/sched) on a
// simulated platform under the paper's single-port, full-overlap model,
// using exact rational virtual time (internal/des). It regenerates the
// Section 8 experiment: the Figure 5 Gantt diagram, the start-up phase with
// useful computation (Proposition 4), the steady-state regime, and the
// wind-down after the root stops delegating tasks.
//
// The package is the virtual-time backend of the shared scheduling engine
// (internal/engine): the per-node receive/compute/send automaton, the
// Ψ-bunch routing and the buffer accounting all live in the engine core,
// driven here by the DES clock (des.Engine satisfies engine.Clock
// directly, and the simulator's DES handler hands the core's events to
// Core.Fire). What remains in this package is the backend's own concern —
// the root's release chains over virtual time, posted as typed DES
// events too, the trace/span/metric translation of the engine's hook
// stream, and the Section 8 statistics.
//
//   - Every node except the root acts without any time-related information.
//     Incoming tasks are assigned in the node's interleaved bunch order
//     (bunches of size Ψ): a slot either queues the task for local
//     computation or queues it for one child.
//     The single send port serves the send queue FIFO; the single receive
//     port is naturally serialized because only the parent ever sends.
//   - The root is the only clocked node. Slot k of its bunch in period p
//     releases one task at the nominal time (p + pos_k)·T^w, which keeps
//     the root in steady state from t = 0 (Section 7: the start-up phase
//     allows useful computation everywhere). Each phase keeps one release
//     pending, whatever the root's Ψ.
//
// A task "held" at a node counts the tasks waiting in its compute or send
// queues (not the ones currently being computed or transmitted); this is
// the buffered-task metric of Section 6.3.
//
// The paper's Section 5 sketches dynamic adaptation — the root re-runs
// BW-First when it observes a throughput drop — and leaves "measuring the
// overhead incurred by the global synchronization phase" as future work.
// A run's timeline makes that measurable: the physical platform can
// change mid-run (a link degrades, Options.Physics), and the schedule can
// change at a different, later moment (Options.Phases), modeling the
// detection-and-renegotiation lag. Between the two instants every node
// still runs its stale schedule against the new physics, which is
// exactly the regime whose cost the paper asks about.
package sim

import (
	"fmt"
	"math/big"
	"strconv"

	"bwc/internal/des"
	"bwc/internal/engine"
	"bwc/internal/obs"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/trace"
	"bwc/internal/tree"
)

// Options configures a run.
type Options struct {
	// Stop is the time at which the root stops releasing tasks (the
	// "stopped delegating tasks" moment of Section 8). Exactly one of
	// Stop/Periods/Tasks must be set.
	Stop rat.R
	// Periods, when positive, sets Stop to Periods·T^w(root).
	Periods int
	// Tasks, when positive, releases exactly this many tasks (a finite
	// batch, the makespan-minimization setting of Section 2) and then
	// stops; the effective StopAt is the release time of the last task.
	// A run with a timeline (Phases or Physics) needs Stop or Periods.
	Tasks int
	// BurstRoot releases all of a root period's tasks at the period start
	// instead of pacing them at their slot positions — the naive "give
	// the nodes all their tasks at once" timing that the Section 6.3
	// strategy avoids. Used by the E7 ablation.
	BurstRoot bool
	// MaxEvents bounds the discrete-event engine (default
	// des.DefaultMaxEvents).
	MaxEvents uint64
	// SkipIntervals suppresses Gantt interval recording (completions and
	// buffer samples are always recorded); useful for large sweeps. It
	// applies to unobserved runs only: an observed run keeps its
	// intervals, the record its spans are exported from.
	SkipIntervals bool
	// Recorder, when non-nil, captures the backend-independent per-node
	// decision streams of the run (engine.Recorder); the differential
	// tests compare its fingerprint against the wall-clock runtime's.
	Recorder *engine.Recorder
	// Obs, when enabled, instruments the run: one span per DES event
	// batch (track "des"), one span per Send/Compute/Recv interval
	// (tracks "<node>/S|C|R"), per-node buffer-occupancy gauges
	// (bwc_node_buffer_tasks, bwc_node_buffer_max_tasks) and task/event
	// counters. nil (the default) is the disabled fast path.
	Obs *obs.Scope
	// Phases lists later schedule switches, each strictly after 0 and in
	// increasing At order; the schedule passed to Simulate runs from 0.
	Phases []Phase
	// Physics lists platform weight changes in increasing At order.
	Physics []PhysicsChange
}

// Phase activates a schedule at a point in virtual time. Buffered tasks
// survive the switch and are re-routed by the new bunch order; a task that
// reaches a node the new schedule no longer uses is computed there,
// forwarded over its fastest link, or dropped.
type Phase struct {
	At       rat.R
	Schedule *sched.Schedule
	// Changed lists the nodes whose bunch cursor the switch resets
	// (engine.Core.InstallDelta); every other node keeps its Ψ-bunch
	// position. Pass engine.ChangedNodes(prev, next) — the adaptation
	// loop's delta swap. nil resets every node.
	Changed []tree.NodeID
}

// PhysicsChange swaps the physical platform (weights only; same topology)
// at a point in virtual time. Transfers already in flight complete under
// the conditions they started with.
type PhysicsChange struct {
	At   rat.R
	Tree *tree.Tree
}

// Stats summarizes a run. Throughput, TreePeriod, PerPeriod and the
// steady-state fields describe one schedule on fixed physics; a run
// with a timeline (Phases or Physics) leaves them unset.
type Stats struct {
	// Throughput is the rate the schedule deploys (Schedule.Throughput).
	Throughput rat.R
	// TreePeriod is the synchronized steady-state period T of the whole
	// tree; PerPeriod = Throughput·T tasks complete per period in steady
	// state.
	TreePeriod *big.Int
	PerPeriod  *big.Int
	// StopAt is the effective stop time of the run.
	StopAt rat.R
	// Generated counts tasks released by the root; Completed counts tasks
	// executed; Dropped counts stragglers that no node could handle after
	// a schedule switch. After drain Generated = Completed + Dropped.
	Generated int
	Completed int
	Dropped   int
	// SteadyStart is the beginning of the first TreePeriod-aligned window
	// from which every later full window runs at the optimal rate;
	// SteadyOK is false when the run never settles before StopAt.
	SteadyStart rat.R
	SteadyOK    bool
	// StartupCompleted counts tasks that completed before SteadyStart:
	// the "useful computation during start-up" of Section 7.
	StartupCompleted int
	// WindDown is the time between StopAt and the last completion
	// (zero when everything finished before the stop).
	WindDown rat.R
	// MaxHeld is the peak buffered-task count over all nodes.
	MaxHeld int
	// Makespan is the completion time of the last task: the makespan of
	// the batch in Tasks mode (zero when nothing completed).
	Makespan rat.R
	// ResultsReturned counts task results that reached the root; equal to
	// Completed after drain on result-return platforms, zero otherwise.
	ResultsReturned int
}

// Run is the result of simulating a schedule.
type Run struct {
	// Schedule is the schedule the run starts with.
	Schedule *sched.Schedule
	Trace    *trace.Trace
	Stats    Stats
	// Obs is the scope the run was observed with (nil when unobserved);
	// it carries the run's metrics, and its spans: a view of Trace built
	// when first read.
	Obs *obs.Scope
}

// simulator is the virtual-time backend: it owns the DES clock and the
// engine core, translates the engine's hook stream into the trace and
// the observability scope, and paces the root's releases.
type simulator struct {
	eng    *des.Engine
	core   *engine.Core
	phases []phase
	s      *sched.Schedule
	tr     *trace.Trace
	opt    Options
	stats  *Stats

	// sc is the (possibly nil) observability scope. When set, the fields
	// below hold its pre-registered instruments. Hot paths guard on
	// sc == nil once and otherwise call nil-safe no-ops.
	sc        *obs.Scope
	genCtr    *obs.Counter
	doneCtr   *obs.Counter
	retCtr    *obs.Counter
	evCtr     *obs.Counter
	batchHist *obs.Histogram
	bufG      []*obs.Gauge
	bufMaxG   []*obs.Gauge
	doneNode  []*obs.Counter
}

// initObs registers the simulation's instruments on sc. Gauge families
// are labeled by node name so the Prometheus export reads like the
// paper's per-node buffer table (Section 6.3). An observed run always
// records its intervals: they are the record its spans are exported
// from.
func (sm *simulator) initObs(sc *obs.Scope) {
	sm.sc = sc
	sm.opt.SkipIntervals = false
	reg := sc.Registry()
	sm.genCtr = reg.Counter("bwc_sim_tasks_generated_total",
		"tasks released by the root")
	sm.doneCtr = reg.Counter("bwc_sim_tasks_completed_total",
		"tasks executed across the platform")
	sm.retCtr = reg.Counter("bwc_sim_results_returned_total",
		"task results that reached the root")
	sm.evCtr = reg.Counter("bwc_sim_events_total",
		"discrete events fired by the simulation engine")
	sm.batchHist = reg.Histogram("bwc_sim_batch_events",
		"events fired per same-instant DES batch",
		[]float64{1, 2, 4, 8, 16, 32, 64})
	n := sm.s.Tree.Len()
	sm.bufG = make([]*obs.Gauge, n)
	sm.bufMaxG = make([]*obs.Gauge, n)
	sm.doneNode = make([]*obs.Counter, n)
	for i := 0; i < n; i++ {
		name := sm.s.Tree.Name(tree.NodeID(i))
		sm.bufG[i] = reg.GaugeLabeled("bwc_node_buffer_tasks",
			"tasks buffered at the node (compute + send queues)", "node", name)
		sm.bufMaxG[i] = reg.GaugeLabeled("bwc_node_buffer_max_tasks",
			"peak buffered-task count at the node", "node", name)
		sm.doneNode[i] = reg.CounterLabeled("bwc_node_tasks_completed_total",
			"tasks executed by the node", "node", name)
	}
}

// phase is one release window of the root: its pacer, anchored at start,
// releases until until (in Tasks mode, until the budget is posted,
// counting in posted). Phase 0 is the schedule the run starts with,
// phase i > 0 is Options.Phases[i-1]; a phase whose root is inactive has
// no pacer and releases nothing.
type phase struct {
	pacer        engine.Pacer
	start, until rat.R
	posted       int64
}

// The simulator's own DES event kinds, numbered after the engine core's.
const (
	// release: the root releases one task of phase Node to destination
	// Arg.
	release = engine.NumKinds + iota
	// nextPeriod: phase Node's release chain reaches its next period.
	nextPeriod
	// install: phase Node's schedule takes over.
	install
	// physics: the platform weights become Options.Physics[Node].
	physics
)

// fire is the DES handler: the simulator's own events, and the engine
// core's transitions.
func (sm *simulator) fire(ev des.Event) {
	switch ev.Kind {
	case release:
		sm.stats.Generated++
		sm.genCtr.Inc()
		sm.core.Release(sched.Dest(ev.Arg), engine.Task{ID: sm.stats.Generated - 1})
		sm.postRelease(int(ev.Node), true)
	case nextPeriod:
		sm.genPhase(int(ev.Node))
	case install:
		p := &sm.opt.Phases[ev.Node-1]
		changed := p.Changed
		if changed == nil {
			changed = make([]tree.NodeID, sm.s.Tree.Len())
			for i := range changed {
				changed[i] = tree.NodeID(i)
			}
		}
		sm.core.InstallDelta(p.Schedule, changed)
	case physics:
		sm.core.SetPhysics(sm.opt.Physics[ev.Node].Tree)
	default:
		sm.core.Fire(ev)
	}
}

// The engine.Hooks implementation: every hook fires inside a DES event,
// so eng.Now() is the exact rational instant of the transition.

func (sm *simulator) ComputeStarted(n tree.NodeID, tk engine.Task, w rat.R) {
	start := sm.eng.Now()
	end := start.Add(w)
	if !sm.opt.SkipIntervals {
		sm.tr.AddInterval(trace.Interval{Node: n, Kind: trace.Compute, Start: start, End: end, Peer: tree.None})
	}
}

func (sm *simulator) ComputeFinished(n tree.NodeID, tk engine.Task) {
	sm.tr.AddCompletion(n, sm.eng.Now())
	sm.doneCtr.Inc()
	if sm.doneNode != nil {
		sm.doneNode[n].Inc()
	}
}

func (sm *simulator) SendStarted(n, child tree.NodeID, tk engine.Task, c rat.R) {
	start := sm.eng.Now()
	end := start.Add(c)
	if !sm.opt.SkipIntervals {
		sm.tr.AddInterval(trace.Interval{Node: n, Kind: trace.Send, Start: start, End: end, Peer: child})
		sm.tr.AddInterval(trace.Interval{Node: child, Kind: trace.Recv, Start: start, End: end, Peer: n})
	}
}

func (sm *simulator) SendFinished(n, child tree.NodeID, tk engine.Task) {}

func (sm *simulator) BufferChanged(n tree.NodeID, held int) {
	sm.tr.AddBufferSample(n, sm.eng.Now(), held)
	if sm.sc != nil {
		// Only the live occupancy is published per event (one atomic
		// store); the peak gauges are set once after the drain from the
		// trace's watermarks, saving a CAS loop per buffer transition.
		sm.bufG[n].Set(int64(held))
	}
}

func (sm *simulator) TaskDropped(n tree.NodeID, tk engine.Task) {}

// The engine.ResultHooks implementation: a result transfer occupies the
// sender's send port and the parent's receive port, so it is recorded
// with the same Send/Recv interval kinds as a task transfer — the trace
// validator's single-port overlap checks then cover the upward flow for
// free. Direction disambiguates: a Send interval whose Peer is the
// node's parent is a result.

func (sm *simulator) ResultSendStarted(n, parent tree.NodeID, tk engine.Task, d rat.R) {
	start := sm.eng.Now()
	end := start.Add(d)
	if !sm.opt.SkipIntervals {
		sm.tr.AddInterval(trace.Interval{Node: n, Kind: trace.Send, Start: start, End: end, Peer: parent})
		sm.tr.AddInterval(trace.Interval{Node: parent, Kind: trace.Recv, Start: start, End: end, Peer: n})
	}
}

func (sm *simulator) ResultSendFinished(n, parent tree.NodeID, tk engine.Task) {}

func (sm *simulator) ResultHome(tk engine.Task) {
	sm.retCtr.Inc()
}

// Simulate runs schedule s, and the timeline of opt.Phases and
// opt.Physics, until the root stops and all in-flight work drains, then
// post-processes the trace into Stats.
func Simulate(s *sched.Schedule, opt Options) (*Run, error) {
	if err := opt.validate(s); err != nil {
		return nil, err
	}
	st := &Stats{StopAt: opt.Stop}
	if len(opt.Phases)+len(opt.Physics) == 0 {
		st.Throughput, st.TreePeriod = s.Throughput(), s.TreePeriod()
		perPeriod := st.Throughput.Mul(s.Periods().Tree())
		if !perPeriod.IsInt() {
			return nil, fmt.Errorf("sim: throughput·period = %s not integer", perPeriod)
		}
		st.PerPeriod = perPeriod.Num()
	}

	sm := &simulator{
		eng:   &des.Engine{},
		s:     s,
		tr:    &trace.Trace{Tree: s.Tree},
		opt:   opt,
		stats: st,
	}
	if opt.Obs.Enabled() {
		sm.initObs(opt.Obs)
	}
	sm.eng.SetHandler(sm.fire)
	// BestEffort: a phase switch can strand in-flight tasks at nodes the
	// new schedule no longer uses; the engine re-routes or drops them.
	sm.core = engine.New(engine.Config{
		Schedule:   s,
		Clock:      sm.eng,
		Hooks:      sm,
		Recorder:   opt.Recorder,
		BestEffort: len(opt.Phases) > 0,
	})
	sm.start()
	if sm.sc != nil {
		if err := sm.drainObserved(opt.MaxEvents); err != nil {
			return nil, err
		}
	} else if err := sm.eng.Drain(opt.MaxEvents); err != nil {
		return nil, err
	}
	sm.tr.End = sm.eng.Now()
	sm.finishStats()
	sm.exportIntervalSpans()
	if sm.sc != nil {
		for id, peak := range sm.tr.MaxBufferHeld() {
			sm.bufMaxG[id].Set(int64(peak))
		}
	}
	return &Run{Schedule: s, Trace: sm.tr, Stats: *st, Obs: sm.sc}, nil
}

// validate checks the options of a run that starts with schedule s, and
// fills in the derived ones: Stop from Periods, and the MaxEvents
// default.
func (opt *Options) validate(s *sched.Schedule) error {
	t := s.Tree
	if t.Len() == 0 {
		return fmt.Errorf("sim: empty platform")
	}
	set := 0
	for _, on := range []bool{opt.Periods > 0, opt.Stop.IsPos(), opt.Tasks > 0} {
		if on {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("sim: set exactly one of Stop, Periods and Tasks")
	}
	root := &s.Nodes[t.Root()]
	if opt.Periods > 0 {
		opt.Stop = root.TW.Mul(rat.FromInt(int64(opt.Periods)))
	}
	if opt.Stop.IsNeg() {
		return fmt.Errorf("sim: Stop must be positive")
	}
	if opt.MaxEvents == 0 {
		opt.MaxEvents = des.DefaultMaxEvents
	}
	timeline := len(opt.Phases)+len(opt.Physics) > 0
	if timeline && opt.Tasks > 0 {
		return fmt.Errorf("sim: a run with Phases or Physics needs Stop or Periods, not Tasks")
	}
	prev := rat.Zero
	for i, p := range opt.Phases {
		if p.Schedule == nil {
			return fmt.Errorf("sim: phase %d has no schedule", i)
		}
		if err := engine.SameShape(t, p.Schedule.Tree); err != nil {
			return fmt.Errorf("sim: phase %d: %v", i, err)
		}
		if !prev.Less(p.At) {
			return fmt.Errorf("sim: phase times not increasing")
		}
		prev = p.At
		for _, id := range p.Changed {
			if id < 0 || int(id) >= t.Len() {
				return fmt.Errorf("sim: phase %d: changed node %d is not on the %d-node platform", i, id, t.Len())
			}
		}
	}
	for i, pc := range opt.Physics {
		if err := engine.SameShape(t, pc.Tree); err != nil {
			return fmt.Errorf("sim: physics change %d: %v", i, err)
		}
		if pc.At.IsNeg() || i > 0 && !opt.Physics[i-1].At.Less(pc.At) {
			return fmt.Errorf("sim: physics times not increasing from 0")
		}
	}
	if !timeline && !root.Active {
		return fmt.Errorf("sim: root is inactive; nothing to simulate")
	}
	if opt.Tasks > 0 && !s.Throughput().IsPos() {
		// A finite batch needs a positive release rate.
		return fmt.Errorf("sim: platform has zero throughput; cannot release a batch")
	}
	return nil
}

// start posts the run's timeline in a fixed order, so every run
// replays event for event: the physics swaps up to Stop, then each
// phase's install followed by its release chain. Phase 0, the schedule
// the run starts with, is already installed.
func (sm *simulator) start() {
	opt := &sm.opt
	timed := opt.Tasks == 0
	// Each active node has at most two events pending (a computation
	// and a transfer), each phase three (release, period start, install).
	pending := 3*(1+len(opt.Phases)) + len(opt.Physics)
	for i := range sm.s.Nodes {
		if sm.s.Nodes[i].Active {
			pending += 2
		}
	}
	sm.eng.Reserve(pending)
	for k, pc := range opt.Physics {
		if !opt.Stop.Less(pc.At) {
			sm.eng.Post(pc.At, des.Event{Kind: physics, Node: int32(k)})
		}
	}
	sm.phases = make([]phase, 1+len(opt.Phases))
	for i := range sm.phases {
		s, at := sm.s, rat.Zero
		if i > 0 {
			s, at = opt.Phases[i-1].Schedule, opt.Phases[i-1].At
		}
		until := opt.Stop
		if i < len(opt.Phases) && opt.Phases[i].At.Less(until) {
			until = opt.Phases[i].At
		}
		if timed && !at.Less(until) {
			continue // the phase starts after Stop
		}
		if i > 0 {
			sm.eng.Post(at, des.Event{Kind: install, Node: int32(i)})
		}
		if rs := &s.Nodes[s.Tree.Root()]; rs.Active && rs.Bunch.Sign() > 0 {
			sm.phases[i] = phase{pacer: engine.NewPacer(s, opt.BurstRoot), start: at, until: until}
			sm.genPhase(i)
		}
	}
}

// exportIntervalSpans registers the deferred producer that exports the
// run's record as spans: one per interval, on tracks "<node>/C|S|R".
// The trace is the run's one record and its spans are a view of it,
// built with their names only when something reads the scope's spans
// (an exporter, Spans, analyze.FromScope); conformance analysis reads
// the record in place (analyze.FromRun) and builds none.
func (sm *simulator) exportIntervalSpans() {
	if sm.sc == nil {
		return
	}
	t, ivs := sm.s.Tree, sm.tr.Intervals
	sm.sc.AddDeferredSpans(func(emit func(obs.Span)) {
		// Indexed by 3·node + kind: the node's track, and the name of a
		// transfer whose peer it is ("send <node>", "recv <node>").
		track, peer := make([]string, 3*t.Len()), make([]string, 3*t.Len())
		for i := range t.Len() {
			name := t.Name(tree.NodeID(i))
			for k, verb := range [...]string{trace.Send: "send ", trace.Recv: "recv "} {
				track[3*i+k] = name + "/" + trace.Kind(k).String()
				peer[3*i+k] = verb + name
			}
		}
		for _, iv := range ivs {
			sp := obs.Span{Name: "compute", Track: track[3*int(iv.Node)+int(iv.Kind)], Start: iv.Start, End: iv.End}
			if iv.Kind != trace.Compute {
				sp.Name = peer[3*int(iv.Peer)+int(iv.Kind)]
			}
			emit(sp)
		}
	})
}

// batchRec is the compact per-DES-batch record the observed drain loop
// accumulates: converting it to a span (strings, attrs) happens lazily in
// a deferred producer, so the hot loop appends 7 words per batch and
// touches no locks, no atomics and no format machinery.
type batchRec struct {
	start, end rat.R
	n          uint64
}

// drainObserved drains the engine through des.DrainBatched, recording one
// compact record per same-instant batch. A batch span stretches to the
// next pending instant so it has visible width in a trace viewer; the
// final batch is zero-width. Metrics are merged in bulk after the drain:
// the event counter gets one atomic add, and the batch-size histogram one
// Merge of a locally aggregated bucket array. Only the observed path pays
// for this loop — the disabled path stays on eng.Drain untouched.
func (sm *simulator) drainObserved(maxEvents uint64) error {
	recs := make([]batchRec, 0, 512)
	err := sm.eng.DrainBatched(maxEvents, func(at, end rat.R, n uint64, more bool) {
		recs = append(recs, batchRec{start: at, end: end, n: n})
	})
	var events int64
	var sum float64
	var buckets [8]int64 // batchHist layout: bounds {1,2,4,8,16,32,64} + Inf
	for _, r := range recs {
		events += int64(r.n)
		sum += float64(r.n)
		buckets[sm.batchHist.BucketIndex(float64(r.n))]++
	}
	sm.evCtr.Add(events)
	sm.batchHist.Merge(buckets[:], sum)
	sm.sc.AddDeferredSpans(func(emit func(obs.Span)) {
		attrs := make([]obs.Attr, len(recs))
		for i, r := range recs {
			attrs[i] = obs.A("events", smallInt(r.n))
			emit(obs.Span{
				Name:  "batch",
				Track: "des",
				Start: r.start,
				End:   r.end,
				Attrs: attrs[i : i+1 : i+1],
			})
		}
	})
	return err
}

// smallIntNames caches the decimal strings for the common small DES batch
// sizes so the observed drain loop allocates nothing for the span attr.
var smallIntNames = func() [64]string {
	var a [64]string
	for i := range a {
		a[i] = strconv.Itoa(i)
	}
	return a
}()

func smallInt(v uint64) string {
	if v < uint64(len(smallIntNames)) {
		return smallIntNames[v]
	}
	return strconv.FormatUint(v, 10)
}

// genPhase starts the next period of phase i: it posts the period's
// first release, and the next period's start if the phase reaches it.
// Each release, when it fires, chains the next of its period
// (des.Engine.Chain), so a phase keeps one release pending whatever its
// Ψ, and every event fires as if the whole period were posted at once.
func (sm *simulator) genPhase(i int) {
	ph := &sm.phases[i]
	budget := int64(sm.opt.Tasks)
	timed := budget == 0
	base := ph.start.Add(ph.pacer.PeriodStart())
	if timed && !base.Less(ph.until) {
		return
	}
	// The whole period is posted unless the window or the budget ends
	// inside it, and then there is no next period either.
	more := !timed && ph.pacer.Len() < budget-ph.posted
	sm.postRelease(i, false)
	next := base.Add(ph.pacer.TW())
	if timed && !next.Less(ph.until) || !timed && !more {
		return
	}
	sm.eng.Post(next, des.Event{Kind: nextPeriod, Node: int32(i)})
}

// postRelease schedules the release of phase i's next slot, chained to
// the one being fired (unless that ended its period) or posted afresh,
// unless the slot falls past the phase's window or budget. A release in
// Tasks mode moves the batch's effective stop to its time.
func (sm *simulator) postRelease(i int, chain bool) {
	ph := &sm.phases[i]
	if chain && ph.pacer.Index() == 0 {
		return
	}
	dest, at := ph.pacer.Next()
	at = ph.start.Add(at)
	budget := int64(sm.opt.Tasks)
	if budget == 0 && !at.Less(ph.until) || budget > 0 && ph.posted == budget {
		return
	}
	if budget > 0 {
		ph.posted++
		sm.stats.StopAt = at
	}
	if ev := (des.Event{Kind: release, Node: int32(i), Arg: int64(dest)}); chain {
		sm.eng.Chain(at, ev)
	} else {
		sm.eng.Post(at, ev)
	}
}

func (sm *simulator) finishStats() {
	st := sm.stats
	st.Completed = sm.tr.TotalCompleted()
	st.Dropped = int(sm.core.Dropped())
	st.ResultsReturned = int(sm.core.ResultsHome())
	if st.PerPeriod != nil && st.PerPeriod.IsInt64() {
		period := sm.s.Periods().Tree()
		horizon := periodFloor(st.StopAt, period)
		start, ok := sm.tr.SteadyStart(period, int(st.PerPeriod.Int64()), horizon)
		st.SteadyStart, st.SteadyOK = start, ok
		if ok {
			st.StartupCompleted = sm.tr.CompletedIn(rat.Zero, start)
		}
	}
	if last, ok := sm.tr.LastCompletion(); ok {
		st.Makespan = last
		if st.StopAt.Less(last) {
			st.WindDown = last.Sub(st.StopAt)
		}
	}
	for _, h := range sm.tr.MaxBufferHeld() {
		if h > st.MaxHeld {
			st.MaxHeld = h
		}
	}
}

// periodFloor returns the largest multiple of period that is <= t.
func periodFloor(t, period rat.R) rat.R {
	return period.Mul(t.Div(period).Floor())
}

// CheckConservation verifies that every released task completed and that
// the trace is physically feasible. Call after Simulate for end-to-end
// validation (tests and the verify CLI do).
func (r *Run) CheckConservation() error {
	if r.Stats.Generated != r.Stats.Completed {
		return fmt.Errorf("sim: %d tasks generated but %d completed", r.Stats.Generated, r.Stats.Completed)
	}
	if r.Schedule.ResultReturn && r.Stats.ResultsReturned != r.Stats.Completed {
		return fmt.Errorf("sim: %d tasks completed but %d results returned", r.Stats.Completed, r.Stats.ResultsReturned)
	}
	return r.Trace.Validate()
}
