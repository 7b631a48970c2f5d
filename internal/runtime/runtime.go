// Package runtime executes a reconstructed schedule as a real concurrent
// Master-Worker application in wall-clock time. It is the "practical and
// scalable implementation" the paper aims for, in library form — the
// discrete-event simulator (internal/sim) predicts a run, this package
// performs one.
//
// The package is the real-time backend of the shared scheduling engine
// (internal/engine): the per-node receive/compute/send automaton, the
// Ψ-bunch routing, the single-port full-overlap discipline and the
// buffer accounting all live in the engine core, driven here by a clock
// that turns every virtual duration into a scaled timer (w·Scale per
// computation, c·Scale per transfer). Transfers and computations overlap
// freely across nodes — the engine's lock covers only state transitions,
// never the timed waits — so the run is genuinely concurrent even though
// the Section-6 semantics are shared with the simulator.
//
// Only the master is clocked against the schedule: it releases task k of
// period p at wall time (p + pos_k)·T^w·Scale, keeping the platform in
// steady state from the start (Section 7).
//
// Execute runs one batch to completion on a fixed platform and schedule.
// Adapting to a drifting platform (Section 5) is the job of the
// simulated adaptation loop in internal/adapt; this package is the
// wall-clock reference the sim ≡ runtime differential test compares the
// simulator against.
//
// Because routing is deterministic (bunch cursors), the per-node
// execution counts of a batch are exactly reproducible even though wall
// -clock interleavings are not.
package runtime

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"bwc/internal/bwcerr"
	"bwc/internal/engine"
	"bwc/internal/obs"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/tree"
)

// Config describes an execution.
type Config struct {
	// Schedule is the deployed event-driven schedule.
	Schedule *sched.Schedule
	// Tasks is the batch size (> 0).
	Tasks int
	// Scale converts one virtual time unit to wall-clock duration. Keep
	// it small in tests (e.g. 50µs) and realistic in deployments.
	Scale time.Duration
	// Work, if non-nil, runs on the executing node for every task (after
	// the simulated computation time, before the node's CPU is freed for
	// the next task).
	Work func(node tree.NodeID, task int)
	// Recorder, when non-nil, captures the backend-independent per-node
	// decision streams of the run (engine.Recorder); the differential
	// tests compare its fingerprint against the simulator's.
	Recorder *engine.Recorder
	// Obs, when enabled, instruments the run: one wall-clock span per
	// link transfer (one track per edge, e.g. "P0→P1"), per-node
	// bwc_runtime_tasks_executed_total counters and per-node buffer
	// gauges (bwc_node_buffer_tasks, bwc_node_buffer_max_tasks). nil
	// disables.
	Obs *obs.Scope
}

// Report summarizes an execution.
type Report struct {
	// Executed[id] counts tasks computed by node id.
	Executed []int
	// Total is the number of tasks executed (== Config.Tasks on success).
	Total int
	// Elapsed is the wall-clock makespan of the batch.
	Elapsed time.Duration
	// MaxBuffered is the peak buffered-task count over all nodes (the
	// engine's watermark — the quantity Proposition 3's χ bounds).
	MaxBuffered int
	// ResultsReturned counts task results that reached the root; equal to
	// Total on result-return platforms, zero on forward-only ones.
	ResultsReturned int
}

// execution is the state of one running batch.
type execution struct {
	cfg  Config
	core *engine.Core

	executed []atomic.Int64
	nDone    atomic.Int64
	nHome    atomic.Int64
	hasRet   bool          // batch only finishes once every result is home
	doneCh   chan struct{} // closed when the batch finishes (see hasRet)

	start   time.Time
	elapsed time.Duration // makespan, written once before doneCh closes

	// Pre-registered instruments and track names (nil when unobserved)
	// so the hook path builds no strings and takes no registry locks.
	sc        *obs.Scope
	execCtr   []*obs.Counter
	retCtr    *obs.Counter
	bufG      []*obs.Gauge
	bufMaxG   []*obs.Gauge
	linkTrack []string     // "<parent>→<child>", indexed by child node
	sendSpan  []obs.SpanID // active transfer span, indexed by sender
}

// wallClock realizes engine durations as scaled timers that fire the
// event on a timer goroutine; the engine serializes its own state.
type wallClock struct{ e *execution }

func (c wallClock) After(d rat.R, ev engine.Event) {
	time.AfterFunc(c.e.scaleOf(d), func() { c.e.core.Fire(ev) })
}

// hooks adapts the engine's transition stream to the runtime's report
// counters, completion signal and observability.
type hooks struct{ e *execution }

func (h hooks) ComputeStarted(n tree.NodeID, tk engine.Task, w rat.R) {}

func (h hooks) ComputeFinished(n tree.NodeID, tk engine.Task) {
	e := h.e
	if e.cfg.Work != nil {
		e.cfg.Work(n, tk.ID)
	}
	e.executed[n].Add(1)
	if e.execCtr != nil {
		e.execCtr[n].Inc()
	}
	// On a result-return platform the batch only finishes when the last
	// result reaches the root (ResultHome closes doneCh); forward-only
	// runs finish on the last computation, exactly as before.
	if e.nDone.Add(1) == int64(e.cfg.Tasks) && !e.hasRet {
		e.elapsed = time.Since(e.start)
		close(e.doneCh)
	}
}

func (h hooks) SendStarted(n, child tree.NodeID, tk engine.Task, c rat.R) {
	e := h.e
	if e.linkTrack != nil {
		// The single send port guarantees at most one live transfer per
		// sender, so one slot per node holds the open span.
		e.sendSpan[n] = e.sc.StartSpan("task "+strconv.Itoa(tk.ID), e.linkTrack[child], 0)
	}
}

func (h hooks) SendFinished(n, child tree.NodeID, tk engine.Task) {
	if h.e.linkTrack != nil {
		h.e.sc.EndSpan(h.e.sendSpan[n])
	}
}

func (h hooks) BufferChanged(n tree.NodeID, held int) {
	e := h.e
	if e.bufG != nil {
		e.bufG[n].Set(int64(held))
		e.bufMaxG[n].SetMax(int64(held))
	}
}

func (h hooks) TaskDropped(n tree.NodeID, tk engine.Task) {}

// The engine.ResultHooks implementation: result transfers reuse the
// sender's span slot (the single send port guarantees at most one live
// transfer per node, task or result) on the same edge track, and the
// batch's completion signal moves to the last result reaching the root.

func (h hooks) ResultSendStarted(n, parent tree.NodeID, tk engine.Task, d rat.R) {
	e := h.e
	if e.linkTrack != nil {
		e.sendSpan[n] = e.sc.StartSpan("result "+strconv.Itoa(tk.ID), e.linkTrack[n], 0)
	}
}

func (h hooks) ResultSendFinished(n, parent tree.NodeID, tk engine.Task) {
	if h.e.linkTrack != nil {
		h.e.sc.EndSpan(h.e.sendSpan[n])
	}
}

func (h hooks) ResultHome(tk engine.Task) {
	e := h.e
	e.retCtr.Inc()
	if e.nHome.Add(1) == int64(e.cfg.Tasks) {
		e.elapsed = time.Since(e.start)
		close(e.doneCh)
	}
}

// Execute runs a batch of cfg.Tasks tasks to completion and reports the
// per-node execution counts and the wall-clock makespan.
func Execute(cfg Config) (*Report, error) {
	s := cfg.Schedule
	if s == nil || s.Tree.Len() == 0 {
		return nil, fmt.Errorf("runtime: no schedule")
	}
	if rs := &s.Nodes[s.Tree.Root()]; !rs.Active || rs.Bunch.Sign() == 0 {
		return nil, fmt.Errorf("runtime: root is inactive; nothing to execute: %w", bwcerr.ErrInfeasible)
	}
	if cfg.Tasks <= 0 {
		return nil, fmt.Errorf("runtime: Tasks must be positive")
	}
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("runtime: Scale must be positive")
	}
	t := s.Tree

	e := &execution{
		cfg:      cfg,
		executed: make([]atomic.Int64, t.Len()),
		hasRet:   s.ResultReturn || t.HasResultReturn(),
		doneCh:   make(chan struct{}),
	}

	// Instruments, pre-registered so the hook path only touches atomics.
	if cfg.Obs.Enabled() {
		e.sc = cfg.Obs
		reg := e.sc.Registry()
		n := t.Len()
		e.retCtr = reg.Counter("bwc_runtime_results_returned_total",
			"task results that reached the root during live runs")
		e.execCtr = make([]*obs.Counter, n)
		e.bufG = make([]*obs.Gauge, n)
		e.bufMaxG = make([]*obs.Gauge, n)
		e.linkTrack = make([]string, n)
		e.sendSpan = make([]obs.SpanID, n)
		for i := 0; i < n; i++ {
			id := tree.NodeID(i)
			name := t.Name(id)
			e.execCtr[i] = reg.CounterLabeled("bwc_runtime_tasks_executed_total",
				"tasks executed by the node during live runs", "node", name)
			e.bufG[i] = reg.GaugeLabeled("bwc_node_buffer_tasks",
				"tasks buffered at the node (compute + send queues)", "node", name)
			e.bufMaxG[i] = reg.GaugeLabeled("bwc_node_buffer_max_tasks",
				"peak buffered-task count at the node", "node", name)
			if p := t.Parent(id); p != tree.None {
				e.linkTrack[i] = t.Name(p) + "→" + name
			}
		}
	}

	e.core = engine.New(engine.Config{
		Schedule: s,
		Clock:    wallClock{e},
		Hooks:    hooks{e},
		Recorder: cfg.Recorder,
	})

	e.start = time.Now()
	e.runMaster()
	<-e.doneCh
	rep := &Report{
		Executed:        make([]int, len(e.executed)),
		Elapsed:         e.elapsed,
		MaxBuffered:     e.core.MaxWatermark(),
		ResultsReturned: int(e.core.ResultsHome()),
	}
	for i := range e.executed {
		rep.Executed[i] = int(e.executed[i].Load())
		rep.Total += rep.Executed[i]
	}
	if rep.Total != cfg.Tasks {
		return rep, fmt.Errorf("runtime: executed %d of %d tasks", rep.Total, cfg.Tasks)
	}
	return rep, nil
}

func (e *execution) scaleOf(v rat.R) time.Duration {
	return time.Duration(v.Float64() * float64(e.cfg.Scale))
}

// runMaster paces the batch release: task k of period p leaves the root
// at (p + pos_k)·T^w·Scale after the start.
func (e *execution) runMaster() {
	pacer := engine.NewPacer(e.cfg.Schedule, false)
	for released := 0; released < e.cfg.Tasks; released++ {
		dest, at := pacer.Next()
		if wait := e.scaleOf(at) - time.Since(e.start); wait > 0 {
			time.Sleep(wait)
		}
		e.core.Release(dest, engine.Task{ID: released})
	}
}
