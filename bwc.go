// Package bwc is a Go implementation of bandwidth-centric steady-state
// scheduling of independent-task (Master-Worker) applications on
// heterogeneous tree platforms, reproducing
//
//	Cyril Banino, "A Distributed Procedure for Bandwidth-Centric
//	Scheduling of Independent-Task Applications", IPPS/IPDPS 2005.
//
// The package is a facade over the internal implementation packages; it is
// the API the examples, the CLI and downstream users program against.
//
// # Model
//
// A platform is a node-weighted, edge-weighted tree: node P_i takes w_i
// time units to compute one task (w = +inf models switches), and the edge
// from its parent takes c_i time units to transfer one task. Nodes follow
// the single-port, full-overlap model: simultaneous receive, compute, and
// send — but at most one incoming and one outgoing transfer at a time. All
// quantities are exact rationals.
//
// # Typical use
//
//	platform := bwc.NewBuilder().
//	    Root("master", bwc.Rat(9, 1)).
//	    Child("master", "w1", bwc.Rat(1, 2), bwc.Rat(8, 1)).
//	    MustBuild()
//
//	res := bwc.Solve(platform)              // optimal steady-state rate
//	s, _ := bwc.BuildSchedule(res)          // per-node event-driven schedules
//	run, _ := bwc.Simulate(s, bwc.WithPeriods(4))
//
// Every entry point shares one functional-options vocabulary (see
// Option): bwc.WithObserver instruments any call, bwc.WithStop /
// bwc.WithPeriods / bwc.WithTasks set horizons and batch sizes, and
// bwc.WithFaults drives the adaptive runtime (SimulateAdaptive /
// SimulateChurn).
//
// Solve runs the paper's BW-First transaction procedure; SolveDistributed
// runs the same procedure with one goroutine per node exchanging single
// numbers over channels. BottomUp and LPThroughput provide two independent
// oracles for the same optimum (Beaumont et al.'s reduction and an exact
// rational simplex on the steady-state LP).
package bwc

import (
	"io"
	"math/rand"

	"bwc/internal/bottomup"
	"bwc/internal/bwfirst"
	"bwc/internal/gantt"
	"bwc/internal/graph"
	"bwc/internal/graphlp"
	"bwc/internal/infinite"
	"bwc/internal/kreaseck"
	"bwc/internal/lp"
	"bwc/internal/makespan"
	"bwc/internal/obs"
	"bwc/internal/obs/analyze"
	"bwc/internal/paperexample"
	"bwc/internal/proto"
	"bwc/internal/rat"
	"bwc/internal/runtime"
	"bwc/internal/sched"
	"bwc/internal/sensitivity"
	"bwc/internal/sim"
	"bwc/internal/trace"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

// Core model types.
type (
	// Rational is an immutable exact rational number.
	Rational = rat.R
	// Tree is an immutable heterogeneous platform tree.
	Tree = tree.Tree
	// NodeID identifies a node within one Tree.
	NodeID = tree.NodeID
	// Builder constructs platform trees.
	Builder = tree.Builder
)

// Solver results and schedules.
type (
	// Result is the outcome of the BW-First procedure.
	Result = bwfirst.Result
	// Transaction is one proposal/acknowledgment exchange.
	Transaction = bwfirst.Transaction
	// DistributedResult is the outcome of the goroutine-per-node run.
	DistributedResult = proto.Result
	// BottomUpResult is the outcome of the baseline reduction.
	BottomUpResult = bottomup.Result
	// Schedule bundles the per-node event-driven schedules.
	Schedule = sched.Schedule
	// NodeSchedule is one node's compact schedule description.
	NodeSchedule = sched.NodeSchedule
	// ScheduleOptions configures schedule reconstruction.
	ScheduleOptions = sched.Options
)

// Simulation types.
type (
	// SimOptions configures a simulated run of a schedule.
	SimOptions = sim.Options
	// Run is a completed simulation with trace and statistics.
	Run = sim.Run
	// RunStats summarizes a simulation.
	RunStats = sim.Stats
	// Trace is the recorded activity of a run.
	Trace = trace.Trace
	// DemandOptions configures the demand-driven comparator protocol.
	DemandOptions = kreaseck.Options
	// DynPhase is one schedule switch of SimOptions.Phases.
	DynPhase = sim.Phase
	// DynPhysics is one weight change of SimOptions.Physics.
	DynPhysics = sim.PhysicsChange
	// ExecuteConfig configures a real goroutine-backed execution of a
	// schedule (wall-clock, not simulated).
	ExecuteConfig = runtime.Config
	// ExecuteReport summarizes a real execution.
	ExecuteReport = runtime.Report
	// ResourceUpgrade reports the throughput gain of speeding up one
	// resource.
	ResourceUpgrade = sensitivity.Upgrade
	// DemandRun is a completed demand-driven simulation.
	DemandRun = kreaseck.Run
	// InfiniteSpec describes a uniform infinite k-ary tree (Section 5's
	// infinite-network analysis).
	InfiniteSpec = infinite.Spec
	// MakespanResult reports a finite-batch run against the steady-state
	// lower bound.
	MakespanResult = makespan.Result
	// Graph is a general platform graph (Related Work [2]/[13]) from
	// which tree overlays are extracted.
	Graph = graph.Graph
	// OverlayKind selects a spanning-tree extraction heuristic.
	OverlayKind = graph.OverlayKind
)

// Overlay heuristics for Graph.SpanningTree.
const (
	OverlayBFS    = graph.OverlayBFS
	OverlayDFS    = graph.OverlayDFS
	OverlayGreedy = graph.OverlayGreedy
)

// None marks "no node" (e.g. the root's parent).
const None = tree.None

// Rat returns the exact rational n/d.
func Rat(n, d int64) Rational { return rat.New(n, d) }

// RatInt returns the exact rational v.
func RatInt(v int64) Rational { return rat.FromInt(v) }

// ParseRat parses "3", "3/4" or "0.75".
func ParseRat(s string) (Rational, error) { return rat.Parse(s) }

// NewBuilder returns an empty platform builder.
func NewBuilder() *Builder { return tree.NewBuilder() }

// Observability.

// Observer collects metrics, spans and events from instrumented runs. A
// nil *Observer disables all instrumentation at the cost of one pointer
// check per site; attach one with bwc.WithObserver(NewObserver()) on any
// entry point, then export with WriteChromeTrace (Perfetto-loadable),
// WritePrometheus (text exposition) or AttachJSONL (streaming event
// log).
type Observer = obs.Scope

// ObserverEvent is one emitted event on an Observer's bus.
type ObserverEvent = obs.Event

// NewObserver returns an enabled Observer.
func NewObserver() *Observer { return obs.New() }

// MetricsServer is a live HTTP endpoint exposing an Observer's metrics at
// /metrics (Prometheus text) and the Go profiles under /debug/pprof/.
type MetricsServer = runtime.MetricsServer

// ServeObserverMetrics starts a MetricsServer for o on addr (":0" picks a
// free port; the bound address is in the returned server's Addr).
func ServeObserverMetrics(o *Observer, addr string) (*MetricsServer, error) {
	return runtime.ServeMetrics(o, addr)
}

// Conformance analysis: turning a run's telemetry into verdicts against
// the paper's theory (see internal/obs/analyze).
type (
	// HealthReport is the structured outcome of analyzing one run.
	HealthReport = analyze.HealthReport
	// HealthCheck is one conformance verdict with its evidence.
	HealthCheck = analyze.Check
	// HealthVerdict is PASS, FAIL or SKIP.
	HealthVerdict = analyze.Verdict
	// AnalyzeOptions tunes the conformance thresholds and supplies the
	// schedule expected values are derived from.
	AnalyzeOptions = analyze.Options
	// RunEvidence is the raw material of an analysis (a run's record or
	// spans, plus metrics).
	RunEvidence = analyze.Evidence
)

// Verdict values.
const (
	HealthPass = analyze.Pass
	HealthFail = analyze.Fail
	HealthSkip = analyze.Skip
)

// AnalyzeRun checks a simulation against the paper's theory: per-node
// throughput vs the solver's η, single-port discipline, link utilization
// vs Lemma 1, buffer peaks vs Proposition 3's χ, steady-state onset vs
// Proposition 4, start-up useful work, and backlogged idleness. It reads
// the run's trace in place, plus the counters of the Observer the run
// was simulated with, if any: without one, task-conservation SKIPs, and
// a run simulated WithSkipIntervals has no intervals, so the checks that
// read them SKIP. The schedule and stop time are taken from the run
// unless overridden (WithAnalyzeOptions, WithStop).
func AnalyzeRun(run *Run, opts ...Option) *HealthReport {
	o := buildCfg(opts).buildAnalyzeOptions()
	if o.Schedule == nil {
		o.Schedule = run.Schedule
	}
	if o.Stop.IsZero() {
		o.Stop = run.Stats.StopAt
	}
	return analyze.Analyze(analyze.FromRun(run.Trace, run.Obs), o)
}

// AnalyzeObserver analyzes whatever evidence a live Observer holds (e.g.
// one attached to Execute). Wall-clock runs carry link spans and
// counters, so the exact-timing checks degrade to SKIP.
func AnalyzeObserver(o *Observer, opts ...Option) *HealthReport {
	return analyze.Analyze(analyze.FromScope(o), buildCfg(opts).buildAnalyzeOptions())
}

// AnalyzeTrace analyzes offline evidence: a Chrome trace (WriteChromeTrace)
// or span-tagged JSONL (WriteSpansJSONL / AttachJSONL) previously written
// by an exporter. Supply a schedule via WithAnalyzeOptions to enable the
// checks that need expected values.
func AnalyzeTrace(r io.Reader, opts ...Option) (*HealthReport, error) {
	ev, err := analyze.ReadEvidence(r)
	if err != nil {
		return nil, err
	}
	return analyze.Analyze(ev, buildCfg(opts).buildAnalyzeOptions()), nil
}

// Solve computes the optimal steady-state throughput and the per-node
// activity variables with the BW-First procedure (sequential reference
// implementation). WithObserver records one span per BW-First
// transaction and the solver's counters.
func Solve(t *Tree, opts ...Option) *Result {
	return bwfirst.SolveObserved(t, buildCfg(opts).obs)
}

// SolveBatch scores many platforms concurrently (results in input order) —
// the bulk evaluation that makes Section 5's topological studies cheap.
// workers <= 0 uses GOMAXPROCS.
func SolveBatch(trees []*Tree, workers int) []*Result { return bwfirst.SolveBatch(trees, workers) }

// SolveDistributed runs BW-First as a distributed protocol: one goroutine
// per node, single-number messages over channels. WithObserver records
// one span per transaction plus the protocol message counters
// (bwc_protocol_messages_total, bwc_visited_nodes).
func SolveDistributed(t *Tree, opts ...Option) *DistributedResult {
	return proto.SolveObserved(t, buildCfg(opts).obs)
}

// ProtocolSession keeps one goroutine per node alive across negotiation
// rounds, enabling the Section 5 dynamic-adaptation pattern: the root
// re-initiates BW-First against re-measured link weights via Renegotiate
// without restarting node processes.
type ProtocolSession = proto.Session

// NewProtocolSession spawns the node goroutines for t. Close the session
// to release them.
func NewProtocolSession(t *Tree) *ProtocolSession { return proto.NewSession(t) }

// BottomUp computes the same optimum with the baseline bottom-up fork
// reduction of Beaumont et al., touching every node.
func BottomUp(t *Tree) *BottomUpResult { return bottomup.Solve(t) }

// LPThroughput computes the optimum a third way: as the exact solution of
// the steady-state linear program, together with witness compute rates.
func LPThroughput(t *Tree) (Rational, []Rational, error) { return lp.OptimalThroughput(t) }

// BuildSchedule reconstructs every node's asynchronous, event-driven local
// schedule (Lemma-1 periods and ψ quantities; Schedule.Cursor derives a
// node's interleaved order from its ψ on demand) from a BW-First result.
// WithScheduleOptions tunes the construction.
func BuildSchedule(res *Result, opts ...Option) (*Schedule, error) {
	return sched.Build(res, buildCfg(opts).schedOptions)
}

// MarshalDeployment encodes the active nodes' ψ quantities and consuming
// periods as JSON — the compact description each deployed node needs to
// derive its own pattern locally.
func MarshalDeployment(s *Schedule) ([]byte, error) { return s.MarshalDeployment() }

// UnmarshalDeployment rebuilds a schedule for platform t from a deployment
// document, recomputing every derived quantity locally.
func UnmarshalDeployment(t *Tree, data []byte, opts ...Option) (*Schedule, error) {
	return sched.UnmarshalDeployment(t, data, buildCfg(opts).schedOptions)
}

// QuantizeSchedule rounds the optimal rates down to denominators dividing
// den before building the schedule, bounding every node's periods by den
// at a throughput loss of at most (#nodes)/den — the practical answer to
// the paper's warning that exact periods "might be embarrassingly long".
// It returns the schedule and the quantized throughput.
func QuantizeSchedule(res *Result, den int64, opts ...Option) (*Schedule, Rational, error) {
	return sched.Quantize(res, den, buildCfg(opts).schedOptions)
}

// Simulate executes a schedule on the simulated platform under the
// single-port full-overlap model: paced root, event-driven nodes,
// start-up from empty buffers, wind-down after the horizon. Exactly one
// of WithStop / WithPeriods / WithTasks must set the horizon;
// WithObserver instruments the run and WithSimOptions seeds the rarer
// knobs (BurstRoot, MaxEvents). SimOptions.Phases and Physics give the
// run a timeline: the deployed schedule and the platform's physics may
// change at different moments, measuring the paper's open question
// about re-negotiation overhead (Section 5 / future work).
func Simulate(s *Schedule, opts ...Option) (*Run, error) {
	return sim.Simulate(s, buildCfg(opts).buildSimOptions())
}

// Execute runs a batch as a real concurrent Master-Worker application:
// goroutines per node, channels as links, wall-clock pacing scaled by
// WithScale, and the WithWork function invoked per task. WithTasks sets
// the batch size.
func Execute(s *Schedule, opts ...Option) (*ExecuteReport, error) {
	return runtime.Execute(buildCfg(opts).buildExecConfig(s))
}

// SimulateDemandDriven runs the Kreaseck-style demand-driven comparator
// protocol on the same platform model.
func SimulateDemandDriven(t *Tree, opt DemandOptions) (*DemandRun, error) {
	return kreaseck.Simulate(t, opt)
}

// PlatformWithUniformResultReturn returns a copy of t carrying the same
// result-return time d on every link (Tree.WithReturnTimes sets them per
// link, and the text format's optional 5th column carries them too). The
// returned tree is a first-class platform: Solve, BuildSchedule,
// Simulate, Execute, sessions and the wire formats all model the upward
// result flow natively (Section 9).
func PlatformWithUniformResultReturn(t *Tree, d Rational) (*Tree, error) {
	return t.WithUniformReturnTime(d)
}

// FoldedThroughput is the Section 9 baseline: every link's return time
// folded into its forward time (c' = c + d) and the platform solved
// forward-only — what a scheduler that serializes the two flows on one
// port pair would achieve. The gap to the separate-flows throughput
// (Solve / Verify on the return platform itself) is the folded model's
// error. The call never fails; its error result is kept for API
// stability.
func FoldedThroughput(t *Tree) (Rational, error) {
	return bwfirst.Solve(t.WithFoldedReturns()).Throughput, nil
}

// Platform I/O.

// ParsePlatform reads the line-oriented text format ("name parent comm
// proc", '-' for the root's parent/comm, "inf" for switches).
func ParsePlatform(r io.Reader) (*Tree, error) { return tree.ParseText(r) }

// ParsePlatformString is ParsePlatform on a string.
func ParsePlatformString(s string) (*Tree, error) { return tree.ParseString(s) }

// FormatPlatform renders a platform in the text format.
func FormatPlatform(t *Tree) string { return t.Text() }

// DOT renders a platform as a Graphviz digraph; highlight (optional) marks
// nodes, e.g. the visited set of a Result.
func DOT(t *Tree, highlight func(NodeID) bool) string { return t.DOT(highlight) }

// DOTWithSchedule renders the platform annotated with the optimal steady
// state: α per node, "c / η" per edge.
func DOTWithSchedule(res *Result) string {
	return res.Tree.DOTWithRates(
		func(id NodeID) Rational { return res.Nodes[id].Alpha },
		func(id NodeID) Rational { return res.SendRate(id) })
}

// Rendering.

// GanttASCII renders a run's trace window as text, one character per step.
func GanttASCII(tr *Trace, from, to, step Rational) string {
	return gantt.ASCII(tr, from, to, step)
}

// GanttSVG renders a run's trace window as an SVG document.
func GanttSVG(tr *Trace, from, to Rational, pxPerUnit float64) string {
	return gantt.SVG(tr, from, to, pxPerUnit)
}

// GanttASCIIWithBuffers adds per-node buffered-task rows to the ASCII
// Gantt (digits 0-9, '+' for ten or more).
func GanttASCIIWithBuffers(tr *Trace, from, to, step Rational) string {
	return gantt.ASCIIWithBuffers(tr, from, to, step)
}

// Generators.

// PlatformKind selects a synthetic platform family.
type PlatformKind = treegen.Kind

// Platform families for GeneratePlatform.
const (
	Uniform          = treegen.Uniform
	BandwidthLimited = treegen.BandwidthLimited
	ComputeLimited   = treegen.ComputeLimited
	DeepChain        = treegen.DeepChain
	WideStar         = treegen.WideStar
	SwitchHeavy      = treegen.SwitchHeavy
	SETI             = treegen.SETI
)

// GeneratePlatform builds a deterministic synthetic platform of n nodes.
func GeneratePlatform(kind PlatformKind, n int, seed int64) *Tree {
	return treegen.Generate(kind, n, seed)
}

// GenerateBandwidthSeverity builds a platform whose link times are scaled
// by severity over a compute-balanced baseline (the E5 bottleneck sweep).
func GenerateBandwidthSeverity(n int, severity, seed int64) *Tree {
	return treegen.BandwidthSeverity(n, severity, seed)
}

// PaperExampleTree returns the 12-node Section 8 platform: throughput
// 10/9, steady-state period 360, rootless period 40, and nodes P5, P9,
// P10, P11 unused by the optimal schedule.
func PaperExampleTree() *Tree { return paperexample.Tree() }

// Verify cross-checks the throughput oracles (BW-First, bottom-up
// reduction, exact LP, distributed protocol) on t and the internal
// invariants of the BW-First result; it returns the agreed throughput.
// WithObserver records the BW-First and protocol runs it performs.
//
// On a result-return platform (Section 9) the bottom-up reduction is a
// forward-only oracle, so Verify instead checks the generalized BW-First
// result's port invariants, its feasibility against the exact
// separate-flows LP (greedy ≤ LP must hold — the heuristic is feasible
// but not proven optimal with returns) and the protocol's agreement
// with BW-First, and returns the LP optimum.
func Verify(t *Tree, opts ...Option) (Rational, error) {
	sc := buildCfg(opts).obs
	res := bwfirst.SolveObserved(t, sc)
	if err := res.CheckInvariants(); err != nil {
		return rat.Zero, err
	}
	hasRet := t.HasResultReturn()
	if !hasRet {
		if bu := bottomup.Solve(t); !bu.Throughput.Equal(res.Throughput) {
			return rat.Zero, errMismatch("bottom-up", bu.Throughput, res.Throughput)
		}
	}
	opt, _, err := lp.OptimalThroughput(t)
	if err != nil {
		return rat.Zero, err
	}
	if hasRet && opt.Less(res.Throughput) {
		return rat.Zero, errMismatch("LP (greedy above the exact optimum)", res.Throughput, opt)
	}
	if !hasRet && !opt.Equal(res.Throughput) {
		return rat.Zero, errMismatch("LP", opt, res.Throughput)
	}
	dist := proto.SolveObserved(t, sc)
	if !dist.Throughput.Equal(res.Throughput) {
		return rat.Zero, errMismatch("distributed protocol", dist.Throughput, res.Throughput)
	}
	return opt, nil
}

type mismatchError struct {
	oracle string
	got    Rational
	want   Rational
}

func (e mismatchError) Error() string {
	return "bwc: " + e.oracle + " disagrees: " + e.got.String() + " vs BW-First " + e.want.String()
}

func errMismatch(oracle string, got, want Rational) error {
	return mismatchError{oracle: oracle, got: got, want: want}
}

// Infinite-tree analysis (Section 5 / Bataineh & Robertazzi [3]).

// InfiniteRate returns the exact equivalent computing rate of the uniform
// infinite k-ary tree: 1/w + 1/c.
func InfiniteRate(s InfiniteSpec) (Rational, error) { return s.Rate() }

// TruncatedRate returns the equivalent rate of the spec's depth-d
// truncation; it increases monotonically to InfiniteRate with d.
func TruncatedRate(s InfiniteSpec, depth int) (Rational, error) { return s.TruncatedRate(depth) }

// Finite-batch makespan (the Section 2 heuristic claim).

// BatchMakespan schedules a finite batch of n tasks with the event-driven
// schedule and reports the makespan against the steady-state lower bound
// n/ρ*.
func BatchMakespan(t *Tree, n int) (MakespanResult, error) { return makespan.EventDriven(t, n) }

// BatchMakespanDemandDriven runs the same batch under the demand-driven
// comparator protocol.
func BatchMakespanDemandDriven(t *Tree, n int) (MakespanResult, error) {
	return makespan.DemandDriven(t, n)
}

// AnalyzeUpgrades re-solves the platform once per resource sped up by the
// given factor and returns the exact throughput gains, best first — the
// operational answer to "what should we upgrade?".
func AnalyzeUpgrades(t *Tree, speedup Rational) ([]ResourceUpgrade, error) {
	return sensitivity.Analyze(t, speedup)
}

// General platform graphs (Related Work [2]/[13]).

// RandomGraph generates a seeded random connected platform graph with
// extra cross links beyond the spanning backbone.
func RandomGraph(seed int64, n, extraEdges int, switchProb float64) *Graph {
	return graph.RandomConnected(RandSource(seed), n, extraEdges, switchProb)
}

// GraphThroughput computes the exact steady-state optimum of a general
// platform graph via the LP of Banino et al. [2] — the routing-free upper
// bound on any tree overlay.
func GraphThroughput(g *Graph) (Rational, error) { return graphlp.OptimalThroughput(g) }

// ParseGraph reads the line-oriented graph format ("node", "switch",
// "link", "master" directives).
func ParseGraph(r io.Reader) (*Graph, error) { return graph.ParseText(r) }

// RandSource returns a deterministic *rand.Rand for examples and
// experiments that need auxiliary randomness.
func RandSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
