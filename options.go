package bwc

import (
	"time"

	"bwc/internal/adapt"
)

// Option configures one facade call. Every entry point that used to take
// its own trailing struct or optional observer now shares this single
// functional-options vocabulary:
//
//	res := bwc.Solve(t, bwc.WithObserver(ob))
//	run, err := bwc.Simulate(s, bwc.WithStop(bwc.RatInt(115)))
//	rep, err := bwc.Execute(s, bwc.WithTasks(100), bwc.WithScale(time.Millisecond))
//	adaptRep, err := bwc.SimulateAdaptive(s,
//	    bwc.WithFaults(bwc.DegradeLink(bwc.RatInt(120), "P1", bwc.RatInt(4))),
//	    bwc.WithStop(bwc.RatInt(400)))
//
// Options that do not apply to a call are ignored, so shared helpers can
// pass one option slice to several entry points. The struct-typed escape
// hatches (WithSimOptions, WithScheduleOptions, WithAnalyzeOptions) seed
// the full configuration for the rare fields without a dedicated option;
// dedicated options applied after them override the seeded fields.
type Option func(*callCfg)

// callCfg accumulates the option state for one call; each entry point
// materializes only the slice of it that applies.
type callCfg struct {
	obs *Observer

	// Horizon and batch size (Simulate, Execute, SimulateAdaptive,
	// SimulateChurn).
	stop       Rational
	periods    int
	tasks      int
	skip       bool
	simOptions SimOptions

	// Schedule construction (BuildSchedule, QuantizeSchedule,
	// UnmarshalDeployment, and re-solves inside the adaptive loop).
	schedOptions ScheduleOptions

	// Wall-clock execution (Execute).
	scale time.Duration
	work  func(NodeID, int)

	// Conformance analysis (AnalyzeRun and friends).
	anOptions AnalyzeOptions
	anSet     bool

	// Adaptive runtime (SimulateAdaptive, SimulateChurn).
	adaptOptions adapt.Options
	faults       []Fault
	detectOnly   bool

	// Churn-hardened runtime (SimulateChurn).
	churn          ChurnConfig
	retentionFloor float64
	flapThreshold  int
	flapWindow     Rational
	resolveRetries int
}

func buildCfg(opts []Option) callCfg {
	var c callCfg
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// WithObserver attaches an Observer to the call: solver and protocol
// runs record one span per transaction, simulations and executions
// record per-node activity, and the adaptive controller emits its
// fault/drift/swap events on it.
func WithObserver(o *Observer) Option {
	return func(c *callCfg) { c.obs = o }
}

// WithStop sets the instant the root stops releasing tasks (Simulate,
// SimulateAdaptive) or bounds the evidence window (Analyze*).
func WithStop(t Rational) Option {
	return func(c *callCfg) { c.stop = t }
}

// WithPeriods makes Simulate run for n root periods instead of an
// absolute stop time.
func WithPeriods(n int) Option {
	return func(c *callCfg) { c.periods = n }
}

// WithTasks sets the finite batch size: Simulate releases exactly n
// tasks and stops; Execute runs the batch to completion.
func WithTasks(n int) Option {
	return func(c *callCfg) { c.tasks = n }
}

// WithSkipIntervals suppresses Gantt interval recording during
// simulation; completions and buffer samples are still recorded. Use it
// for large sweeps.
func WithSkipIntervals() Option {
	return func(c *callCfg) { c.skip = true }
}

// WithSimOptions seeds the full simulation configuration for fields
// without a dedicated option (BurstRoot, MaxEvents, and the timeline:
// Phases, Physics). Dedicated options applied after it override the
// seeded fields.
func WithSimOptions(o SimOptions) Option {
	return func(c *callCfg) { c.simOptions = o }
}

// WithScheduleOptions configures schedule construction wherever one is
// built: BuildSchedule, QuantizeSchedule, UnmarshalDeployment, and the
// re-solved schedules inside the adaptive loop.
func WithScheduleOptions(o ScheduleOptions) Option {
	return func(c *callCfg) { c.schedOptions = o }
}

// WithBlock switches schedule construction to block allocation instead
// of the default interleaved pattern — shorthand for the one
// ScheduleOptions field with a wire-level counterpart (api/v1
// SubmitRequest.Block).
func WithBlock() Option {
	return func(c *callCfg) { c.schedOptions.Block = true }
}

// WithScale converts one virtual time unit to the given wall-clock
// duration in Execute.
func WithScale(d time.Duration) Option {
	return func(c *callCfg) { c.scale = d }
}

// WithWork installs the per-task payload run on the executing node's
// goroutine in Execute.
func WithWork(f func(node NodeID, task int)) Option {
	return func(c *callCfg) { c.work = f }
}

// WithAnalyzeOptions seeds the full conformance-analysis configuration
// (thresholds, expected schedule); dedicated options applied after it
// override the seeded fields.
func WithAnalyzeOptions(o AnalyzeOptions) Option {
	return func(c *callCfg) { c.anOptions = o; c.anSet = true }
}

// WithFaults appends scripted perturbations to the fault timeline of
// SimulateAdaptive and SimulateChurn (see DegradeLink,
// SlowNode, CrashNode, RandomFaults).
func WithFaults(faults ...Fault) Option {
	return func(c *callCfg) { c.faults = append(c.faults, faults...) }
}

// WithDriftWindow sets the drift-detection window width; zero derives
// it from the active schedule's rootless period.
func WithDriftWindow(w Rational) Option {
	return func(c *callCfg) { c.adaptOptions.Window = w }
}

// WithDriftThreshold sets the minimum worst-node achieved/α ratio per
// detection window before the window counts as bad (default 0.85).
func WithDriftThreshold(ratio float64) Option {
	return func(c *callCfg) { c.adaptOptions.Threshold = ratio }
}

// WithDriftDebounce sets how many consecutive bad windows fire the
// drift detector (default 2: quantized schedules deliver in bursts, so
// isolated bad windows are normal).
func WithDriftDebounce(windows int) Option {
	return func(c *callCfg) { c.adaptOptions.Consecutive = windows }
}

// WithMaxAdapts bounds the number of re-negotiations an adaptive run
// may perform before giving up with ErrAdaptTimeout (default 4).
func WithMaxAdapts(n int) Option {
	return func(c *callCfg) { c.adaptOptions.MaxAdapts = n }
}

// WithDetectOnly disables adaptation in SimulateAdaptive and
// SimulateChurn: the first detected drift surfaces as an error wrapping
// ErrScheduleStale instead of triggering a re-solve.
func WithDetectOnly() Option {
	return func(c *callCfg) { c.detectOnly = true }
}

// WithChurn seeds the stochastic churn generator of SimulateChurn: the
// seed fully determines the fault script (and the run's event log) for
// a given platform and horizon.
func WithChurn(cfg ChurnConfig) Option {
	return func(c *callCfg) { c.churn = cfg }
}

// WithRetentionFloor sets the graceful-degradation contract's hard
// floor for SimulateChurn: a re-solve whose throughput falls below this
// fraction of the baseline is retried with backoff, and an exhausted
// retry budget collapses the run with ErrChurnCollapse (default 0.5).
func WithRetentionFloor(f float64) Option {
	return func(c *callCfg) { c.retentionFloor = f }
}

// WithFlapQuarantine quarantines a node perturbed in threshold re-solve
// cycles within window: its subtree is pruned from subsequent schedules
// instead of being chased (defaults: 3 cycles within a quarter of the
// horizon).
func WithFlapQuarantine(threshold int, window Rational) Option {
	return func(c *callCfg) {
		c.flapThreshold = threshold
		c.flapWindow = window
	}
}

// WithResolveRetries bounds how many consecutive failed churn re-solves
// are retried, each backing off exponentially from the detection window,
// before the run collapses.
func WithResolveRetries(n int) Option {
	return func(c *callCfg) { c.resolveRetries = n }
}

// materializers

func (c callCfg) buildSimOptions() SimOptions {
	o := c.simOptions
	if c.stop.IsPos() {
		o.Stop = c.stop
	}
	if c.periods > 0 {
		o.Periods = c.periods
	}
	if c.tasks > 0 {
		o.Tasks = c.tasks
	}
	if c.skip {
		o.SkipIntervals = true
	}
	if c.obs != nil {
		o.Obs = c.obs
	}
	return o
}

func (c callCfg) buildExecConfig(s *Schedule) ExecuteConfig {
	return ExecuteConfig{Schedule: s, Tasks: c.tasks, Scale: c.scale, Work: c.work, Obs: c.obs}
}

func (c callCfg) buildAnalyzeOptions() AnalyzeOptions {
	o := c.anOptions
	if c.stop.IsPos() {
		o.Stop = c.stop
	}
	return o
}

func (c callCfg) buildChurnOptions() adapt.ChurnOptions {
	return adapt.ChurnOptions{
		Options:        c.buildAdaptOptions(),
		Churn:          c.churn,
		RetentionFloor: c.retentionFloor,
		ResolveRetries: c.resolveRetries,
		FlapThreshold:  c.flapThreshold,
		FlapWindow:     c.flapWindow,
	}
}

func (c callCfg) buildAdaptOptions() adapt.Options {
	o := c.adaptOptions
	o.Faults = append([]Fault(nil), c.faults...)
	if c.stop.IsPos() {
		o.Stop = c.stop
	}
	if c.detectOnly {
		o.MaxAdapts = -1
	}
	if c.schedOptions != (ScheduleOptions{}) {
		o.Sched = c.schedOptions
	}
	if c.obs != nil {
		o.Obs = c.obs
	}
	return o
}
