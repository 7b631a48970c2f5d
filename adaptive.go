package bwc

// Adaptive runtime: the closed loop the paper leaves open in Section 5.
// BW-First is cheap enough to re-run whenever the platform drifts, so
// SimulateAdaptive and SimulateChurn inject faults on a timeline, watch
// windowed per-node throughput and buffer watermarks against the active
// schedule, re-solve on the measured platform — crashed nodes' subtrees
// excluded — and hot-swap the new schedule at a period boundary without
// stopping the run. See internal/adapt.

import (
	"bwc/internal/adapt"
	"bwc/internal/obs/analyze"
)

// Adaptive-runtime types.
type (
	// Fault is one scripted perturbation of the platform at a point in
	// virtual time.
	Fault = adapt.Fault
	// FaultKind selects how a Fault perturbs the platform.
	FaultKind = adapt.FaultKind
	// Adaptation records one detect → re-solve → hot-swap cycle.
	Adaptation = adapt.Adaptation
	// AdaptReport is the outcome of a SimulateAdaptive run: the final
	// verification run, the adaptation log, and the pre-/post-swap
	// conformance reports.
	AdaptReport = adapt.SimReport
	// DriftReport is one detected deviation from the active schedule.
	DriftReport = adapt.Drift
	// DriftWindow is the windowed statistic that fired the detector.
	DriftWindow = analyze.WindowStat
)

// Fault kinds, for hand-assembled Faults; the constructors below cover
// the common cases.
const (
	FaultLinkSet     = adapt.LinkSet
	FaultLinkScale   = adapt.LinkScale
	FaultLinkRestore = adapt.LinkRestore
	FaultNodeSet     = adapt.NodeSet
	FaultNodeScale   = adapt.NodeScale
	FaultNodeRestore = adapt.NodeRestore
	FaultCrash       = adapt.Crash
)

// DegradeLink schedules the node's incoming communication time to become
// comm at virtual time at (the PR's canonical drift: a congested link).
func DegradeLink(at Rational, node string, comm Rational) Fault {
	return Fault{At: at, Node: node, Kind: adapt.LinkSet, Value: comm}
}

// RestoreLink schedules the node's incoming link back to its baseline c.
func RestoreLink(at Rational, node string) Fault {
	return Fault{At: at, Node: node, Kind: adapt.LinkRestore}
}

// SlowNode schedules the node's processing time to be multiplied by
// factor (> 1 is a slowdown).
func SlowNode(at Rational, node string, factor Rational) Fault {
	return Fault{At: at, Node: node, Kind: adapt.NodeScale, Value: factor}
}

// RestoreNode schedules the node's processing time back to its baseline w.
func RestoreNode(at Rational, node string) Fault {
	return Fault{At: at, Node: node, Kind: adapt.NodeRestore}
}

// CrashNode schedules a fail-stop of the node's process: its compute
// rate collapses, and the next re-solve prunes its whole subtree, the
// crashed node being a link nobody can use. The link itself stays up,
// and the crash is permanent for the run.
func CrashNode(at Rational, node string) Fault {
	return Fault{At: at, Node: node, Kind: adapt.Crash}
}

// RandomFaults generates a reproducible fault script for t: n
// degradation events (link or node slowdowns by a factor of 2–8) spread
// over the middle of [0, horizon), half of them followed by a restore.
// The root is never targeted.
func RandomFaults(t *Tree, seed int64, n int, horizon Rational) []Fault {
	return adapt.RandomFaults(t, seed, n, horizon)
}

// SimulateAdaptive runs the closed adaptation loop against the exact
// simulator: simulate s under the fault timeline (WithFaults) until
// WithStop, scan for drift against the active schedule, re-negotiate on
// the measured platform, and hot-swap the re-solved schedule at the next
// root period boundary (draining the stale backlog first); repeat until
// no drift remains or the adaptation budget (WithMaxAdapts) is
// exhausted. The returned report carries every detected drift, the
// pre-swap conformance report (expected to FAIL when faults bite) and
// the post-swap report on the final regime (Healed reports whether it
// passes every check). A drift too late for a swap boundary before
// WithStop ends the loop, and the run is verified as it stands. A
// crashed root leaves nothing to schedule: the run fails at once with
// an error wrapping ErrInfeasible. SimulateChurn runs the same loop.
//
// The controller is deterministic: identical inputs replay identical
// timelines.
func SimulateAdaptive(s *Schedule, opts ...Option) (*AdaptReport, error) {
	return adapt.SimulateAdaptive(s, buildCfg(opts).buildAdaptOptions())
}

// Churn-hardened runtime types.
type (
	// ChurnConfig seeds the stochastic fleet-churn generator
	// (WithChurn); the same seed reproduces a byte-identical fault
	// script and event log.
	ChurnConfig = adapt.ChurnConfig
	// ChurnReport is the outcome of a SimulateChurn run: the adaptive
	// report (with its deterministic event log) plus the fault script,
	// oracle retention comparison, quarantine list, and per-cycle
	// re-solve stats.
	ChurnReport = adapt.ChurnReport
	// ChurnReSolve records the cost of one incremental re-solve cycle.
	ChurnReSolve = adapt.ReSolveStat
)

// SimulateChurn runs the churn-hardened closed loop: generate seeded
// churn (WithChurn), detect drift, and re-solve incrementally along the
// affected root-to-leaf spine only — memoized subtree solutions are
// reused, and only the changed node schedules are hot-swapped through
// the engine. Flapping nodes are quarantined after repeated
// perturbations, failed re-solves are retried with seeded backoff
// jitter, and a run whose retained throughput stays below the retention
// floor (WithRetentionFloor) after the retry budget returns an error
// wrapping ErrChurnCollapse. The report compares the retained
// steady-state throughput against an oracle full re-solve on the final
// platform.
func SimulateChurn(s *Schedule, opts ...Option) (*ChurnReport, error) {
	return adapt.SimulateChurn(s, buildCfg(opts).buildChurnOptions())
}
