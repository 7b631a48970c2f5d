package bwc

import "bwc/internal/bwcerr"

// Sentinel errors. Every error returned by the facade that stems from one
// of these conditions wraps the matching sentinel, so callers classify
// failures with errors.Is regardless of the wrapping message:
//
//	if errors.Is(err, bwc.ErrInfeasible) { ... }
//
// The bwsched CLI maps them to distinct exit codes (4–10) so shell
// pipelines can branch on the failure class, and the bwschedd control
// plane maps the same sentinels to HTTP statuses through the api/v1
// error envelope (see api/v1).
var (
	// ErrNotATree reports an input platform that violates the tree model:
	// structural builder and parser errors (no root, duplicate names,
	// unknown parents, non-positive weights, malformed platform files).
	ErrNotATree = bwcerr.ErrNotATree

	// ErrInfeasible reports that no positive-throughput steady state
	// exists for the requested operation — e.g. the root delegates
	// everything and computes nothing, or a re-solved schedule's root is
	// inactive.
	ErrInfeasible = bwcerr.ErrInfeasible

	// ErrScheduleStale reports drift detected against the active schedule
	// while adaptation was disabled (WithDetectOnly): the
	// deployed schedule no longer matches the measured platform.
	ErrScheduleStale = bwcerr.ErrScheduleStale

	// ErrAdaptTimeout reports a non-converging adaptation loop: drift
	// persisted after the allowed number of adaptations, or no swap
	// boundary fits before the horizon.
	ErrAdaptTimeout = bwcerr.ErrAdaptTimeout

	// ErrPerfRegression reports a benchmark trajectory that failed the
	// regression gate against its committed baseline (`bwsched bench
	// -compare`): a gated metric exceeded its threshold or fell outside
	// its portable floor/ceiling.
	ErrPerfRegression = bwcerr.ErrPerfRegression

	// ErrChurnCollapse reports the graceful-degradation contract's
	// terminal state: sustained churn drove retained throughput below the
	// configured retention floor (WithRetentionFloor) and the re-solve
	// retry budget is exhausted. The bwsched CLI maps it to exit code 9.
	ErrChurnCollapse = bwcerr.ErrChurnCollapse

	// ErrDaemonUnreachable reports that a client-mode command (bwsched
	// submit / watch) could not reach the bwschedd control plane at all:
	// no HTTP response was received, so nothing about the platform was
	// evaluated. The bwsched CLI maps it to exit code 10; responses that
	// did arrive carry an api/v1 error envelope that unwraps to one of
	// the sentinels above instead.
	ErrDaemonUnreachable = bwcerr.ErrDaemonUnreachable
)
