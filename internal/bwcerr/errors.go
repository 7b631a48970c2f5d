// Package bwcerr holds the sentinel errors shared by the internal
// packages and re-exported by the bwc facade. They live here — below
// every other package — so that internal code can wrap them without
// importing the facade (which imports everything else).
//
// Callers classify failures with errors.Is:
//
//	ErrNotATree       the input platform violates the tree model
//	                  (structural builder/parser errors);
//	ErrInfeasible     no positive-throughput steady state exists for the
//	                  requested operation (e.g. the root delegates and
//	                  computes nothing);
//	ErrScheduleStale  drift was detected against the active schedule but
//	                  adaptation was disabled, so the schedule no longer
//	                  matches the platform;
//	ErrAdaptTimeout   the adaptation loop could not converge: drift
//	                  persisted after the allowed number of adaptations,
//	                  or no swap boundary fits before the horizon;
//	ErrPerfRegression the benchmark trajectory regressed against its
//	                  committed baseline (the perf gate);
//	ErrChurnCollapse  sustained churn drove retained throughput below the
//	                  configured floor and the re-solve retry budget is
//	                  exhausted — the graceful-degradation contract's
//	                  terminal state, raised instead of thrashing forever;
//	ErrDaemonUnreachable
//	                  a client-mode command (bwsched submit/watch) could
//	                  not reach the bwschedd control plane at all: nothing
//	                  about the platform was evaluated.
package bwcerr

import "errors"

// ErrNotATree reports a platform that is not a valid weighted tree.
var ErrNotATree = errors.New("platform is not a valid tree")

// ErrInfeasible reports that no positive-throughput steady state exists.
var ErrInfeasible = errors.New("no feasible steady state")

// ErrScheduleStale reports detected drift with adaptation disabled.
var ErrScheduleStale = errors.New("schedule is stale for the measured platform")

// ErrAdaptTimeout reports a non-converging adaptation loop.
var ErrAdaptTimeout = errors.New("adaptation timed out")

// ErrPerfRegression reports a benchmark trajectory that failed the
// regression gate against its baseline (internal/perf.Compare).
var ErrPerfRegression = errors.New("performance regression against baseline")

// ErrChurnCollapse reports that churn degraded the platform past the
// configured retention floor and retries could not recover it.
var ErrChurnCollapse = errors.New("churn collapsed throughput below the retention floor")

// ErrDaemonUnreachable reports that a client-mode command could not
// connect to the bwschedd control plane (connection refused, DNS
// failure, timeout before any HTTP response). The bwsched CLI maps it
// to exit code 10 so scripts can distinguish "the daemon is down" from
// every in-band scheduling failure.
var ErrDaemonUnreachable = errors.New("scheduling daemon unreachable")
