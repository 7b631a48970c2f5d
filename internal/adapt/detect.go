package adapt

import (
	"fmt"

	"bwc/internal/bwcerr"
	"bwc/internal/obs/analyze"
	"bwc/internal/rat"
	"bwc/internal/sched"
)

// Detector accumulates windowed verdicts and fires after K consecutive
// bad windows — the debounce that keeps one noisy window from triggering
// a re-negotiation. It is a plain state machine; feed it WindowStats in
// order.
type Detector struct {
	// Threshold is the minimum acceptable worst-node achieved/α ratio.
	Threshold float64
	// BufferSlack is the tolerated peak-buffer excess over χ.
	BufferSlack int
	// Consecutive is how many bad windows in a row fire the detector.
	Consecutive int

	bad int
}

// Bad reports whether one window violates the detector's thresholds.
func (d *Detector) Bad(ws analyze.WindowStat) bool {
	return ws.MinRatio < d.Threshold || ws.MaxOverChi > d.BufferSlack
}

// Feed consumes one window and reports whether the detector fires on it.
func (d *Detector) Feed(ws analyze.WindowStat) bool {
	if !d.Bad(ws) {
		d.bad = 0
		return false
	}
	d.bad++
	if d.bad >= d.Consecutive {
		d.bad = 0
		return true
	}
	return false
}

// Reset clears the consecutive-bad count (called after a schedule swap).
func (d *Detector) Reset() { d.bad = 0 }

// Drift is one detected deviation from the active schedule.
type Drift struct {
	// At is the instant the detector fired (the end of the K-th bad
	// window).
	At rat.R
	// Window is the stat of the window that fired.
	Window analyze.WindowStat
}

// scan replays the evidence of one schedule regime — active since
// segStart, observed up to stop — through a fresh detector and returns
// the first drift, if any. Windows starting before settle are skipped:
// the steady state is not owed until the regime's Proposition 4 start-up
// bound has elapsed and (after a swap) the stale backlog has drained.
func scan(ev *analyze.Evidence, s *sched.Schedule, segStart, settle, stop, window rat.R, d *Detector) (Drift, bool) {
	stats := analyze.WindowStats(ev, analyze.WindowOptions{
		Schedule: s,
		Anchor:   segStart,
		Window:   window,
		End:      stop,
	})
	d.Reset()
	for _, ws := range stats {
		if ws.Start.Less(settle) {
			continue
		}
		if d.Feed(ws) {
			return Drift{At: ws.End, Window: ws}, true
		}
	}
	return Drift{}, false
}

// staleDrift classifies a confirmed drift while adaptation is disabled:
// the deployed schedule no longer matches the platform and nothing will
// fix it. Wraps bwcerr.ErrScheduleStale.
func staleDrift(at rat.R, worstNode string, minRatio float64) error {
	return fmt.Errorf("adapt: drift at t=%s (worst node %s at %.0f%% of α) with adaptation disabled: %w",
		at, worstNode, minRatio*100, bwcerr.ErrScheduleStale)
}

// adaptExhausted classifies drift that survived the full adaptation
// budget. Wraps bwcerr.ErrAdaptTimeout.
func adaptExhausted(at rat.R, adaptations int) error {
	return fmt.Errorf("adapt: drift persists at t=%s after %d adaptations: %w",
		at, adaptations, bwcerr.ErrAdaptTimeout)
}
