package adapt

import (
	"fmt"

	"bwc/internal/bwcerr"
	"bwc/internal/obs/analyze"
	"bwc/internal/rat"
	"bwc/internal/sched"
)

// Drift is one detected deviation from the active schedule.
type Drift struct {
	// At is the instant the detector fired (the end of the K-th bad
	// window).
	At rat.R
	// Window is the stat of the window that fired.
	Window analyze.WindowStat
}

// scan replays the evidence of one schedule regime — active since
// segStart, observed up to stop — and returns the first drift, if any: the
// end of opt.Consecutive bad windows in a row, a window being bad when its
// worst node falls below opt.Threshold of α or a buffer exceeds χ by more
// than bufferSlack. The debounce keeps one noisy window from triggering a
// re-negotiation. Windows starting before settle are skipped: the steady
// state is not owed until the regime's Proposition 4 start-up bound has
// elapsed and (after a swap) the stale backlog has drained.
func scan(ev *analyze.Evidence, s *sched.Schedule, segStart, settle, window rat.R, opt Options) (Drift, bool) {
	stats := analyze.WindowStats(ev, analyze.WindowOptions{
		Schedule: s,
		Anchor:   segStart,
		Window:   window,
		End:      opt.Stop,
	})
	bad := 0
	for _, ws := range stats {
		if ws.Start.Less(settle) {
			continue
		}
		if ws.MinRatio < opt.Threshold || ws.MaxOverChi > bufferSlack {
			bad++
		} else {
			bad = 0
		}
		if bad >= opt.Consecutive {
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
