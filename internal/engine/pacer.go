package engine

import (
	"bwc/internal/rat"
	"bwc/internal/sched"
)

// Pacer enumerates the root's release instants: slot i of period p fires
// at (p + pos_i)·T^w — the Section-6.3 pacing that keeps the root in
// steady state from t = 0. In burst mode every slot of a period fires at
// the period start instead (the naive timing the E7 ablation studies).
// The pacer is pure arithmetic: backends own the clock that realizes the
// instants (the simulator schedules whole periods en bloc to preserve
// deterministic event order; the runtime sleeps slot to slot).
type Pacer struct {
	tw      rat.R
	pattern []sched.Slot
	burst   bool
}

// NewPacer derives the release law from the schedule's root row. The
// root must be active with a materialized pattern (backends validate
// this with their own error vocabulary before building a pacer).
func NewPacer(s *sched.Schedule, burst bool) *Pacer {
	root := &s.Nodes[s.Tree.Root()]
	if !root.Active || len(root.Pattern) == 0 {
		panic("engine: pacer over an inactive root")
	}
	return &Pacer{tw: root.TW, pattern: root.Pattern, burst: burst}
}

// TW is the root's consuming period T^w.
func (p *Pacer) TW() rat.R { return p.tw }

// Len is the number of release slots per period (the root's Ψ).
func (p *Pacer) Len() int { return len(p.pattern) }

// Dest is the pre-routed destination of slot i (Self or child index).
func (p *Pacer) Dest(i int) sched.Dest { return p.pattern[i].Dest }

// PeriodStart is the start instant of period n: n·T^w.
func (p *Pacer) PeriodStart(n int64) rat.R {
	return p.tw.Mul(rat.FromInt(n))
}

// At is the release instant of slot i in period n.
func (p *Pacer) At(n int64, i int) rat.R {
	base := p.PeriodStart(n)
	if p.burst {
		return base
	}
	return base.Add(p.pattern[i].Pos().Mul(p.tw))
}
