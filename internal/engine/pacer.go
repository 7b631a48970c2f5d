package engine

import (
	"bwc/internal/rat"
	"bwc/internal/sched"
)

// Pacer enumerates the root's releases: slot k of period p fires at
// (p + pos_k)·T^w — the Section-6.3 pacing that keeps the root in steady
// state from t = 0. In burst mode every slot of a period fires at the
// period start instead (the naive timing the E7 ablation studies). It
// walks a cursor over the root's bunch; backends own the clock that
// realizes the instants.
type Pacer struct {
	tw     rat.R
	cur    sched.Cursor
	period int64
	burst  bool
}

// NewPacer derives the release law from the schedule's root row. The
// root must be active with a non-empty bunch (backends validate this
// with their own error vocabulary before building a pacer).
func NewPacer(s *sched.Schedule, burst bool) Pacer {
	root := s.Tree.Root()
	if rs := &s.Nodes[root]; !rs.Active || rs.Bunch.Sign() == 0 {
		panic("engine: pacer over an inactive root")
	}
	return Pacer{tw: s.Nodes[root].TW, cur: s.Cursor(root, nil), burst: burst}
}

// TW is the root's consuming period T^w.
func (p *Pacer) TW() rat.R { return p.tw }

// Len is the number of release slots per period (the root's Ψ).
func (p *Pacer) Len() int64 { return p.cur.Len() }

// Index is the number of slots of the current period already taken.
func (p *Pacer) Index() int64 { return p.cur.Index() }

// PeriodStart is the start instant of the current period: p·T^w.
func (p *Pacer) PeriodStart() rat.R { return p.tw.Mul(rat.FromInt(p.period)) }

// Next takes the next slot: its pre-routed destination (Self or child
// index) and its release instant.
func (p *Pacer) Next() (sched.Dest, rat.R) {
	at := p.PeriodStart()
	slot := p.cur.Next()
	if !p.burst {
		at = at.Add(slot.Pos().Mul(p.tw))
	}
	if p.cur.Index() == 0 {
		p.period++
	}
	return slot.Dest, at
}
