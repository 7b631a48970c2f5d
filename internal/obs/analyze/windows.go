package analyze

// Live windowed statistics: the drift detector's view of a run. The
// adaptation loop (internal/adapt) cannot wait for a full post-mortem
// report; it watches fixed-width windows of the evidence and compares
// each against the active schedule's steady state, reusing the same
// reconstruction logic as the offline checks (span-end counting for
// throughput, ±1 replay for buffer occupancy).

import (
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/trace"
)

// WindowOptions configures a windowed scan of run evidence.
type WindowOptions struct {
	// Schedule supplies the expected values (α per node, χ bounds).
	Schedule *sched.Schedule
	// Anchor is the window grid origin (typically the instant the
	// schedule was activated).
	Anchor rat.R
	// Window is the window width (> 0).
	Window rat.R
	// End limits the scan: only windows entirely before End are
	// reported.
	End rat.R
}

// WindowStat summarizes one window of a run against the active schedule.
type WindowStat struct {
	Index      int64
	Start, End rat.R
	// MinRatio is the worst achieved/α over the schedule's computing
	// nodes whose expected quota in the window is at least one task
	// (1 when no node qualifies).
	MinRatio float64
	// WorstNode names the node behind MinRatio.
	WorstNode string
	// MaxOverChi is the worst peak-buffer excess over χ across non-root
	// active nodes within the window (0 when every node is within
	// bounds). Occupancy is reconstructed from the whole evidence
	// prefix, so backlog carried into the window counts.
	MaxOverChi int
	// BufferNode names the node behind MaxOverChi.
	BufferNode string
}

// WindowStats slices the evidence into consecutive windows of
// opt.Window starting at opt.Anchor and reports each window's worst
// per-node throughput ratio and buffer excess against the schedule.
func WindowStats(ev *Evidence, opt WindowOptions) []WindowStat {
	if opt.Schedule == nil || !opt.Window.IsPos() {
		return nil
	}
	a := &analysis{ev: ev, opt: Options{Schedule: opt.Schedule}.withDefaults()}
	a.s = opt.Schedule
	a.t = a.s.Tree
	a.parse()

	n, ok := opt.End.Sub(opt.Anchor).Div(opt.Window).Floor().Int64()
	if !ok || n <= 0 {
		return nil
	}
	stats := make([]WindowStat, n)
	for k := int64(0); k < n; k++ {
		stats[k] = WindowStat{
			Index:    k,
			Start:    opt.Anchor.Add(opt.Window.Mul(rat.FromInt(k))),
			End:      opt.Anchor.Add(opt.Window.Mul(rat.FromInt(k + 1))),
			MinRatio: 1,
		}
	}

	// Throughput: count compute-span ends per window for every active
	// computing node whose quota resolves to at least one task.
	for i := range a.s.Nodes {
		ns := &a.s.Nodes[i]
		if !ns.Active || !ns.Alpha.IsPos() {
			continue
		}
		expected := ns.Alpha.Mul(opt.Window).Float64()
		if expected < 1 {
			continue
		}
		counts := make([]int64, n)
		for _, p := range a.nodes[ns.Node].compute {
			k, ok := a.end(p).Sub(opt.Anchor).Div(opt.Window).Floor().Int64()
			if ok && k >= 0 && k < n {
				counts[k]++
			}
		}
		name := a.t.Name(ns.Node)
		for k := int64(0); k < n; k++ {
			ratio := float64(counts[k]) / expected
			if ratio < stats[k].MinRatio {
				stats[k].MinRatio = ratio
				stats[k].WorstNode = name
			}
		}
	}

	// Buffers: replay each node's ±1 occupancy stream once, tracking the
	// peak per window; the running level carries across windows so
	// accumulated backlog is visible.
	root := a.t.Root()
	for i := range a.s.Nodes {
		ns := &a.s.Nodes[i]
		if !ns.Active || ns.Node == root {
			continue
		}
		chi64, ok := a.s.Periods().Chi(ns.Node).Int64()
		if !ok {
			continue
		}
		chi := int(chi64)
		name := a.t.Name(ns.Node)
		held := 0
		peaks := make([]int, n)
		ds := a.held(ns.Node)
		for j := 0; j < len(ds); {
			at := ds[j].at
			for j < len(ds) && ds[j].at.Equal(at) {
				held += ds[j].d
				j++
			}
			k, ok := at.Sub(opt.Anchor).Div(opt.Window).Floor().Int64()
			if ok && k >= 0 && k < n && held > peaks[k] {
				peaks[k] = held
			}
		}
		for k := int64(0); k < n; k++ {
			if over := peaks[k] - chi; over > stats[k].MaxOverChi {
				stats[k].MaxOverChi = over
				stats[k].BufferNode = name
			}
		}
	}
	return stats
}

// ClipEvidence returns the sub-run evidence for the half-open window
// [from, to): activity overlapping the window is clipped to it and
// shifted so that `from` becomes t=0. A run's record stays a record, its
// end clipped the same way. Metrics are dropped — cumulative counters
// cannot be windowed — so counter-based checks SKIP on the result. Use
// it to analyze one regime of a multi-phase run against the schedule
// that was active during it.
func ClipEvidence(ev *Evidence, from, to rat.R) *Evidence {
	if rec := ev.rec; rec != nil {
		out := &trace.Trace{Tree: rec.Tree}
		for _, iv := range rec.Intervals {
			if clip(&iv.Start, &iv.End, from, to) {
				out.Intervals = append(out.Intervals, iv)
			}
		}
		// The horizon clips as [0, End], as the run's batch spans do
		// whenever the window holds an interval (no check reads it else).
		start, end := rat.Zero, rec.End
		if clip(&start, &end, from, to) {
			out.End = end
		}
		return &Evidence{rec: out}
	}
	out := &Evidence{}
	for _, sp := range ev.Spans {
		if clip(&sp.Start, &sp.End, from, to) {
			out.Spans = append(out.Spans, sp)
		}
	}
	return out
}

// clip clips [*start, *end] to the window [from, to), shifted so that
// from becomes 0, and reports whether the two overlap.
func clip(start, end *rat.R, from, to rat.R) bool {
	if end.LessEq(from) || to.LessEq(*start) {
		return false
	}
	*start = rat.Max(*start, from).Sub(from)
	*end = rat.Min(*end, to).Sub(from)
	return true
}
