// Package trace records the activity of a simulated platform run: the
// Send/Compute/Receive intervals of every node (the rows of the paper's
// Figure 5 Gantt diagram) plus task completion events, and provides the
// post-processing used by the experiments — throughput per period, start-up
// detection, wind-down length, and buffer occupancy statistics.
package trace

import (
	"fmt"
	"sort"

	"bwc/internal/rat"
	"bwc/internal/tree"
)

// Kind classifies an activity interval.
type Kind int

const (
	// Send is an outgoing transmission occupying the node's send port.
	Send Kind = iota
	// Compute is task execution occupying the node's processor.
	Compute
	// Recv is an incoming transmission occupying the node's receive port.
	Recv
)

// String returns the one-letter code used in Figure 5.
func (k Kind) String() string {
	switch k {
	case Send:
		return "S"
	case Compute:
		return "C"
	case Recv:
		return "R"
	default:
		return "?"
	}
}

// Interval is one busy period of one resource of one node.
type Interval struct {
	Node  tree.NodeID
	Kind  Kind
	Start rat.R
	End   rat.R
	// Peer is the other endpoint for Send/Recv (tree.None for Compute).
	Peer tree.NodeID
}

// Completion records one task finishing execution.
type Completion struct {
	Node tree.NodeID
	At   rat.R
}

// BufferSample records the number of tasks held at a node when it changed.
type BufferSample struct {
	Node tree.NodeID
	At   rat.R
	Held int
}

// Trace accumulates a run's activity.
type Trace struct {
	Tree        *tree.Tree
	Intervals   []Interval
	Completions []Completion
	Buffers     []BufferSample
	// End is the time the simulation finished (all work drained).
	End rat.R
}

// AddInterval appends an activity interval.
func (tr *Trace) AddInterval(iv Interval) { tr.Intervals = append(tr.Intervals, iv) }

// AddCompletion appends a completion event.
func (tr *Trace) AddCompletion(n tree.NodeID, at rat.R) {
	tr.Completions = append(tr.Completions, Completion{Node: n, At: at})
}

// AddBufferSample appends a buffer-occupancy change.
func (tr *Trace) AddBufferSample(n tree.NodeID, at rat.R, held int) {
	tr.Buffers = append(tr.Buffers, BufferSample{Node: n, At: at, Held: held})
}

// TotalCompleted returns the number of completed tasks.
func (tr *Trace) TotalCompleted() int { return len(tr.Completions) }

// CompletedIn counts completions with from <= t < to.
func (tr *Trace) CompletedIn(from, to rat.R) int {
	n := 0
	for _, c := range tr.Completions {
		if !c.At.Less(from) && c.At.Less(to) {
			n++
		}
	}
	return n
}

// PeriodCounts splits [0, horizon) into consecutive windows of length
// period and returns the completion count of each full window.
func (tr *Trace) PeriodCounts(period rat.R, horizon rat.R) []int {
	if !period.IsPos() {
		return nil
	}
	var out []int
	start := rat.Zero
	for {
		end := start.Add(period)
		if horizon.Less(end) {
			return out
		}
		out = append(out, tr.CompletedIn(start, end))
		start = end
	}
}

// SteadyStart returns the start of the first window of length period from
// which every subsequent full window before horizon completes exactly
// perPeriod tasks. The boolean is false when no such window exists. Windows
// are anchored at multiples of period, matching Proposition 4's
// period-boundary reasoning.
func (tr *Trace) SteadyStart(period rat.R, perPeriod int, horizon rat.R) (rat.R, bool) {
	counts := tr.PeriodCounts(period, horizon)
	// Find the last window that is NOT at the steady rate.
	lastBad := -1
	for i, c := range counts {
		if c != perPeriod {
			lastBad = i
		}
	}
	if lastBad == len(counts)-1 {
		return rat.Zero, false // never settles (or settles only past horizon)
	}
	return period.Mul(rat.FromInt(int64(lastBad + 1))), true
}

// MaxBufferHeld returns the maximum buffer occupancy each node reached,
// indexed by NodeID (nodes without samples report 0).
func (tr *Trace) MaxBufferHeld() []int {
	out := make([]int, tr.Tree.Len())
	for _, s := range tr.Buffers {
		if s.Held > out[s.Node] {
			out[s.Node] = s.Held
		}
	}
	return out
}

// BufferAt returns the buffer occupancy of node at time t (the last sample
// at or before t).
func (tr *Trace) BufferAt(node tree.NodeID, t rat.R) int {
	held := 0
	for _, s := range tr.Buffers {
		if s.Node != node {
			continue
		}
		if t.Less(s.At) {
			break
		}
		held = s.Held
	}
	return held
}

// LastCompletion returns the time of the last completed task (zero, false
// when none completed).
func (tr *Trace) LastCompletion() (rat.R, bool) {
	if len(tr.Completions) == 0 {
		return rat.Zero, false
	}
	best := tr.Completions[0].At
	for _, c := range tr.Completions[1:] {
		best = rat.Max(best, c.At)
	}
	return best, true
}

// Validate checks the physical feasibility of the trace under the
// single-port full-overlap model: for every node, its Send intervals must
// not overlap each other, likewise Compute and Recv; interval bounds must
// be ordered; Recv intervals must mirror the parent's Send intervals.
func (tr *Trace) Validate() error {
	perNode := map[tree.NodeID]map[Kind][]Interval{}
	for _, iv := range tr.Intervals {
		if iv.End.Less(iv.Start) {
			return fmt.Errorf("trace: interval ends before it starts: %+v", iv)
		}
		m := perNode[iv.Node]
		if m == nil {
			m = map[Kind][]Interval{}
			perNode[iv.Node] = m
		}
		m[iv.Kind] = append(m[iv.Kind], iv)
	}
	for node, kinds := range perNode {
		for kind, ivs := range kinds {
			sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start.Less(ivs[j].Start) })
			for i := 1; i < len(ivs); i++ {
				if ivs[i].Start.Less(ivs[i-1].End) {
					return fmt.Errorf("trace: node %s: overlapping %s intervals [%s,%s) and [%s,%s)",
						tr.Tree.Name(node), kind,
						ivs[i-1].Start, ivs[i-1].End, ivs[i].Start, ivs[i].End)
				}
			}
		}
	}
	return nil
}

// BusyTime sums the durations of the node's intervals of the given kind
// that intersect [from, to), clipped to the window.
func (tr *Trace) BusyTime(node tree.NodeID, kind Kind, from, to rat.R) rat.R {
	busy := rat.Zero
	for _, iv := range tr.Intervals {
		if iv.Node != node || iv.Kind != kind {
			continue
		}
		s := rat.Max(iv.Start, from)
		e := rat.Min(iv.End, to)
		if s.Less(e) {
			busy = busy.Add(e.Sub(s))
		}
	}
	return busy
}
