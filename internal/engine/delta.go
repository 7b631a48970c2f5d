package engine

import (
	"bwc/internal/sched"
	"bwc/internal/tree"
)

// Delta hot-swap: an incremental re-solve (bwfirst.SolveIncremental)
// changes only the nodes on the affected spine, so zeroing every cursor
// would throw away Ψ-bunch positions that are still valid. InstallDelta
// preserves them: untouched nodes keep consuming exactly where they
// were, so a churn swap disturbs only the part of the platform the churn
// touched. Listing every node restarts every pattern.

// ChangedNodes compares two same-shaped schedules and returns the nodes
// whose deployed behavior differs: activity flipped, or the allocation
// pattern is not slot-for-slot identical. The result is the `changed`
// argument InstallDelta and the delta swap seams expect; nil means the
// schedules deploy identically.
func ChangedNodes(old, new *sched.Schedule) []tree.NodeID {
	var out []tree.NodeID
	for i := range new.Nodes {
		if !samePattern(&old.Nodes[i], &new.Nodes[i]) {
			out = append(out, tree.NodeID(i))
		}
	}
	return out
}

func samePattern(a, b *sched.NodeSchedule) bool {
	if a.Active != b.Active || len(a.Pattern) != len(b.Pattern) {
		return false
	}
	for i := range a.Pattern {
		if a.Pattern[i].Dest != b.Pattern[i].Dest {
			return false
		}
	}
	return true
}

// InstallDelta atomically switches the core to schedule s — the phase
// switch of a dynamic run. Every node is re-pointed at the new
// schedule's pattern slices, but only the changed nodes get their bunch
// cursor reset — an unchanged node's pattern is slot-for-slot identical,
// so its cursor position remains meaningful and its Ψ-bunch phase
// survives the swap. Callers pass the true delta (ChangedNodes), or
// every node to restart every pattern; a node whose pattern shrank but
// is not listed is reset defensively rather than indexed out of range.
// Nothing is drained first: tasks already in flight route through the
// new patterns when they arrive. Every listed ID must be a node of the
// platform.
func (c *Core) InstallDelta(s *sched.Schedule, changed []tree.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hasRet = s.ResultReturn || s.Tree.HasResultReturn()
	reset := make([]bool, len(c.nodes))
	for _, id := range changed {
		reset[id] = true
	}
	for i := range c.nodes {
		n := &c.nodes[i]
		n.pattern = s.Nodes[i].Pattern
		if reset[i] || n.cursor >= len(n.pattern) {
			n.cursor = 0
		}
	}
}
