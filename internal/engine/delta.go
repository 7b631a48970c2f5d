package engine

import (
	"bwc/internal/sched"
	"bwc/internal/tree"
)

// Delta hot-swap: an incremental re-solve (bwfirst.SolveIncremental)
// changes only the nodes on the affected spine, so restarting every
// cursor would throw away Ψ-bunch positions that are still valid.
// InstallDelta preserves them: untouched nodes keep consuming exactly
// where they were, so a churn swap disturbs only the part of the
// platform the churn touched. Listing every node restarts every bunch.

// ChangedNodes compares two same-shaped schedules and returns the nodes
// whose deployed behavior differs: activity, ψ vector or ordering
// strategy. The result is the `changed` argument InstallDelta and the
// delta swap seams expect; nil means the schedules deploy identically.
func ChangedNodes(old, new *sched.Schedule) []tree.NodeID {
	var out []tree.NodeID
	for i := range new.Nodes {
		if !sameOrder(old, new, i) {
			out = append(out, tree.NodeID(i))
		}
	}
	return out
}

// sameOrder reports whether node i deploys alike under both schedules.
func sameOrder(a, b *sched.Schedule, i int) bool {
	x, y := &a.Nodes[i], &b.Nodes[i]
	if x.Active != y.Active || a.Block != b.Block || x.Psi0.Cmp(y.Psi0) != 0 || len(x.Psi) != len(y.Psi) {
		return false
	}
	for j := range x.Psi {
		if x.Psi[j].Cmp(y.Psi[j]) != 0 {
			return false
		}
	}
	return true
}

// InstallDelta atomically switches the core to schedule s — the phase
// switch of a dynamic run. The nodes listed in changed (ChangedNodes, or
// every node) restart their bunch; an unlisted node keeps its cursor if
// its order is unchanged, so its Ψ-bunch phase survives the swap, and
// otherwise resumes the new order at its old index, or at 0 past the new
// Ψ. Nothing is drained first: tasks in flight route through the new
// orders when they arrive. Every listed ID must be a node of the platform.
func (c *Core) InstallDelta(s *sched.Schedule, changed []tree.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hasRet = s.ResultReturn || s.Tree.HasResultReturn()
	reset := make([]bool, len(c.nodes))
	for _, id := range changed {
		reset[id] = true
	}
	c.install(s, reset)
}

// install points the nodes at schedule s (see InstallDelta; on the
// first install every node starts afresh). The new cursors share one
// array of heads, room for one per child and Self at each node with a
// bunch. Called with the lock held, or before the core runs.
func (c *Core) install(s *sched.Schedule, reset []bool) {
	keep := func(i int) bool { return c.s != nil && !reset[i] && sameOrder(c.s, s, i) }
	// A node with a bunch gets room for a head per child and for Self.
	room := func(i int) int { return s.Nodes[i].Bunch.Sign() * (len(s.Nodes[i].Psi) + 1) }
	n := 0
	for i := range c.nodes {
		if !keep(i) {
			n += room(i)
		}
	}
	heads := make([]sched.Slot, n)
	for i := range c.nodes {
		if keep(i) {
			continue
		}
		ns, d, at := &c.nodes[i], room(i), c.nodes[i].cur.Index()
		ns.cur = s.Cursor(tree.NodeID(i), heads[:0:d])
		heads = heads[d:]
		if c.s != nil && !reset[i] && at < ns.cur.Len() {
			ns.cur.SetIndex(at)
		}
	}
	c.s = s
}
