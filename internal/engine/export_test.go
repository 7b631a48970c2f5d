package engine

import (
	"bwc/internal/sched"
	"bwc/internal/tree"
)

// Test accessors of the core's and the recorder's state.

// Buffered returns n's current buffered-task count (compute + send
// queues, tasks in service excluded) — the Section-6.3 metric.
func (c *Core) Buffered(n tree.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[n].held
}

// Bunches returns how many complete Ψ-bunches node n has consumed (full
// wraps of its cursor — Lemma-1 consuming periods).
func (c *Core) Bunches(n tree.NodeID) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[n].bunches
}

// Computes returns how many tasks node n computed.
func (r *Recorder) Computes(n tree.NodeID) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.computes[n]
}

// Routes returns a copy of node n's routing-decision stream.
func (r *Recorder) Routes(n tree.NodeID) []sched.Dest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sched.Dest(nil), r.routes[n]...)
}
