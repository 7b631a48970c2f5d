// Package paperexample provides the 12-node platform used throughout the
// Section 8 reproduction (experiments E3 and E4).
//
// The paper's Figure 4 tree is "taken from [4]" and its node/edge weights
// live only in a bitmap, so they are not recoverable from the text. This
// package substitutes a tree constructed to satisfy every *published*
// invariant of Section 8 exactly:
//
//   - BW-First throughput is 10 tasks every 9 time units (10/9);
//   - nodes P5, P9, P10 and P11 are not visited by the procedure
//     (bandwidth-limited subtrees, pruned by the depth-first traversal);
//   - the steady-state period of the whole tree is T = 360;
//   - the rootless tree delegates 40 tasks every 40 time units (rate 1).
//
// A fifth, qualitative Section 8 property also guided the construction:
// the wind-down phase must be much shorter than the rootless period, so
// every physical weight (w, c) is kept small — no link or processor needs
// tens of time units per task.
//
// Derivation sketch (all checked by the package tests): the root P0 (w=9)
// saturates its send port feeding P1 (c=1/2) and P2 (c=3/2) half a task
// per unit each, so P5 is never offered anything. P1's subtree consumes
// 1/2 = 1/8 (itself) + 1/8 (P3) + 1/5 (P4) + 1/20 (P8); the proposal to
// P4 is bandwidth-capped at exactly 1/4, P4 keeps 1/5 and P8 absorbs the
// remaining 1/20. P2's subtree consumes 1/2 = 1/4 + 1/5 (P6) + 1/20 (P7);
// P7 computes everything it is offered, so its children P10 and P11 are
// skipped, and P2 runs out of tasks (δ = 0) before reaching P9. The
// per-node periods are lcm{18, 8, 8, 40, 20, 20, 20, 20} = 360 for the
// tree and 40 for the rootless tree.
package paperexample

import (
	"bwc/internal/rat"
	"bwc/internal/tree"
)

// Tree builds the 12-node Section 8 platform.
func Tree() *tree.Tree {
	return tree.NewBuilder().
		Root("P0", rat.FromInt(9)).
		Child("P0", "P1", rat.New(1, 2), rat.FromInt(8)).
		Child("P0", "P2", rat.New(3, 2), rat.FromInt(4)).
		Child("P0", "P5", rat.FromInt(2), rat.FromInt(1)). // fast CPU, starved by the root's port
		Child("P1", "P3", rat.FromInt(2), rat.FromInt(8)).
		Child("P1", "P4", rat.FromInt(3), rat.FromInt(5)).
		Child("P4", "P8", rat.FromInt(2), rat.FromInt(2)).
		Child("P2", "P6", rat.FromInt(2), rat.FromInt(5)).
		Child("P2", "P7", rat.FromInt(4), rat.FromInt(5)).
		Child("P2", "P9", rat.FromInt(5), rat.FromInt(1)).  // never reached: P2 runs out of tasks
		Child("P7", "P10", rat.FromInt(1), rat.FromInt(2)). // never reached: P7 keeps everything
		Child("P7", "P11", rat.FromInt(2), rat.FromInt(2)). // never reached
		MustBuild()
}

// Expected invariants of the platform (the Section 8 numbers).
var (
	// Throughput is the optimal steady-state rate: 10 tasks / 9 units.
	Throughput = rat.New(10, 9)
	// TMax is the virtual parent's proposal to P0: r_0 + max b = 19/9.
	TMax = rat.New(19, 9)
	// TreePeriod is the synchronized steady-state period of the tree.
	TreePeriod int64 = 360
	// RootlessPeriod is the period of the tree without its root.
	RootlessPeriod int64 = 40
	// RootlessRate is the root's delegation rate: 40 tasks / 40 units.
	RootlessRate = rat.One
	// Unvisited lists the nodes BW-First never reaches.
	Unvisited = []string{"P5", "P9", "P10", "P11"}
	// StopAt is the arbitrary steady-state instant at which Section 8
	// stops delegating tasks to observe the wind-down.
	StopAt = rat.FromInt(115)
)
