package bwfirst

// Incremental re-solve: the locality argument behind BW-First (each
// subtree's answer depends only on the weights inside it and on the
// proposal β it receives) means a platform delta does not force a
// whole-tree renegotiation. Only the nodes on the root-to-leaf spines
// above a changed weight can see different transactions; every subtree
// that contains no change and receives the same β as last time must
// answer with the same θ and the same internal activity variables, so
// its previous NodeStates can be copied verbatim. This is the
// distributed-procedure economy of Chakaravarthy et al.'s locality
// argument applied to re-solves: decisions stay confined to the
// affected part of the tree.

import (
	"fmt"

	"bwc/internal/rat"
	"bwc/internal/tree"
)

// SolvePruned runs the full BW-First procedure on t with the given
// nodes (and therefore their entire subtrees) excluded from the
// negotiation: no transaction is opened toward a pruned child, as for a
// crashed node no proposal can reach. Pruning the root is an error. A
// nil or empty pruned set reproduces Solve exactly.
func SolvePruned(t *tree.Tree, pruned []tree.NodeID) (*Result, error) {
	return SolveIncremental(nil, t, nil, pruned)
}

// SolveIncremental re-runs BW-First on t reusing as much of prev as the
// locality argument allows. dirty lists the nodes whose own weights
// changed relative to prev's platform (tree.DiffWeights); pruned lists
// the nodes whose subtrees must be excluded from the negotiation
// (crashed or quarantined). A child subtree is recomputed live when it
// contains a dirty node, when its pruned set changed, or when the
// proposal β it receives differs from the one recorded in prev;
// otherwise its previous states are copied wholesale. With prev == nil
// the entire tree is solved live (a full solve honoring pruned).
//
// The returned result's Nodes are equal to what a full SolvePruned on t
// would produce — schedules built from either are identical — but its
// Transactions list only the transactions of the live spine, and
// Reused/Recomputed report the split.
func SolveIncremental(prev *Result, t *tree.Tree, dirty, pruned []tree.NodeID) (*Result, error) {
	if t.Len() == 0 {
		return &Result{Tree: t, TMax: rat.Zero, Throughput: rat.Zero}, nil
	}
	root := t.Root()
	inc := &incremental{
		t:      t,
		prev:   prev,
		pruned: make([]bool, t.Len()),
	}
	for _, id := range pruned {
		if id == root {
			return nil, fmt.Errorf("bwfirst: cannot prune the root")
		}
		inc.pruned[id] = true
	}
	// subDirty marks every node whose subtree holds a change that could
	// alter its answer: a dirty weight, or a node whose pruned status
	// differs from prev's run.
	inc.subDirty = make([]bool, t.Len())
	for _, id := range dirty {
		inc.markDirty(id)
	}
	for id := 0; id < t.Len(); id++ {
		was := prev != nil && id < len(prev.pruned) && prev.pruned[id]
		if inc.pruned[id] != was {
			inc.markDirty(tree.NodeID(id))
		}
	}

	res := &Result{
		Tree:   t,
		Nodes:  make([]NodeState, t.Len()),
		pruned: inc.pruned,
		hasRet: t.HasResultReturn(),
	}
	res.TMax = t.Rate(root).Add(inc.maxLiveChildBandwidth(root))
	inc.res = res
	theta := inc.visit(root, res.TMax)
	res.Throughput = res.TMax.Sub(theta)
	for i := range res.Nodes {
		if res.Nodes[i].Visited {
			res.VisitedCount++
		}
	}
	return res, nil
}

// Recomputed returns how many nodes the last incremental solve visited
// live (the affected spine plus its recomputed subtrees); Reused
// returns how many node states were copied from the previous result.
// Both are zero for results not produced by SolveIncremental.
func (r *Result) Recomputed() int { return r.recomputed }
func (r *Result) Reused() int     { return r.reused }

// PrunedNode reports whether id was pruned from the negotiation when
// this result was produced (always false for plain Solve results).
func (r *Result) PrunedNode(id tree.NodeID) bool {
	return int(id) < len(r.pruned) && r.pruned[id]
}

type incremental struct {
	t        *tree.Tree
	prev     *Result
	pruned   []bool
	subDirty []bool
	res      *Result
}

// markDirty marks id and every ancestor: a change anywhere in a subtree
// dirties the whole chain up to the root.
func (inc *incremental) markDirty(id tree.NodeID) {
	for n := id; n != tree.None; n = inc.t.Parent(n) {
		if inc.subDirty[n] {
			return
		}
		inc.subDirty[n] = true
	}
}

// maxLiveChildBandwidth is tree.MaxChildBandwidth restricted to
// non-pruned children: the virtual parent's proposal must not count a
// link the negotiation will never use.
func (inc *incremental) maxLiveChildBandwidth(id tree.NodeID) rat.R {
	best := rat.Zero
	for _, c := range inc.t.Children(id) {
		if !inc.pruned[c] {
			best = rat.Max(best, inc.t.Bandwidth(c))
		}
	}
	return best
}

// reusable reports whether child c's previous answer can stand in for a
// live recursion under proposal beta: the subtree is clean, and prev
// recorded the same proposal (a visited node with equal λ, or an
// unvisited node for β the recursion would never have reached — that
// case cannot arise here because β is always proposed to a visited
// child or the parent was itself recomputed).
func (inc *incremental) reusable(c tree.NodeID, beta rat.R) bool {
	if inc.prev == nil || inc.subDirty[c] {
		return false
	}
	ps := &inc.prev.Nodes[c]
	return ps.Visited && ps.Lambda.Equal(beta)
}

// copySubtree installs prev's states for the whole subtree under c.
// The SendRates slices are shared with prev — results are immutable
// once returned, so sharing is safe and keeps the copy O(nodes).
func (inc *incremental) copySubtree(c tree.NodeID) {
	inc.t.Walk(c, func(n tree.NodeID) bool {
		inc.res.Nodes[n] = inc.prev.Nodes[n]
		if inc.prev.Nodes[n].Visited {
			inc.res.reused++
		}
		return true
	})
}

// visit is Algorithm 1 with pruning and subtree reuse: the live twin of
// Result.visit. Pruned children are skipped (no transaction, zero send
// rate); reusable children answer from the previous result.
func (inc *incremental) visit(id tree.NodeID, lambda rat.R) rat.R {
	t := inc.t
	st := &inc.res.Nodes[id]
	st.Visited = true
	st.Lambda = lambda
	st.SendRates = make([]rat.R, len(t.Children(id)))
	inc.res.recomputed++

	p := newPorts(t, id, inc.res.hasRet)
	st.Alpha = p.capLocal(rat.Min(t.Rate(id), lambda))
	delta := lambda.Sub(st.Alpha)

	children := t.Children(id)
	pos := make(map[tree.NodeID]int, len(children))
	for j, c := range children {
		pos[c] = j
	}

	for _, c := range childOrder(t, id, inc.res.hasRet) {
		if delta.IsZero() || p.exhausted() {
			break
		}
		if inc.pruned[c] {
			continue
		}
		sendCost, recvCost := p.childCosts(t, c)
		beta := p.propose(delta, sendCost, recvCost)
		if beta.IsZero() {
			continue
		}
		var thetaC rat.R
		if inc.reusable(c, beta) {
			inc.copySubtree(c)
			thetaC = inc.prev.Nodes[c].Theta
		} else {
			inc.res.Transactions = append(inc.res.Transactions,
				Transaction{Parent: id, Child: c, Beta: beta})
			txIdx := len(inc.res.Transactions) - 1
			thetaC = inc.visit(c, beta)
			inc.res.Transactions[txIdx].Theta = thetaC
		}
		accepted := beta.Sub(thetaC)
		st.SendRates[pos[c]] = accepted
		delta = delta.Sub(accepted)
		p.charge(accepted, sendCost, recvCost)
	}
	st.Theta = delta
	st.RecvRate = lambda.Sub(delta)
	p.finish(st)
	return delta
}
