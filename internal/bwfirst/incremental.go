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

	"bwc/internal/obs"
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
	return solve(prev, t, dirty, pruned, nil)
}

// Recomputed returns how many nodes the solve visited live (the whole
// visited set for a full solve, the affected spine plus its recomputed
// subtrees for an incremental one); Reused returns how many node states
// were copied from the previous result.
func (r *Result) Recomputed() int { return r.recomputed }
func (r *Result) Reused() int     { return r.reused }

// PrunedNode reports whether id was pruned from the negotiation when
// this result was produced (always false for plain Solve results).
func (r *Result) PrunedNode(id tree.NodeID) bool {
	return int(id) < len(r.pruned) && r.pruned[id]
}

// solver is the in-process driver of Step behind Solve, SolveObserved,
// SolvePruned and SolveIncremental: its ask answers a child by pruning,
// by reuse from prev, or by one live transaction that recurses.
type solver struct {
	t        *tree.Tree
	res      *Result
	hasRet   bool
	prev     *Result
	subDirty []bool // nil when prev is nil: nothing can be reused

	// sc and txCtr are the (possibly disabled) instrumentation of
	// SolveObserved; spans and counters are touched only when enabled.
	sc    *obs.Scope
	txCtr *obs.Counter
}

// solve runs BW-First on t, honoring pruned and reusing prev's clean
// subtrees, and records spans and metrics on sc when it is enabled.
func solve(prev *Result, t *tree.Tree, dirty, pruned []tree.NodeID, sc *obs.Scope) (*Result, error) {
	if t.Len() == 0 {
		return &Result{Tree: t, TMax: rat.Zero, Throughput: rat.Zero}, nil
	}
	root := t.Root()
	res := &Result{Tree: t, Nodes: make([]NodeState, t.Len())}
	if len(pruned) > 0 {
		res.pruned = make([]bool, t.Len())
		for _, id := range pruned {
			if id == root {
				return nil, fmt.Errorf("bwfirst: cannot prune the root")
			}
			res.pruned[id] = true
		}
	}
	s := &solver{t: t, res: res, hasRet: t.HasResultReturn(), prev: prev, sc: sc}
	if prev != nil {
		// subDirty marks every node whose subtree holds a change that
		// could alter its answer: a dirty weight, or a node whose pruned
		// status differs from prev's run.
		s.subDirty = make([]bool, t.Len())
		for _, id := range dirty {
			s.markDirty(id)
		}
		for id := tree.NodeID(0); int(id) < t.Len(); id++ {
			if res.PrunedNode(id) != prev.PrunedNode(id) {
				s.markDirty(id)
			}
		}
	}

	// Virtual parent: t_max = r_root + max child bandwidth (Section 5,
	// proof of Proposition 2), over the children the negotiation can use.
	res.TMax = t.Rate(root).Add(s.maxLiveChildBandwidth(root))
	var span obs.SpanID
	if sc.Enabled() {
		s.txCtr = sc.Registry().Counter("bwc_bwfirst_transactions_total",
			"closed BW-First transactions (sequential reference)")
		span = sc.StartSpan("negotiate "+t.Name(root), "bwfirst", 0)
	}
	res.Throughput = res.TMax.Sub(s.visit(root, res.TMax, span))
	res.VisitedCount = res.recomputed + res.reused
	if sc.Enabled() {
		sc.EndSpan(span,
			obs.A("t_max", res.TMax.String()),
			obs.A("throughput", res.Throughput.String()))
		s.txCtr.Inc() // the virtual parent's transaction
		sc.Registry().Gauge("bwc_bwfirst_visited_nodes",
			"nodes visited by the sequential BW-First run").Set(int64(res.VisitedCount))
	}
	return res, nil
}

// visit runs Step live at id under proposal lambda; span is the
// transaction that proposed to id, under which its own are parented.
func (s *solver) visit(id tree.NodeID, lambda rat.R, span obs.SpanID) rat.R {
	s.res.recomputed++
	return Step(s.t, id, lambda, s.hasRet, &s.res.Nodes[id], func(c tree.NodeID, beta rat.R) rat.R {
		return s.ask(id, c, beta, span)
	})
}

// ask answers parent's proposal β to child c. A pruned child takes
// nothing and opens no transaction; a clean subtree offered the β it
// saw last time answers from prev; any other child is one live
// transaction.
func (s *solver) ask(parent, c tree.NodeID, beta rat.R, span obs.SpanID) rat.R {
	if s.res.PrunedNode(c) {
		return beta
	}
	if s.reusable(c, beta) {
		s.copySubtree(c)
		return s.prev.Nodes[c].Theta
	}
	txIdx := len(s.res.Transactions)
	s.res.Transactions = append(s.res.Transactions, Transaction{Parent: parent, Child: c, Beta: beta})
	var txSpan obs.SpanID
	if s.sc.Enabled() {
		txSpan = s.sc.StartSpan("tx "+s.t.Name(parent)+"→"+s.t.Name(c), "bwfirst", span)
	}
	theta := s.visit(c, beta, txSpan)
	s.res.Transactions[txIdx].Theta = theta
	if s.sc.Enabled() {
		s.sc.EndSpan(txSpan, obs.A("beta", beta.String()), obs.A("theta", theta.String()))
		s.txCtr.Inc()
	}
	return theta
}

// markDirty marks id and every ancestor: a change anywhere in a subtree
// dirties the whole chain up to the root.
func (s *solver) markDirty(id tree.NodeID) {
	for n := id; n != tree.None; n = s.t.Parent(n) {
		if s.subDirty[n] {
			return
		}
		s.subDirty[n] = true
	}
}

// maxLiveChildBandwidth is tree.MaxChildBandwidth restricted to
// non-pruned children: the virtual parent's proposal must not count a
// link the negotiation will never use.
func (s *solver) maxLiveChildBandwidth(id tree.NodeID) rat.R {
	best := rat.Zero
	for _, c := range s.t.Children(id) {
		if !s.res.PrunedNode(c) {
			best = rat.Max(best, s.t.Bandwidth(c))
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
func (s *solver) reusable(c tree.NodeID, beta rat.R) bool {
	if s.subDirty == nil || s.subDirty[c] {
		return false
	}
	ps := &s.prev.Nodes[c]
	return ps.Visited && ps.Lambda.Equal(beta)
}

// copySubtree installs prev's states for the whole subtree under c.
// The SendRates slices are shared with prev — results are immutable
// once returned, so sharing is safe and keeps the copy O(nodes).
func (s *solver) copySubtree(c tree.NodeID) {
	s.t.Walk(c, func(n tree.NodeID) bool {
		s.res.Nodes[n] = s.prev.Nodes[n]
		if s.prev.Nodes[n].Visited {
			s.res.reused++
		}
		return true
	})
}
