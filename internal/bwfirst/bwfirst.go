// Package bwfirst implements the paper's central contribution: the
// BW-First() procedure (Section 5, Algorithm 1, Proposition 2) — a
// depth-first traversal of the platform tree driven by two-phase
// transactions that computes the maximum steady-state throughput while
// visiting only the nodes that are actually used by the optimal schedule.
//
// A transaction between a parent and a child is a proposal β (tasks per
// time unit the parent can supply) answered by an acknowledgment θ (tasks
// per time unit the child's subtree could not consume). Each node keeps as
// many tasks as it can compute (α = min(r, λ)), then opens transactions
// with its children in bandwidth-centric order (increasing communication
// time) while it still has undelegated tasks (δ > 0) and send-port time
// (τ > 0). The proposal to child i is β_i = min(δ, τ·b_i), and after the
// child acknowledges θ_i the parent updates δ -= (β_i−θ_i) and
// τ -= (β_i−θ_i)·c_i.
//
// The root is fed by a virtual parent proposing
// t_max = r_root + max{b_i | i ∈ children(root)}, an upper bound on what
// the whole tree can consume under the single-port model; the optimal
// throughput is t_max − θ_root.
//
// # Result-return generalization (Section 9)
//
// When the platform carries result-return times d_i
// (tree.HasResultReturn), the procedure co-schedules both flows on the
// same two single ports: a node's send port carries outgoing tasks AND
// the results of every task its subtree consumed heading up (d_i per
// task), its receive port carries incoming tasks AND the results
// returning from its children (d_j per task delegated to child j). Each
// node therefore keeps two port budgets, τ_send and τ_recv; a local task
// costs (c_i recv, d_i send), a task delegated to child j costs
// (c_j + d_i send, c_i + d_j recv), and children are visited in
// increasing round-trip time c_j + d_j. With d ≡ 0 every extra term
// vanishes and the procedure reduces exactly — value for value,
// transaction for transaction — to Algorithm 1; that reduction is pinned
// by tests. On return platforms the greedy is a feasible heuristic
// cross-checked against the exact LP (internal/lp); on forward-only
// platforms it remains the paper's optimal procedure.
package bwfirst

import (
	"fmt"
	"slices"
	"strings"

	"bwc/internal/obs"
	"bwc/internal/rat"
	"bwc/internal/tree"
)

// Transaction records one closed two-phase transaction of the procedure,
// in the order the transactions were opened (the depth-first order of
// Figure 4(b)).
type Transaction struct {
	Parent tree.NodeID
	Child  tree.NodeID
	Beta   rat.R // proposal: tasks/unit offered to Child
	Theta  rat.R // acknowledgment: tasks/unit Child's subtree could not take
}

// Accepted returns β − θ, the task rate the child's subtree consumes.
func (tr Transaction) Accepted() rat.R { return tr.Beta.Sub(tr.Theta) }

// NodeState holds the rational activity variables a node knows at the end
// of the procedure — exactly the local information from which Section 6
// reconstructs the schedule.
type NodeState struct {
	Visited bool
	// Lambda is the proposal the node received from its parent (t_max for
	// the root).
	Lambda rat.R
	// Alpha is the node's own computing rate in the optimal steady state
	// (η_0 in Section 6).
	Alpha rat.R
	// Theta is the acknowledgment returned to the parent.
	Theta rat.R
	// RecvRate is η_{-1} = λ − θ, the tasks per time unit the node
	// receives from its parent in steady state.
	RecvRate rat.R
	// SendRates[j] is η_j, the tasks per time unit sent to the j-th child
	// (indexed like tree.Children(id), i.e. insertion order).
	SendRates []rat.R
	// TauLeft is the unused fraction of the node's send port (which on
	// result-return platforms also carries the subtree's results upward).
	TauLeft rat.R
	// TauRecvLeft is the unused fraction of the node's receive port
	// (incoming tasks plus, on result-return platforms, the children's
	// returning results).
	TauRecvLeft rat.R
}

// Result is the outcome of running BW-First on a tree.
type Result struct {
	Tree *tree.Tree
	// TMax is the virtual parent's proposal to the root.
	TMax rat.R
	// Throughput is the optimal steady-state task rate of the tree:
	// TMax − θ_root.
	Throughput rat.R
	// Nodes is indexed by tree.NodeID.
	Nodes []NodeState
	// Transactions lists every closed transaction in opening order.
	Transactions []Transaction
	// VisitedCount is the number of nodes the procedure visited; nodes
	// not visited take no part in the final schedule (their subtree can be
	// pruned without changing the throughput).
	VisitedCount int

	// pruned marks the nodes excluded from the negotiation (SolvePruned /
	// SolveIncremental); nil when nothing was pruned. recomputed and
	// reused split the visited nodes into live-visited and
	// copied-from-previous (see Recomputed / Reused).
	pruned     []bool
	recomputed int
	reused     int
}

// Visited reports whether node id was visited by the procedure.
func (r *Result) Visited(id tree.NodeID) bool { return r.Nodes[id].Visited }

// UnvisitedNodes returns the nodes the traversal never reached, in ID
// order.
func (r *Result) UnvisitedNodes() []tree.NodeID {
	var out []tree.NodeID
	for id := range r.Nodes {
		if !r.Nodes[id].Visited {
			out = append(out, tree.NodeID(id))
		}
	}
	return out
}

// SendRate returns η for the edge parent(child)->child.
func (r *Result) SendRate(child tree.NodeID) rat.R {
	p := r.Tree.Parent(child)
	if p == tree.None {
		return rat.Zero
	}
	for j, c := range r.Tree.Children(p) {
		if c == child {
			return r.Nodes[p].SendRates[j]
		}
	}
	panic("bwfirst: child not found under its parent")
}

// Solve runs the BW-First procedure on t and returns the complete result.
func Solve(t *tree.Tree) *Result { return SolveObserved(t, nil) }

// SolveObserved is Solve with instrumentation: when sc is enabled, every
// two-phase transaction (the virtual parent's included) becomes one span
// on the "bwfirst" track, parented under the proposing transaction, and
// the transaction and visited-node counts are published as metrics. A nil
// scope costs one nil check per transaction.
func SolveObserved(t *tree.Tree, sc *obs.Scope) *Result {
	res, _ := solve(nil, t, nil, nil, sc) // nothing pruned: cannot fail
	return res
}

// ports holds the per-node generalized budgets and unit costs of one
// visit: with d ≡ 0 its math reduces exactly to Algorithm 1's single τ.
type ports struct {
	hasRet     bool
	ci, di     rat.R // c_i (recv per consumed task), d_i (send per result up)
	tauS, tauR rat.R // remaining send / receive port time
}

func newPorts(t *tree.Tree, id tree.NodeID, hasRet bool) ports {
	p := ports{hasRet: hasRet, tauS: rat.One, tauR: rat.One}
	if t.Parent(id) != tree.None {
		p.ci = t.CommTime(id)
		if hasRet {
			p.di = t.ReturnTime(id)
		}
	}
	return p
}

// capLocal bounds the node's own compute rate by its ports: each local
// task occupies c_i on the receive port and d_i on the send port.
// Forward-only trees skip it — there λ ≤ b_i already implies the bound.
func (p *ports) capLocal(alpha rat.R) rat.R {
	if !p.hasRet {
		return alpha
	}
	if p.ci.IsPos() {
		alpha = rat.Min(alpha, p.tauR.Div(p.ci))
	}
	if p.di.IsPos() {
		alpha = rat.Min(alpha, p.tauS.Div(p.di))
	}
	p.tauR = p.tauR.Sub(alpha.Mul(p.ci))
	p.tauS = p.tauS.Sub(alpha.Mul(p.di))
	return alpha
}

// childCosts returns the port time one task delegated to child c costs
// this node: sendCost on the send port (task down + own result up),
// recvCost on the receive port (task in + child's result back).
func (p *ports) childCosts(t *tree.Tree, c tree.NodeID) (sendCost, recvCost rat.R) {
	sendCost = t.CommTime(c)
	if p.hasRet {
		sendCost = sendCost.Add(p.di)
		recvCost = p.ci.Add(t.ReturnTime(c))
	}
	return sendCost, recvCost
}

// propose computes the proposal β to a child with the given per-task
// costs: the undelegated rate clipped to what both ports can carry.
func (p *ports) propose(delta, sendCost, recvCost rat.R) rat.R {
	beta := rat.Min(delta, p.tauS.Div(sendCost))
	if p.hasRet && recvCost.IsPos() {
		beta = rat.Min(beta, p.tauR.Div(recvCost))
	}
	return beta
}

// charge books an accepted child rate on both ports.
func (p *ports) charge(accepted, sendCost, recvCost rat.R) {
	p.tauS = p.tauS.Sub(accepted.Mul(sendCost))
	if p.hasRet {
		p.tauR = p.tauR.Sub(accepted.Mul(recvCost))
	}
}

// exhausted reports whether no further proposal can be non-zero.
func (p *ports) exhausted() bool {
	if p.tauS.IsZero() {
		return true
	}
	return p.hasRet && p.tauR.IsZero() && p.ci.IsPos()
}

// finish records the leftover budgets in the node state. Forward-only
// trees never tracked τ_recv during the loop; its leftover is derived
// from the consumed rate so invariant checks see one uniform accounting.
func (p *ports) finish(st *NodeState) {
	st.TauLeft = p.tauS
	if p.hasRet {
		st.TauRecvLeft = p.tauR
	} else {
		st.TauRecvLeft = rat.One.Sub(st.RecvRate.Mul(p.ci))
	}
}

// Step is Algorithm 1 at one node: the local rule every node runs in
// Section 5. Given its parent's proposal λ, the node keeps α = min(r, λ)
// (bounded by its ports on result-return platforms, hasRet), then
// proposes β to its children in bandwidth-centric order while tasks and
// port time remain, and books β − θ for each acknowledgment θ that ask
// returns. Step fills st with the node's activity variables and returns
// its own acknowledgment. The in-process solver and the distributed
// protocol's node actors both run it and differ only in ask: a
// recursion, a reused subtree, or a proposal sent over a channel.
func Step(t *tree.Tree, id tree.NodeID, lambda rat.R, hasRet bool, st *NodeState,
	ask func(c tree.NodeID, beta rat.R) rat.R) rat.R {
	children := t.Children(id)
	st.Visited = true
	st.Lambda = lambda
	st.SendRates = make([]rat.R, len(children))

	// Keep as many tasks as possible for local computation.
	p := newPorts(t, id, hasRet)
	st.Alpha = p.capLocal(rat.Min(t.Rate(id), lambda))
	delta := lambda.Sub(st.Alpha) // tasks still to delegate

	for _, j := range childOrder(t, id, hasRet) {
		if delta.IsZero() || p.exhausted() {
			break
		}
		c := children[j]
		sendCost, recvCost := p.childCosts(t, c)
		beta := p.propose(delta, sendCost, recvCost)
		if beta.IsZero() {
			continue
		}
		accepted := beta.Sub(ask(c, beta))
		st.SendRates[j] = accepted
		delta = delta.Sub(accepted)
		p.charge(accepted, sendCost, recvCost)
	}
	st.Theta = delta
	st.RecvRate = lambda.Sub(delta)
	p.finish(st)
	return delta
}

// childOrder returns the positions in tree.Children(id) in
// bandwidth-centric visiting order: increasing c_j on forward-only trees
// (Section 4), increasing round-trip c_j + d_j on result-return trees,
// ties in insertion order.
func childOrder(t *tree.Tree, id tree.NodeID, hasRet bool) []int {
	children := t.Children(id)
	if len(children) == 0 {
		return nil
	}
	order := make([]int, len(children))
	for j := range order {
		order[j] = j
	}
	cost := func(j int) rat.R {
		c := t.CommTime(children[j])
		if hasRet {
			c = c.Add(t.ReturnTime(children[j]))
		}
		return c
	}
	slices.SortStableFunc(order, func(a, b int) int { return cost(a).Cmp(cost(b)) })
	return order
}

// ConsumeRate returns the total rate the node's subtree consumes:
// η_{-1} = α + Σ_j η_j (the conservation law, equation (1)).
func (s NodeState) ConsumeRate() rat.R {
	sum := s.Alpha
	for _, v := range s.SendRates {
		sum = sum.Add(v)
	}
	return sum
}

// CheckInvariants verifies, for every node, the steady-state conservation
// law (received = computed + forwarded), port feasibility — send port
// Σ c_j·η_j + d_i·η_{-1} ≤ 1 and receive port c_i·η_{-1} + Σ d_j·η_j ≤ 1,
// the Section-9 generalized single-port constraints, which reduce to the
// paper's forward-only ones when d ≡ 0 — and rate feasibility (α ≤ r).
// It returns nil when the result is a feasible steady state description.
func (r *Result) CheckInvariants() error {
	t := r.Tree
	for id := 0; id < t.Len(); id++ {
		st := r.Nodes[id]
		nid := tree.NodeID(id)
		if !st.Visited {
			if !st.Alpha.IsZero() || !st.RecvRate.IsZero() {
				return fmt.Errorf("node %s: unvisited but active", t.Name(nid))
			}
			continue
		}
		if t.Rate(nid).Less(st.Alpha) {
			return fmt.Errorf("node %s: α=%s exceeds rate %s", t.Name(nid), st.Alpha, t.Rate(nid))
		}
		if !st.ConsumeRate().Equal(st.RecvRate) {
			return fmt.Errorf("node %s: conservation law violated: recv %s != consume %s",
				t.Name(nid), st.RecvRate, st.ConsumeRate())
		}
		di, ci := rat.Zero, rat.Zero
		if nid != t.Root() {
			di, ci = t.ReturnTime(nid), t.CommTime(nid)
		}
		spent := di.Mul(st.RecvRate) // the subtree's results heading up
		spentRecv := ci.Mul(st.RecvRate)
		for j, c := range t.Children(nid) {
			if st.SendRates[j].IsNeg() {
				return fmt.Errorf("node %s: negative send rate to %s", t.Name(nid), t.Name(c))
			}
			spent = spent.Add(st.SendRates[j].Mul(t.CommTime(c)))
			spentRecv = spentRecv.Add(st.SendRates[j].Mul(t.ReturnTime(c)))
		}
		if rat.One.Less(spent) {
			return fmt.Errorf("node %s: send port oversubscribed: %s > 1", t.Name(nid), spent)
		}
		if !spent.Add(st.TauLeft).Equal(rat.One) {
			return fmt.Errorf("node %s: τ accounting broken: %s + %s != 1", t.Name(nid), spent, st.TauLeft)
		}
		if rat.One.Less(spentRecv) {
			return fmt.Errorf("node %s: receive port oversubscribed: %s > 1", t.Name(nid), spentRecv)
		}
		if !spentRecv.Add(st.TauRecvLeft).Equal(rat.One) {
			return fmt.Errorf("node %s: τ_recv accounting broken: %s + %s != 1", t.Name(nid), spentRecv, st.TauRecvLeft)
		}
	}
	// Throughput equals the total computed rate.
	total := rat.Zero
	for id := 0; id < t.Len(); id++ {
		total = total.Add(r.Nodes[id].Alpha)
	}
	if !total.Equal(r.Throughput) {
		return fmt.Errorf("throughput %s != Σα %s", r.Throughput, total)
	}
	return nil
}

// TranscriptString renders the transaction log like Figure 4(b): one line
// per transaction in opening order.
func (r *Result) TranscriptString() string {
	var b strings.Builder
	for i, tx := range r.Transactions {
		fmt.Fprintf(&b, "%2d. %s -> %s: propose β=%s, ack θ=%s (accepted %s)\n",
			i+1, r.Tree.Name(tx.Parent), r.Tree.Name(tx.Child), tx.Beta, tx.Theta, tx.Accepted())
	}
	return b.String()
}

// Bottleneck identifies a saturated resource in the optimal steady state.
type Bottleneck struct {
	Node tree.NodeID
	// Kind is "cpu" when the node computes at its full rate (α = r), or
	// "port" when its send port is fully booked (τ = 0).
	Kind string
}

// Bottlenecks lists the saturated resources of the optimal steady state —
// the constraints that cap the throughput. Raising any non-bottleneck
// resource cannot improve the platform; these are where an administrator
// should invest (faster links at saturated ports, faster CPUs at
// saturated processors).
func (r *Result) Bottlenecks() []Bottleneck {
	var out []Bottleneck
	t := r.Tree
	for id := 0; id < t.Len(); id++ {
		st := r.Nodes[id]
		if !st.Visited {
			continue
		}
		nid := tree.NodeID(id)
		if !t.Rate(nid).IsZero() && st.Alpha.Equal(t.Rate(nid)) {
			out = append(out, Bottleneck{Node: nid, Kind: "cpu"})
		}
		if len(t.Children(nid)) > 0 && st.TauLeft.IsZero() {
			out = append(out, Bottleneck{Node: nid, Kind: "port"})
		}
	}
	return out
}
