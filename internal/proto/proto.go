// Package proto implements BW-First as a genuinely distributed protocol:
// one goroutine per platform node, where parents and children exchange only
// the single numbers the paper prescribes — a proposal β down, an
// acknowledgment θ up — over channels standing in for network links.
//
// This realizes the paper's "lightweight communication procedure": no node
// accesses global information; each decides from its own w, the c (and,
// with result returns, the d) of its links, and the numbers it receives
// (the semi-autonomous protocol of Section 5). Each node runs the same
// per-node step as the sequential solver (bwfirst.Step), so a round
// computes exactly what bwfirst.Solve does, on forward-only and
// result-return platforms alike. The run is depth-first and therefore
// sequential in time, but the package demonstrates — and its tests
// verify — that the procedure needs nothing beyond local state plus
// point-to-point messages, and it counts the messages for the
// protocol-cost experiment (E9): exactly two per transaction.
//
// A Session keeps the node goroutines alive between negotiations, modeling
// the paper's dynamic-adaptation proposal: when the root observes a
// throughput drop it re-initiates the procedure against the re-measured
// platform (same topology, new weights) without restarting anything —
// Renegotiate costs only the same handful of scalar messages.
package proto

import (
	"fmt"
	"sync"

	"bwc/internal/bwfirst"
	"bwc/internal/obs"
	"bwc/internal/rat"
	"bwc/internal/tree"
)

// Result reports one negotiation round's outcome.
type Result struct {
	Tree       *tree.Tree
	TMax       rat.R
	Throughput rat.R
	// Nodes[id] holds what node id knows at the end of the round: the
	// same per-node record as bwfirst.Result.Nodes.
	Nodes []bwfirst.NodeState
	// Messages is the total number of protocol messages exchanged
	// (proposals + acknowledgments, including the virtual parent's pair).
	// It is derived from the single counting path countMsg, which also
	// feeds the bwc_protocol_messages_total metric, so the E9 report and
	// the exported metric can never disagree.
	Messages int
	// VisitedCount is the number of nodes that took part.
	VisitedCount int
}

// countMsg is the one place a protocol message is counted: it bumps the
// round's Result and the session's metric counter together. Accesses are
// ordered by the proposal/acknowledgment chain exactly like the other
// Result fields (the counter itself is additionally atomic).
func (s *Session) countMsg() {
	s.res.Messages++
	s.msgCtr.Inc()
}

// nodeActor is one platform node's goroutine state. All fields other than
// the channels are owned by the session and read by the actor only while
// it holds a proposal, which orders the accesses (the proposal chain
// carries the happens-before edges).
type nodeActor struct {
	id       tree.NodeID
	s        *Session
	proposal chan rat.R // from parent
	ack      chan rat.R // to parent
}

// Session holds a living set of node goroutines for one platform
// topology. Negotiation rounds run sequentially; the Session is not safe
// for concurrent use.
type Session struct {
	t *tree.Tree
	// hasRet is t.HasResultReturn, read once per round: Renegotiate may
	// swap in a re-measured tree.
	hasRet bool
	actors []*nodeActor
	quit   chan struct{}
	wg     sync.WaitGroup
	closed bool
	// res is the round currently being filled in. Actors access their own
	// indices only, between receiving a proposal and sending the ack.
	res *Result

	// sc is the (possibly disabled) observability scope; msgCtr, txCtr and
	// visitedG are its pre-registered instruments (nil-safe no-ops when
	// disabled). txSpan[id] is the open span of the transaction proposing
	// to node id; like res, it is handed between parent and child by the
	// proposal/ack channel pair.
	sc       *obs.Scope
	msgCtr   *obs.Counter
	txCtr    *obs.Counter
	visitedG *obs.Gauge
	txSpan   []obs.SpanID
}

// NewSession spawns one goroutine per node of t. Close must be called to
// release them.
func NewSession(t *tree.Tree) *Session { return NewSessionObserved(t, nil) }

// NewSessionObserved is NewSession with instrumentation: when sc is
// enabled, every transaction of every round becomes a span on the "proto"
// track (parented along the proposal chain), and the session publishes
// bwc_protocol_messages_total, bwc_protocol_transactions_total and
// bwc_visited_nodes. A nil scope adds one nil check per message.
func NewSessionObserved(t *tree.Tree, sc *obs.Scope) *Session {
	s := &Session{t: t, quit: make(chan struct{}), sc: sc}
	if sc.Enabled() {
		reg := sc.Registry()
		s.msgCtr = reg.Counter("bwc_protocol_messages_total",
			"protocol messages exchanged (proposals + acknowledgments, virtual parent included)")
		s.txCtr = reg.Counter("bwc_protocol_transactions_total",
			"closed BW-First transactions (distributed protocol, virtual parent included)")
		s.visitedG = reg.Gauge("bwc_visited_nodes",
			"nodes visited by the last BW-First negotiation round")
		s.txSpan = make([]obs.SpanID, t.Len())
	}
	s.actors = make([]*nodeActor, t.Len())
	for id := 0; id < t.Len(); id++ {
		s.actors[id] = &nodeActor{
			id:       tree.NodeID(id),
			s:        s,
			proposal: make(chan rat.R),
			ack:      make(chan rat.R),
		}
	}
	for _, a := range s.actors {
		s.wg.Add(1)
		go func(a *nodeActor) {
			defer s.wg.Done()
			a.run(s.quit)
		}(a)
	}
	return s
}

// Close shuts the node goroutines down. It is idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	close(s.quit)
	s.wg.Wait()
}

// Run performs one negotiation round against the session's current
// platform weights and returns the per-node results.
func (s *Session) Run() *Result {
	if s.closed {
		panic("proto: Run on a closed session")
	}
	t := s.t
	res := &Result{Tree: t, Nodes: make([]bwfirst.NodeState, t.Len())}
	if t.Len() == 0 {
		return res
	}
	s.res = res
	s.hasRet = t.HasResultReturn()
	root := s.actors[t.Root()]
	res.TMax = t.Rate(t.Root()).Add(t.MaxChildBandwidth(t.Root()))
	span := s.sc.StartSpan("negotiate "+t.Name(t.Root()), "proto", 0)
	if s.txSpan != nil {
		s.txSpan[t.Root()] = span
	}
	s.countMsg()              // the virtual parent's proposal...
	root.proposal <- res.TMax // ...sent
	theta := <-root.ack
	s.countMsg() // ...and its acknowledgment
	res.Throughput = res.TMax.Sub(theta)
	s.sc.EndSpan(span,
		obs.A("t_max", res.TMax.String()),
		obs.A("throughput", res.Throughput.String()))
	s.txCtr.Inc()
	for id := range res.Nodes {
		if res.Nodes[id].Visited {
			res.VisitedCount++
		}
	}
	s.visitedG.Set(int64(res.VisitedCount))
	s.sc.Emit("negotiate",
		obs.A("throughput", res.Throughput.String()),
		obs.A("messages", fmt.Sprint(res.Messages)),
		obs.A("visited", fmt.Sprint(res.VisitedCount)))
	return res
}

// Renegotiate swaps in a re-measured platform (same topology: identical
// names and parent structure; weights may differ) and runs a new round —
// the root's reaction to a throughput drop in Section 5.
func (s *Session) Renegotiate(t *tree.Tree) (*Result, error) {
	if err := sameTopology(s.t, t); err != nil {
		return nil, err
	}
	s.t = t
	return s.Run(), nil
}

func sameTopology(a, b *tree.Tree) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("proto: topology changed: %d vs %d nodes", a.Len(), b.Len())
	}
	for id := 0; id < a.Len(); id++ {
		n := tree.NodeID(id)
		if a.Name(n) != b.Name(n) {
			return fmt.Errorf("proto: node %d renamed %q -> %q", id, a.Name(n), b.Name(n))
		}
		if a.Parent(n) != b.Parent(n) {
			return fmt.Errorf("proto: node %q re-parented", a.Name(n))
		}
	}
	return nil
}

// SolveObserved runs a single negotiation on t against an observability
// scope (nil disables it), in a Session created and closed for the call.
func SolveObserved(t *tree.Tree, sc *obs.Scope) *Result {
	s := NewSessionObserved(t, sc)
	defer s.Close()
	return s.Run()
}

// run is the node's lifetime: serve one proposal per round until shutdown.
// Every proposal is acknowledged: its parent waits for the answer before
// the round can end, so no acknowledgment is left unread at Close.
func (a *nodeActor) run(quit <-chan struct{}) {
	for {
		select {
		case beta := <-a.proposal:
			a.ack <- a.handle(beta)
		case <-quit:
			return
		}
	}
}

// handle is bwfirst.Step with channel sends in place of the paper's
// message-passing notation. Every arithmetic input is local: the node's
// own weights, its child links, and the received numbers.
func (a *nodeActor) handle(lambda rat.R) rat.R {
	s := a.s
	return bwfirst.Step(s.t, a.id, lambda, s.hasRet, &s.res.Nodes[a.id], func(cid tree.NodeID, beta rat.R) rat.R {
		// Count the proposal before sending and the acknowledgment after
		// receiving: the channel operations then order every access to
		// the shared counter (between the send and the ack-receive the
		// child's subtree owns it). The span open/close brackets the
		// child's whole subtree negotiation the same way.
		var txSpan obs.SpanID
		if s.txSpan != nil {
			txSpan = s.sc.StartSpan("tx "+s.t.Name(a.id)+"→"+s.t.Name(cid), "proto", s.txSpan[a.id])
			s.txSpan[cid] = txSpan
		}
		child := s.actors[cid]
		s.countMsg()
		child.proposal <- beta // phase one: proposal
		theta := <-child.ack   // phase two: acknowledgment
		s.countMsg()
		if s.txSpan != nil {
			s.sc.EndSpan(txSpan, obs.A("beta", beta.String()), obs.A("theta", theta.String()))
		}
		s.txCtr.Inc()
		return theta
	})
}
