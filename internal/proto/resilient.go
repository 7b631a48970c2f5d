package proto

// Resilient negotiation: the paper's protocol assumes every node answers;
// a production wave cannot. This file adds the fail-stop story the
// Section 5 adaptation loop needs: per-transaction acknowledgment
// timeouts with linear backoff and bounded retries, after which the
// parent prunes the silent child — exactly as if the link had w = +inf —
// and continues the wave with the remaining children. The pruned subtree
// simply does not appear in the steady state (α = 0, no send rate), so
// the resulting schedule routes nothing through it.
//
// Fail-stop is modeled on the receiving side: SetResponsive(id, false)
// makes node id swallow proposals without acknowledging, which is
// indistinguishable from a crashed process to its parent. A down node
// never runs Algorithm 1, so it writes nothing into the round's Result;
// the model deliberately excludes "slow but alive" nodes whose late
// acknowledgments would race the wave (stale acks are drained before
// each fresh proposal as a defensive measure).

import (
	"fmt"
	"time"

	"bwc/internal/bwcerr"
	"bwc/internal/obs"
	"bwc/internal/rat"
	"bwc/internal/tree"
)

// ResilientOptions tunes the timeout/backoff/retry behavior of one
// resilient negotiation round.
type ResilientOptions struct {
	// Timeout is the per-transaction acknowledgment wait (default 50ms).
	Timeout time.Duration
	// Backoff is added to the wait after each failed attempt (default:
	// Timeout, i.e. linear backoff 1x, 2x, 3x...).
	Backoff time.Duration
	// Retries is how many times a timed-out proposal is re-sent before
	// the child is pruned (default 2: three attempts in total).
	Retries int
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	if o.Timeout <= 0 {
		o.Timeout = 50 * time.Millisecond
	}
	if o.Backoff <= 0 {
		o.Backoff = o.Timeout
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	return o
}

// PrunedNode records one child a resilient round gave up on.
type PrunedNode struct {
	Node tree.NodeID
	Name string
	// Attempts is the number of proposals sent before pruning.
	Attempts int
}

// SetResponsive marks node id as answering (up=true) or fail-stop
// (up=false). A down node swallows proposals without acknowledging;
// during a plain Run (no timeouts) a down node would hang the wave, so
// only use RunResilient while any node is down. Safe to call between
// rounds.
func (s *Session) SetResponsive(id tree.NodeID, up bool) {
	if s.down == nil {
		panic("proto: SetResponsive before session init")
	}
	s.down[id].Store(!up)
}

// RunResilient performs one negotiation round in which every transaction
// is guarded by opt's timeout/backoff/retry discipline. Children that
// never acknowledge are pruned (recorded in Result.Pruned) and their
// subtree contributes nothing to the steady state. If the root itself
// never acknowledges, the round fails with an error wrapping
// bwcerr.ErrAdaptTimeout.
func (s *Session) RunResilient(opt ResilientOptions) (*Result, error) {
	if s.closed {
		panic("proto: RunResilient on a closed session")
	}
	t := s.t
	res := &Result{
		Tree:      t,
		Alpha:     make([]rat.R, t.Len()),
		SendRates: make([][]rat.R, t.Len()),
		Visited:   make([]bool, t.Len()),
	}
	if t.Len() == 0 {
		return res, nil
	}
	s.res = res
	s.resil = new(ResilientOptions)
	*s.resil = opt.withDefaults()
	defer func() { s.resil = nil }()

	root := s.actors[t.Root()]
	res.TMax = t.Rate(t.Root()).Add(t.MaxChildBandwidth(t.Root()))
	span := s.sc.StartSpan("negotiate "+t.Name(t.Root()), "proto", 0)
	if s.txSpan != nil {
		s.txSpan[t.Root()] = span
	}
	theta, ok := s.proposeRoot(root, res.TMax)
	if !ok {
		s.sc.EndSpan(span, obs.A("error", "root unresponsive"))
		return nil, fmt.Errorf("proto: root %q never acknowledged within the wave budget: %w",
			t.Name(t.Root()), bwcerr.ErrAdaptTimeout)
	}
	res.Throughput = res.TMax.Sub(theta)
	s.sc.EndSpan(span,
		obs.A("t_max", res.TMax.String()),
		obs.A("throughput", res.Throughput.String()))
	s.txCtr.Inc()
	// Scrub the subtrees of pruned children: under the fail-stop model a
	// down node never ran Algorithm 1, but a child pruned mid-wave may
	// have visited part of its subtree before its parent gave up; those
	// entries are not part of the negotiated steady state.
	for _, p := range res.Pruned {
		s.t.Walk(p.Node, func(id tree.NodeID) bool {
			res.Visited[id] = false
			res.Alpha[id] = rat.Zero
			res.SendRates[id] = nil
			return true
		})
	}
	for id := range res.Visited {
		if res.Visited[id] {
			res.VisitedCount++
		}
	}
	s.visitedG.Set(int64(res.VisitedCount))
	s.sc.Emit("negotiate",
		obs.A("throughput", res.Throughput.String()),
		obs.A("messages", fmt.Sprint(res.Messages)),
		obs.A("visited", fmt.Sprint(res.VisitedCount)),
		obs.A("pruned", fmt.Sprint(len(res.Pruned))))
	return res, nil
}

// SolveResilient is a convenience wrapper: one resilient negotiation on t
// with the given nodes marked fail-stop.
func SolveResilient(t *tree.Tree, downNodes []tree.NodeID, opt ResilientOptions) (*Result, error) {
	return SolveResilientObserved(t, downNodes, opt, nil)
}

// SolveResilientObserved is SolveResilient against an observability scope.
func SolveResilientObserved(t *tree.Tree, downNodes []tree.NodeID, opt ResilientOptions, sc *obs.Scope) (*Result, error) {
	s := NewSessionObserved(t, sc)
	defer s.Close()
	for _, id := range downNodes {
		s.SetResponsive(id, false)
	}
	return s.RunResilient(opt)
}

// waveBudget bounds one whole resilient wave: in the worst case every
// edge transaction exhausts its full retry schedule before pruning, and
// those waits nest down the tree, so the top-level wait must cover all of
// them — the per-transaction budget times the number of nodes, plus one
// transaction of slack.
func (s *Session) waveBudget() time.Duration {
	perTx := time.Duration(s.resil.Retries+1) * s.resil.Timeout
	perTx += time.Duration(s.resil.Retries*(s.resil.Retries+1)/2) * s.resil.Backoff
	return perTx * time.Duration(s.t.Len()+1)
}

// proposeRoot opens the wave: unlike an interior transaction, the root's
// acknowledgment arrives only after its entire subtree has negotiated —
// including any nested timeout/backoff schedules — so it waits for the
// whole wave budget rather than one transaction's.
func (s *Session) proposeRoot(root *nodeActor, beta rat.R) (theta rat.R, ok bool) {
	select {
	case <-root.ack:
	default:
	}
	deadline := time.After(s.waveBudget())
	s.countMsg()
	select {
	case root.proposal <- beta:
	case <-deadline:
		return rat.Zero, false
	}
	select {
	case theta = <-root.ack:
		s.countMsg()
		return theta, true
	case <-deadline:
		return rat.Zero, false
	}
}

// propose sends beta to the actor and waits for the acknowledgment under
// the session's resilient discipline. ok=false means the child never
// answered within the retry budget.
func (s *Session) propose(child *nodeActor, beta rat.R) (theta rat.R, ok bool) {
	// Drain a stale acknowledgment from an earlier abandoned attempt so
	// it cannot be mistaken for the answer to this proposal.
	select {
	case <-child.ack:
	default:
	}
	wait := s.resil.Timeout
	for attempt := 0; attempt <= s.resil.Retries; attempt++ {
		deadline := time.After(wait)
		s.countMsg()
		// Both the proposal send and the acknowledgment wait are guarded:
		// a down node swallows the send but never acks; a wedged node may
		// not even receive.
		select {
		case child.proposal <- beta:
		case <-deadline:
			wait += s.resil.Backoff
			continue
		}
		select {
		case theta = <-child.ack:
			s.countMsg()
			return theta, true
		case <-deadline:
			wait += s.resil.Backoff
		}
	}
	return rat.Zero, false
}
