// Package sched reconstructs executable schedules from the rational
// activity variables computed by BW-First, following Section 6 of the
// paper.
//
// For a node P0 with receive rate η_{-1}, compute rate η_0 = α and send
// rates η_i to its children (each η = ρ/μ in lowest terms), Lemma 1 gives
// the minimal asynchronous periods
//
//	T^s = lcm{μ_i | i ∈ children}   (sending period; φ_i = η_i·T^s tasks)
//	T^c = μ_0                        (computing period; ρ_0 tasks)
//	T^r = T^s of the parent          (receiving period; φ_{-1} = η_{-1}·T^r)
//
// and Section 6.2 derives the event-driven quantities over the consuming
// period T^w = lcm(T^c, T^s): ψ_0 = η_0·T^w tasks computed, ψ_i = η_i·T^w
// tasks delegated to child i, handled in bunches of Ψ = Σψ_i incoming
// tasks — no clock needed at any node except the root.
//
// Section 6.3's local scheduling strategy fixes the order inside a bunch:
// each destination d with ψ_d > 0 splits the unit interval into ψ_d + 1
// parts and occupies positions k/(ψ_d+1); merging all positions interleaves
// the destinations proportionally, spacing each node's tasks out to
// minimize buffering. Ties prefer the destination with smaller ψ, then
// smaller index (the node itself counts as index 0, children follow in
// insertion order shifted by one).
package sched

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"bwc/internal/bwfirst"
	"bwc/internal/rat"
	"bwc/internal/tree"
)

// Dest identifies a destination inside a node's local schedule.
type Dest int

// Self is the destination "compute locally". Non-negative values index the
// node's children in insertion order.
const Self Dest = -1

// Slot is one entry of a node's bunch order, as a Cursor yields it.
type Slot struct {
	// Dest says where the task handled by this slot goes.
	Dest Dest
	// k/den is the slot's position, kept as two integers so cursors
	// hold no pointers and comparisons need no gcd.
	k, den int64
}

// Pos is the slot's position in the unit interval (the k/(ψ_d+1)
// construction of Figure 3). Scaled by T^w it is the slot's nominal time
// offset within a steady-state period. The zero Slot is at position 0.
func (s Slot) Pos() rat.R {
	if s.den == 0 {
		return rat.Zero
	}
	return rat.New(s.k, s.den)
}

// before orders slots as the Figure-3 rule does: by position, then
// smaller ψ (it wins the contested task; den = ψ+1), then smaller index
// (Self = -1 first). A (position, destination) pair is unique, so the
// order is total. Positions compare as the cross products k_a·den_b and
// k_b·den_a, formed in 128 bits so no bunch length can overflow them.
func before(a, b Slot) bool {
	hiA, loA := bits.Mul64(uint64(a.k), uint64(b.den))
	hiB, loB := bits.Mul64(uint64(b.k), uint64(a.den))
	if hiA != hiB || loA != loB {
		return hiA < hiB || hiA == hiB && loA < loB
	}
	if a.den != b.den {
		return a.den < b.den
	}
	return a.Dest < b.Dest
}

// NodeSchedule is the compact, self-contained description of one node's
// steady-state behavior — everything a node needs, built purely from local
// information (Section 6's semi-autonomy); a Cursor derives its bunch
// order from ψ. The counts share storage: treat them as read-only.
type NodeSchedule struct {
	Node tree.NodeID

	// Active is false for nodes that take no part in the schedule
	// (unvisited by BW-First, or visited but allocated nothing).
	Active bool

	// Rates (copied from the BW-First result).
	RecvRate rat.R   // η_{-1}; for the root: total consumption rate
	Alpha    rat.R   // η_0
	Sends    []rat.R // η_i per child, insertion order

	// ReturnRate is the steady-state rate at which finished results
	// leave this node toward its parent on result-return platforms
	// (Section 9): every task the subtree consumes sends one result
	// back up, so it equals RecvRate. Zero on forward-only platforms
	// and for the root (results terminate there).
	ReturnRate rat.R

	// Lemma 1 periods; integers represented as rationals. TR is zero for
	// the root ("the root should not receive any tasks").
	TS, TC, TR rat.R

	// Lemma 1 integer task counts.
	PhiRecv *big.Int   // φ_{-1}: tasks received per TR
	Phi0    *big.Int   // ρ_0: tasks computed per TC
	Phi     []*big.Int // φ_i: tasks sent to child i per TS

	// Event-driven quantities (Section 6.2).
	TW    rat.R      // consuming period lcm(TC, TS)
	Psi0  *big.Int   // ψ_0
	Psi   []*big.Int // ψ_i
	Bunch *big.Int   // Ψ = ψ_0 + Σψ_i
}

// Schedule bundles the per-node schedules of a platform.
type Schedule struct {
	Tree  *tree.Tree
	Res   *bwfirst.Result
	Nodes []NodeSchedule // indexed by tree.NodeID

	// ResultReturn marks schedules built for a platform with non-zero
	// result-return times: the periodic pattern's transfers are then
	// accompanied by the upward result flow the engine executes on the
	// same single ports.
	ResultReturn bool

	// Block records Options.Block: the nodes hand out their bunches in
	// block order instead of Figure 3's interleave.
	Block bool

	// periods memoizes Periods. It also makes a Schedule a value that
	// must not be copied (go vet reports copies): a copy would carry the
	// original's periods whatever its own nodes say.
	periods atomic.Pointer[Periods]
}

// Options configures schedule construction.
type Options struct {
	// MaxPatternLen is ignored: no bunch order is materialized.
	MaxPatternLen int
	// Block switches the local ordering strategy from the paper's
	// interleaving (Figure 3) to naive block allocation — all of a
	// destination's tasks consecutively — used as the ablation baseline
	// for experiment E7.
	Block bool
}

// nodeRates is the per-node steady-state description a schedule is built
// from: the compute rate and the per-child send rates (nil when all are
// zero; an inactive node's rates are all zero). Build derives it from a
// BW-First result; Quantize derives a denominator-bounded approximation.
type nodeRates struct {
	alpha  rat.R
	sends  []rat.R
	active bool
}

// recv is the node's receive rate η_{-1} = η_0 + Σ η_i.
func (nr nodeRates) recv() rat.R {
	r := nr.alpha
	for _, v := range nr.sends {
		r = r.Add(v)
	}
	return r
}

// Build constructs the full schedule from a BW-First result.
func Build(res *bwfirst.Result, opt Options) (*Schedule, error) {
	rates := make([]nodeRates, len(res.Nodes))
	for id := range rates {
		st := &res.Nodes[id]
		rates[id] = nodeRates{alpha: st.Alpha, sends: st.SendRates,
			active: st.Visited && (st.ConsumeRate().IsPos() || st.Alpha.IsPos())}
	}
	s, err := buildFromRates(res.Tree, rates, opt)
	if err != nil {
		return nil, err
	}
	s.Res = res
	return s, nil
}

// Quantize builds a schedule whose rates are the BW-First optimum rounded
// down so that every denominator divides den. The paper notes the exact
// steady-state period "might be embarrassingly long"; quantization bounds
// every node's periods by den at a throughput cost of at most
// (#active nodes)/den. The returned rational is the quantized throughput.
//
// Feasibility is preserved by construction: each α is only lowered, and
// every edge flow (a subtree sum of lowered αs) only shrinks, so all port
// constraints of the exact optimum still hold.
func Quantize(res *bwfirst.Result, den int64, opt Options) (*Schedule, rat.R, error) {
	if den < 1 {
		return nil, rat.Zero, fmt.Errorf("sched: quantization denominator must be >= 1 (got %d)", den)
	}
	t := res.Tree
	d := rat.FromInt(den)
	// α'_i = floor(α_i·den)/den, bottom-up subtree sums give the flows.
	alpha := make([]rat.R, t.Len())
	subtree := make([]rat.R, t.Len())
	throughput := rat.Zero
	if t.Len() > 0 {
		for _, id := range t.PostOrder(t.Root()) {
			a := res.Nodes[id].Alpha.Mul(d).Floor().Div(d)
			alpha[id] = a
			sum := a
			for _, c := range t.Children(id) {
				sum = sum.Add(subtree[c])
			}
			subtree[id] = sum
		}
		throughput = subtree[t.Root()]
	}
	// A node receives its subtree's flow; one that receives none is idle.
	rates := make([]nodeRates, t.Len())
	for id := range rates {
		if nr := &rates[id]; subtree[id].IsPos() {
			nr.alpha, nr.active = alpha[id], true
			for _, c := range t.Children(tree.NodeID(id)) {
				nr.sends = append(nr.sends, subtree[c])
			}
		}
	}
	s, err := buildFromRates(t, rates, opt)
	if err != nil {
		return nil, rat.Zero, err
	}
	s.Res = res
	return s, throughput, nil
}

// buildFromRates assembles the schedule from per-node rates, in rat's
// int64 arithmetic, which promotes to math/big on overflow.
func buildFromRates(t *tree.Tree, rates []nodeRates, opt Options) (*Schedule, error) {
	s := &Schedule{Tree: t, Nodes: make([]NodeSchedule, t.Len()), ResultReturn: t.HasResultReturn(), Block: opt.Block}
	a := newArena(t, rates)
	for id := range s.Nodes {
		if err := s.buildNode(tree.NodeID(id), &rates[id], &a); err != nil {
			return nil, err
		}
	}
	// T^r is the parent's T^s, so it waits for every row's T^s.
	for id := range s.Nodes {
		ns := &s.Nodes[id]
		ns.TR, ns.PhiRecv = rat.Zero, a.zero
		if p := t.Parent(ns.Node); p != tree.None {
			ns.TR = s.Nodes[p].TS
		}
		if ns.Active && ns.TR.IsPos() {
			ns.PhiRecv = a.count(ns.RecvRate.Mul(ns.TR), "φ_{-1}", t, ns.Node)
		}
	}
	return s, nil
}

// buildNode fills node id's row but T^r and φ_{-1}. An idle row has
// T^s = T^c = T^w = 1 and shares its zero counts with every other. A
// bunch whose Ψ + 1 does not fit int64, the range of a Cursor's
// counters, is an error: the one limit on the bunch of a schedule.
func (s *Schedule) buildNode(id tree.NodeID, nr *nodeRates, a *arena) error {
	t := s.Tree
	ns := &s.Nodes[id]
	ns.Node, ns.Active, ns.Alpha, ns.Sends = id, nr.active, nr.alpha, nr.sends
	if ns.Sends == nil {
		ns.Sends = a.zeroRates[:len(t.Children(id))]
	}
	ns.RecvRate = nr.recv()
	if !ns.Active {
		ns.TS, ns.TC, ns.TW = rat.One, rat.One, rat.One
		ns.Phi0, ns.Psi0, ns.Bunch = a.zero, a.zero, a.zero
		ns.Phi, ns.Psi = a.zeros[:len(ns.Sends)], a.zeros[:len(ns.Sends)]
		return nil
	}
	if s.ResultReturn && id != t.Root() {
		ns.ReturnRate = ns.RecvRate
	}

	// Lemma 1. T^s = lcm of the children's send-rate denominators (an
	// empty lcm is 1: a node that sends nothing still has a well-defined
	// unit period), T^c = μ_0 and ρ_0 = η_0·μ_0.
	ns.TS = rat.DenLCM(ns.Sends...)
	ns.TC = rat.DenLCM(ns.Alpha)
	ns.Phi0 = a.count(ns.Alpha.Mul(ns.TC), "ρ_0", t, id)

	// Event-driven quantities over T^w = lcm(T^c, T^s).
	ns.TW = rat.LCM(ns.TC, ns.TS)
	k := len(ns.Sends)
	ns.Phi, ns.Psi, a.ptrs = a.ptrs[:k:k], a.ptrs[k:2*k:2*k], a.ptrs[2*k:]
	bunch := ns.Alpha.Mul(ns.TW)
	ns.Psi0 = a.count(bunch, "ψ_0", t, id)
	for j, eta := range ns.Sends {
		ns.Phi[j] = a.count(eta.Mul(ns.TS), "φ_i", t, id)
		psi := eta.Mul(ns.TW)
		ns.Psi[j] = a.count(psi, "ψ_i", t, id)
		bunch = bunch.Add(psi)
	}
	ns.Bunch = a.count(bunch, "Ψ", t, id)
	if n, ok := bunch.Int64(); !ok || n == math.MaxInt64 {
		return fmt.Errorf("sched: node %s has Ψ=%s, beyond the int64 range of a cursor", t.Name(id), bunch)
	}
	return nil
}

// arena is the storage a schedule's rows share, allocated once per
// build: active rows' non-zero counts and their φ and ψ slices, and the
// zeros of idle rows.
type arena struct {
	ints      []big.Int
	words     []big.Word
	ptrs      []*big.Int
	zero      *big.Int
	zeros     []*big.Int // every entry is zero
	zeroRates []rat.R
}

// newArena sizes the arena: an active row has at most four counts
// (φ_{-1}, ρ_0, ψ_0, Ψ) and two per child (φ_i, ψ_i).
func newArena(t *tree.Tree, rates []nodeRates) arena {
	counts, ptrs, fan := 0, 0, 0
	for id := range rates {
		k := len(t.Children(tree.NodeID(id)))
		fan = max(fan, k)
		if rates[id].active {
			counts += 4 + 2*k
			ptrs += 2 * k
		}
	}
	a := arena{ints: make([]big.Int, counts), words: make([]big.Word, counts),
		ptrs: make([]*big.Int, ptrs), zero: new(big.Int), zeros: make([]*big.Int, fan), zeroRates: make([]rat.R, fan)}
	for i := range a.zeros {
		a.zeros[i] = a.zero
	}
	return a
}

// count returns v, an integer by construction (otherwise a bug upstream),
// as a *big.Int: the zero, the next arena value, or v's own numerator.
func (a *arena) count(v rat.R, what string, t *tree.Tree, id tree.NodeID) *big.Int {
	n, ok := v.Int64()
	switch {
	case !ok && !v.IsInt():
		panic(fmt.Sprintf("sched: %s of node %s = %s is not an integer", what, t.Name(id), v))
	case !ok || n < 0 || uint64(n) > uint64(^big.Word(0)):
		return v.Num()
	case n == 0:
		return a.zero
	}
	x, w := &a.ints[0], a.words[:1:1]
	a.ints, a.words = a.ints[1:], a.words[1:]
	w[0] = big.Word(n)
	return x.SetBits(w)
}

// Cursor walks one node's bunch order slot by slot and wraps after Ψ
// slots, each wrap one consuming period T^w. Interleaved (Figure 3), it
// merges the destinations' streams k/(ψ_d+1), k = 1..ψ_d, through a
// binary min-heap over the D stream heads: O(log D) a slot. In block
// order it serves each destination's ψ_d slots in turn, at uniform
// positions so the root's pacing stays defined. The zero Cursor is empty.
type Cursor struct {
	// heads holds one stream per destination with ψ > 0, k its next slot
	// and den = ψ + 1. Interleaved, heads[:live] is the heap of streams
	// not yet exhausted; in block order heads[live] is being served.
	heads []Slot
	live  int
	i, n  int64 // slots taken in this bunch, and Ψ
	block bool
}

// Cursor returns a cursor at the start of node id's bunch. Its state,
// one slot per destination with ψ > 0, goes to heads while heads has the
// capacity, so cursors can share one array (nil allocates it).
func (s *Schedule) Cursor(id tree.NodeID, heads []Slot) Cursor {
	ns := &s.Nodes[id]
	if heads == nil {
		heads = make([]Slot, 0, len(ns.Psi)+1)
	}
	c := Cursor{heads: heads[:0], block: s.Block}
	for j := -1; j < len(ns.Psi); j++ {
		p := ns.Psi0
		if j >= 0 {
			p = ns.Psi[j]
		}
		if p.Sign() > 0 {
			c.heads = append(c.heads, Slot{Dest: Dest(j), k: 1, den: p.Int64() + 1})
			c.n += p.Int64()
		}
	}
	c.rewind()
	return c
}

// Len is the bunch size Ψ: 0 for an empty cursor.
func (c *Cursor) Len() int64 { return c.n }

// Index is the number of slots taken in the current bunch.
func (c *Cursor) Index() int64 { return c.i }

// Next returns the next slot, wrapping after the last. The cursor must
// not be empty.
func (c *Cursor) Next() Slot {
	var s Slot
	if c.block {
		h := &c.heads[c.live]
		s = Slot{Dest: h.Dest, k: c.i + 1, den: c.n + 1}
		if h.k++; h.k == h.den {
			c.live++
		}
	} else {
		h := &c.heads[0]
		s = *h
		if h.k++; h.k == h.den { // stream exhausted: park it past the heap
			c.live--
			c.heads[0], c.heads[c.live] = c.heads[c.live], c.heads[0]
		}
		if c.live > 0 {
			siftDown(c.heads[:c.live], 0)
		}
	}
	if c.i++; c.i == c.n {
		c.rewind()
	}
	return s
}

// SetIndex moves the cursor to slot i of its bunch (0 <= i < Len).
func (c *Cursor) SetIndex(i int64) {
	c.rewind()
	for c.i < i {
		c.Next()
	}
}

// rewind starts a bunch. A heap pops in the total order before, whatever
// order its array holds.
func (c *Cursor) rewind() {
	c.i = 0
	for j := range c.heads {
		c.heads[j].k = 1
	}
	if c.block {
		c.live = 0
		return
	}
	c.live = len(c.heads)
	for j := c.live/2 - 1; j >= 0; j-- {
		siftDown(c.heads, j)
	}
}

// siftDown restores the min-heap order below h[i].
func siftDown(h []Slot, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// Periods are a schedule's Proposition-3 quantities: every node's
// synchronized period T_0 = lcm(T^r, T^c, T^s) and buffer bound
// χ = η_{-1}·T_0, and the lcm of the T_0 of every active node (the tree
// period) and of every active non-root node (the rootless period). A
// schedule computes them once, on first use (Schedule.Periods), in int64
// arithmetic while the values fit. A Periods is immutable, so any number
// of goroutines may read it.
type Periods struct {
	t              *tree.Tree
	tree, rootless rat.R
	t0, chi        []rat.R
}

// Tree is the tree period T (see Schedule.TreePeriod).
func (p *Periods) Tree() rat.R { return p.tree }

// Rootless is the rootless period (see Schedule.RootlessPeriod).
func (p *Periods) Rootless() rat.R { return p.rootless }

// T0 is the node's synchronized period (see Schedule.T0).
func (p *Periods) T0(id tree.NodeID) rat.R { return p.t0[id] }

// Chi is the node's buffer bound χ (see Schedule.Chi).
func (p *Periods) Chi(id tree.NodeID) rat.R {
	chi := p.chi[id]
	if !chi.IsInt() {
		panic(fmt.Sprintf("sched: χ of node %s = %s is not an integer", p.t.Name(id), chi))
	}
	return chi
}

// Clone returns a copy of the schedule with node rows of its own (the
// rows' slices are shared), for callers that derive a schedule by
// editing rows. The copy computes its own Periods.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{Tree: s.Tree, Res: s.Res, Nodes: slices.Clone(s.Nodes), ResultReturn: s.ResultReturn, Block: s.Block}
}

// Periods returns the schedule's periods, computing them on first use.
// Schedules are shared across goroutines (a Session caches them), so
// the first readers may race to compute; every one of them returns the
// value that was stored first. The node rows must not change once the
// periods have been read: derive an edited schedule with Clone.
func (s *Schedule) Periods() *Periods {
	if p := s.periods.Load(); p != nil {
		return p
	}
	p := &Periods{t: s.Tree, tree: rat.One, rootless: rat.One,
		t0: make([]rat.R, len(s.Nodes)), chi: make([]rat.R, len(s.Nodes))}
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		t0 := rat.LCM(ns.TS, ns.TC)
		if ns.TR.IsPos() {
			t0 = rat.LCM(t0, ns.TR)
		}
		p.t0[i], p.chi[i] = t0, ns.RecvRate.Mul(t0)
		if ns.Active {
			p.tree = rat.LCM(p.tree, t0)
			if ns.Node != s.Tree.Root() {
				p.rootless = rat.LCM(p.rootless, t0)
			}
		}
	}
	s.periods.CompareAndSwap(nil, p)
	return s.periods.Load()
}

// TreePeriod returns the global steady-state period T: the lcm of every
// active node's lcm(T^r, T^c, T^s) (Proposition 3). This is the period the
// classical synchronized approach would use; the paper's point is that no
// node ever needs it.
func (s *Schedule) TreePeriod() *big.Int { return s.Periods().Tree().Num() }

// Throughput returns the rate the schedule deploys: the root's total
// consumption rate η_{-1}. It equals Res.Throughput on a schedule built
// from the exact optimum, and the rounded-down rate on a quantized one.
func (s *Schedule) Throughput() rat.R {
	if s.Tree.Len() == 0 {
		return rat.Zero
	}
	return s.Nodes[s.Tree.Root()].RecvRate
}

// RootlessRate returns the delegation rate of the root: the throughput of
// the "rootless tree" (everything except the root's own computation), the
// quantity Section 8 uses when discussing start-up.
func (s *Schedule) RootlessRate() rat.R {
	if s.Tree.Len() == 0 {
		return rat.Zero
	}
	root := s.Tree.Root()
	return s.Nodes[root].RecvRate.Sub(s.Nodes[root].Alpha)
}

// RootlessPeriod returns the lcm of the periods of all non-root active
// nodes.
func (s *Schedule) RootlessPeriod() *big.Int { return s.Periods().Rootless().Num() }

// StartupBound returns Proposition 4's bound for node id: Σ T^s over its
// ancestors — the time by which the node is guaranteed to be in steady
// state when everyone applies the event-driven schedule from t = 0.
func (s *Schedule) StartupBound(id tree.NodeID) rat.R {
	sum := rat.Zero
	for a := s.Tree.Parent(id); a != tree.None; a = s.Tree.Parent(a) {
		sum = sum.Add(s.Nodes[a].TS)
	}
	return sum
}

// MaxStartupBound returns the largest StartupBound over active nodes: the
// bound for the whole tree to enter steady state.
func (s *Schedule) MaxStartupBound() rat.R {
	best := rat.Zero
	for i := range s.Nodes {
		if !s.Nodes[i].Active {
			continue
		}
		best = rat.Max(best, s.StartupBound(tree.NodeID(i)))
	}
	return best
}

// CheckInvariants validates the constructed schedule against the paper's
// equations: Lemma 1 integrality (already enforced), the event-driven
// counts ψ_d = η_d·T^w and Ψ = Σψ_d = η_{-1}·T^w (the bunch order is a
// function of ψ), and Proposition 3's synchronized consistency
// (χ_{-1} = Σχ_i over T_0 = lcm(T^r, T^c, T^s)).
func (s *Schedule) CheckInvariants() error {
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		name := s.Tree.Name(ns.Node)
		if len(ns.Psi) != len(ns.Sends) {
			return fmt.Errorf("node %s: %d ψ counts for %d send rates", name, len(ns.Psi), len(ns.Sends))
		}
		// ψ_d = η_d·T^w for every destination d (Self is d = 0), and
		// Ψ = Σψ_d = η_{-1}·T^w.
		sum := rat.Zero
		for d, p := range append([]*big.Int{ns.Psi0}, ns.Psi...) {
			eta := ns.Alpha
			if d > 0 {
				eta = ns.Sends[d-1]
			}
			want := eta.Mul(ns.TW)
			if !rat.FromBigInt(p).Equal(want) {
				return fmt.Errorf("node %s: ψ_%d=%s but η_%d·T^w=%s", name, d, p, d, want)
			}
			sum = sum.Add(want)
		}
		if want := ns.RecvRate.Mul(ns.TW); !rat.FromBigInt(ns.Bunch).Equal(sum) || !sum.Equal(want) {
			return fmt.Errorf("node %s: Ψ=%s but Σψ=%s and η_{-1}·T^w=%s", name, ns.Bunch, sum, want)
		}
		// Proposition 3 over T_0.
		t0 := s.Periods().T0(ns.Node)
		chiIn, chiSum := ns.RecvRate.Mul(t0), ns.Alpha.Mul(t0)
		for _, eta := range ns.Sends {
			chiSum = chiSum.Add(eta.Mul(t0))
		}
		if !chiIn.IsInt() || !chiIn.Equal(chiSum) {
			return fmt.Errorf("node %s: Prop 3 violated: χ_{-1}=%s Σχ=%s", name, chiIn, chiSum)
		}
	}
	return nil
}

// DescribeNode renders one node's compact schedule description in the
// spirit of Figure 4(d): "every T^w: compute ψ_0, send ψ_i to child_i;
// pattern: ...".
func (s *Schedule) DescribeNode(id tree.NodeID) string {
	ns := &s.Nodes[id]
	t := s.Tree
	if !ns.Active {
		return fmt.Sprintf("%s: idle", t.Name(id))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: every %s units", t.Name(id), ns.TW)
	if ns.Psi0.Sign() > 0 {
		fmt.Fprintf(&b, ", compute %s", ns.Psi0)
	}
	for j, p := range ns.Psi {
		if p.Sign() > 0 {
			fmt.Fprintf(&b, ", send %s to %s", p, t.Name(t.Children(id)[j]))
		}
	}
	if ns.Bunch.Sign() > 0 && ns.Bunch.IsInt64() && ns.Bunch.Int64() <= 64 {
		b.WriteString(" | order: ")
		cur := s.Cursor(id, nil)
		for i := range cur.Len() {
			if i > 0 {
				b.WriteByte(' ')
			}
			if sl := cur.Next(); sl.Dest == Self {
				b.WriteString(t.Name(id))
			} else {
				b.WriteString(t.Name(t.Children(id)[sl.Dest]))
			}
		}
	}
	return b.String()
}

// String renders every active node's description, one per line, preorder.
func (s *Schedule) String() string {
	var b strings.Builder
	if s.Tree.Len() == 0 {
		return "(empty schedule)"
	}
	s.Tree.Walk(s.Tree.Root(), func(id tree.NodeID) bool {
		b.WriteString(s.DescribeNode(id))
		b.WriteByte('\n')
		return true
	})
	return b.String()
}

// Chi returns χ_{-1} = η_{-1}·T_0 for the node: the number of buffered
// tasks that guarantees the steady-state regime with fully desynchronized
// activities (Proposition 3). During the Proposition 4 start-up, a node's
// buffer never needs to exceed this value, so it also bounds the memory
// requirement of the schedule.
func (s *Schedule) Chi(id tree.NodeID) *big.Int { return s.Periods().Chi(id).Num() }

// CompactSize returns the byte size of the complete distributed schedule
// description: for every active node, its ψ quantities rendered in
// decimal (the single numbers a deployment actually ships — each node
// re-derives its pattern locally from ψ alone). This quantifies the
// paper's claim that the event-driven description "is very compact"
// compared with a length-T synchronized timetable.
func (s *Schedule) CompactSize() int {
	size := 0
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		if !ns.Active {
			continue
		}
		size += len(ns.TW.String()) + 1
		size += len(ns.Psi0.String()) + 1
		for _, p := range ns.Psi {
			size += len(p.String()) + 1
		}
	}
	return size
}
