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

// Slot is one entry of a node's interleaved allocation pattern.
type Slot struct {
	// Dest says where the task handled by this slot goes.
	Dest Dest
	// k/den is the slot's position, kept as two integers so patterns
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
// k_b·den_a, formed in 128 bits so no pattern length can overflow them.
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
// information (Section 6's semi-autonomy).
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

	// Pattern is the interleaved allocation of one bunch (length Ψ), or
	// nil when Ψ exceeds the MaxPatternLen option (the "embarrassingly
	// long period" case the paper warns about).
	Pattern []Slot
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

	// periods memoizes Periods. It also makes a Schedule a value that
	// must not be copied (go vet reports copies): a copy would carry the
	// original's periods whatever its own nodes say.
	periods atomic.Pointer[Periods]
}

// Options configures schedule construction.
type Options struct {
	// MaxPatternLen bounds the materialized pattern length Ψ per node;
	// longer patterns leave Pattern nil (quantities are still computed).
	// Zero means the default of 1<<20.
	MaxPatternLen int
	// Block switches the local ordering strategy from the paper's
	// interleaving (Figure 3) to naive block allocation — all of a
	// destination's tasks consecutively — used as the ablation baseline
	// for experiment E7.
	Block bool
}

const defaultMaxPatternLen = 1 << 20

// nodeRates is the per-node steady-state description a schedule is built
// from: the compute rate and the per-child send rates. Build derives it
// from a BW-First result; Quantize derives a denominator-bounded
// approximation.
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
	t := res.Tree
	rates := make([]nodeRates, t.Len())
	for id := 0; id < t.Len(); id++ {
		st := res.Nodes[id]
		nr := nodeRates{alpha: st.Alpha, sends: st.SendRates}
		if nr.sends == nil {
			nr.sends = make([]rat.R, len(t.Children(tree.NodeID(id))))
		}
		recv := st.ConsumeRate()
		nr.active = st.Visited && (recv.IsPos() || nr.alpha.IsPos())
		rates[id] = nr
	}
	s, err := buildFromRates(t, rates, opt)
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
	rates := make([]nodeRates, t.Len())
	for id := 0; id < t.Len(); id++ {
		nid := tree.NodeID(id)
		children := t.Children(nid)
		nr := nodeRates{alpha: alpha[id], sends: make([]rat.R, len(children))}
		recv := alpha[id]
		for j, c := range children {
			nr.sends[j] = subtree[c]
			recv = recv.Add(subtree[c])
		}
		nr.active = recv.IsPos()
		rates[id] = nr
	}
	s, err := buildFromRates(t, rates, opt)
	if err != nil {
		return nil, rat.Zero, err
	}
	s.Res = res
	return s, throughput, nil
}

// buildFromRates assembles the schedule from per-node rates.
func buildFromRates(t *tree.Tree, rates []nodeRates, opt Options) (*Schedule, error) {
	if opt.MaxPatternLen == 0 {
		opt.MaxPatternLen = defaultMaxPatternLen
	}
	s := &Schedule{Tree: t, Nodes: make([]NodeSchedule, t.Len()), ResultReturn: t.HasResultReturn()}
	if t.Len() == 0 {
		return s, nil
	}
	// TS must be computed top-down so TR can copy the parent's TS.
	for _, id := range preorder(t) {
		if err := s.buildNode(id, rates[id], opt); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func preorder(t *tree.Tree) []tree.NodeID {
	var out []tree.NodeID
	t.Walk(t.Root(), func(id tree.NodeID) bool {
		out = append(out, id)
		return true
	})
	return out
}

func (s *Schedule) buildNode(id tree.NodeID, nr nodeRates, opt Options) error {
	t := s.Tree
	ns := &s.Nodes[id]
	ns.Node = id
	ns.Alpha = nr.alpha
	ns.Sends = nr.sends
	ns.RecvRate = nr.recv()
	ns.Active = nr.active
	if s.ResultReturn && ns.Active && id != t.Root() {
		ns.ReturnRate = ns.RecvRate
	}

	// Lemma 1. T^s = lcm of the children's send-rate denominators (an
	// empty lcm is 1: a node that sends nothing still has a well-defined
	// unit period).
	ts := rat.DenLCM(ns.Sends...)
	ns.TS = rat.FromBigInt(ts)
	ns.TC = rat.FromBigInt(ns.Alpha.Den())
	if id == t.Root() {
		ns.TR = rat.Zero
		ns.PhiRecv = big.NewInt(0)
	} else {
		ns.TR = s.Nodes[t.Parent(id)].TS
		ns.PhiRecv = mustInt(ns.RecvRate.Mul(ns.TR), "φ_{-1}", t.Name(id))
	}
	ns.Phi0 = ns.Alpha.Num() // ρ_0 = η_0 · μ_0
	ns.Phi = make([]*big.Int, len(ns.Sends))
	for j, eta := range ns.Sends {
		ns.Phi[j] = mustInt(eta.Mul(ns.TS), "φ_i", t.Name(id))
	}

	// Event-driven quantities.
	tw := rat.LCMInt(ns.TC.Num(), ns.TS.Num())
	ns.TW = rat.FromBigInt(tw)
	ns.Psi0 = mustInt(ns.Alpha.Mul(ns.TW), "ψ_0", t.Name(id))
	ns.Psi = make([]*big.Int, len(ns.Sends))
	ns.Bunch = new(big.Int).Set(ns.Psi0)
	for j, eta := range ns.Sends {
		ns.Psi[j] = mustInt(eta.Mul(ns.TW), "ψ_i", t.Name(id))
		ns.Bunch.Add(ns.Bunch, ns.Psi[j])
	}

	if ns.Bunch.IsInt64() && ns.Bunch.Int64() <= int64(opt.MaxPatternLen) {
		if opt.Block {
			ns.Pattern = blockPattern(ns)
		} else {
			ns.Pattern = interleavePattern(ns)
		}
	}
	return nil
}

// mustInt converts a rational that is provably integer by construction; a
// failure indicates a bug upstream, not bad input.
func mustInt(v rat.R, what, node string) *big.Int {
	if !v.IsInt() {
		panic(fmt.Sprintf("sched: %s of node %s = %s is not an integer", what, node, v))
	}
	return v.Num()
}

// destCount pairs a destination with its ψ for pattern construction.
type destCount struct {
	dest Dest
	psi  int64
}

func destCounts(ns *NodeSchedule) []destCount {
	var ds []destCount
	if ns.Psi0.Sign() > 0 {
		ds = append(ds, destCount{Self, ns.Psi0.Int64()})
	}
	for j, p := range ns.Psi {
		if p.Sign() > 0 {
			ds = append(ds, destCount{Dest(j), p.Int64()})
		}
	}
	return ds
}

// interleavePattern implements the Figure-3 strategy. Destination d's
// slots k/(ψ_d+1), k = 1..ψ_d, already ascend in k, so a k-way merge of
// the D streams (a binary min-heap over their next slots) yields the
// whole bunch in order in O(Ψ log D).
func interleavePattern(ns *NodeSchedule) []Slot {
	ds := destCounts(ns)
	heads := make([]Slot, len(ds))
	total := int64(0)
	for i, d := range ds {
		heads[i] = Slot{Dest: d.dest, k: 1, den: d.psi + 1}
		total += d.psi
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	slots := make([]Slot, 0, total)
	for len(heads) > 0 {
		top := &heads[0]
		slots = append(slots, *top)
		top.k++
		if top.k == top.den { // stream exhausted
			*top = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		if len(heads) > 0 {
			siftDown(heads, 0)
		}
	}
	return slots
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

// blockPattern hands each destination all of its tasks consecutively (the
// strategy the paper's interleaving improves upon). Positions are assigned
// uniformly so the root pacing remains well defined.
func blockPattern(ns *NodeSchedule) []Slot {
	ds := destCounts(ns)
	total := int64(0)
	for _, d := range ds {
		total += d.psi
	}
	slots := make([]Slot, 0, total)
	i := int64(0)
	for _, d := range ds {
		for k := int64(0); k < d.psi; k++ {
			slots = append(slots, Slot{Dest: d.dest, k: i + 1, den: total + 1})
			i++
		}
	}
	return slots
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
	return &Schedule{Tree: s.Tree, Res: s.Res, Nodes: slices.Clone(s.Nodes), ResultReturn: s.ResultReturn}
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
// conservation Ψ = ψ_0 + Σψ_i = η_{-1}·T^w, Proposition 3's synchronized
// consistency (χ_{-1} = Σχ_i over T_0 = lcm(T^r, T^c, T^s)), and pattern
// well-formedness.
func (s *Schedule) CheckInvariants() error {
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		name := s.Tree.Name(ns.Node)
		// Ψ = η_{-1}·T^w.
		want := ns.RecvRate.Mul(ns.TW)
		if !rat.FromBigInt(ns.Bunch).Equal(want) {
			return fmt.Errorf("node %s: Ψ=%s but η_{-1}·T^w=%s", name, ns.Bunch, want)
		}
		// Proposition 3 over T_0.
		t0 := rat.LCMInt(ns.TS.Num(), ns.TC.Num())
		if ns.TR.IsPos() {
			t0 = rat.LCMInt(t0, ns.TR.Num())
		}
		t0r := rat.FromBigInt(t0)
		chiIn := ns.RecvRate.Mul(t0r)
		chiSum := ns.Alpha.Mul(t0r)
		for _, eta := range ns.Sends {
			chiSum = chiSum.Add(eta.Mul(t0r))
		}
		if !chiIn.IsInt() || !chiIn.Equal(chiSum) {
			return fmt.Errorf("node %s: Prop 3 violated: χ_{-1}=%s Σχ=%s", name, chiIn, chiSum)
		}
		// Pattern: right multiset of destinations, ordered by position
		// (ties as the Figure-3 rule breaks them).
		if ns.Pattern != nil {
			counts := make([]int64, len(ns.Psi)+1) // indexed by Dest+1, Self first
			last := Slot{den: 1}
			for _, sl := range ns.Pattern {
				if sl.Dest < Self || int(sl.Dest) >= len(ns.Psi) {
					return fmt.Errorf("node %s: pattern slot for unknown destination %d", name, sl.Dest)
				}
				counts[sl.Dest+1]++
				if sl.k <= 0 || sl.k >= sl.den {
					return fmt.Errorf("node %s: pattern position %s outside (0,1)", name, sl.Pos())
				}
				if !before(last, sl) {
					return fmt.Errorf("node %s: pattern slots out of order", name)
				}
				last = sl
			}
			if counts[0] != ns.Psi0.Int64() {
				return fmt.Errorf("node %s: pattern has %d self slots, want %s", name, counts[0], ns.Psi0)
			}
			for j, p := range ns.Psi {
				if counts[j+1] != p.Int64() {
					return fmt.Errorf("node %s: pattern has %d slots for child %d, want %s", name, counts[j+1], j, p)
				}
			}
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
	if ns.Pattern != nil && len(ns.Pattern) > 0 && len(ns.Pattern) <= 64 {
		b.WriteString(" | order: ")
		for i, sl := range ns.Pattern {
			if i > 0 {
				b.WriteByte(' ')
			}
			if sl.Dest == Self {
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
