// Package tree models the heterogeneous tree-shaped computing platforms of
// the paper: node-weighted, edge-weighted trees T = (V, E, w, c) where node
// P_i needs w_i time units per task and the edge from its parent needs c_i
// time units per task (Section 3 of the paper).
//
// Conventions carried throughout the repository:
//
//   - w_i > 0 is required; w_i = +inf (a node with no computing power, e.g.
//     a network switch) is expressed by constructing the node as a switch,
//     in which case its computing rate r_i = 1/w_i is exactly 0.
//   - c_i > 0 is required for every non-root node. The root has no incoming
//     edge.
//   - Children keep their insertion order; that order is the tie-breaker
//     whenever two children have equal communication times.
//
// All quantities are exact rationals (internal/rat).
package tree

import (
	"fmt"
	"strings"
	"sync/atomic"
	"unicode"

	"bwc/internal/bwcerr"
	"bwc/internal/rat"
)

// NodeID identifies a node within one Tree. IDs are dense indices assigned
// in insertion order, so they double as stable array indices. The root of a
// valid tree always has ID 0.
type NodeID int

// None is the NodeID used where no node applies (e.g. the root's parent).
const None NodeID = -1

type node struct {
	name     string
	procTime rat.R // w_i; meaningful only when hasProc
	hasProc  bool  // false => switch (w = +inf, rate 0)
	commIn   rat.R // c_i, time to receive one task from the parent; zero for the root
	retOut   rat.R // d_i, time to send one result back to the parent; zero = free returns (Section 9)
	parent   NodeID
	children []NodeID
}

// Tree is an immutable heterogeneous platform tree. Construct one with a
// Builder; the zero value is an empty tree with no root.
type Tree struct {
	nodes  []node
	byName map[string]NodeID
	// fp memoizes Fingerprint. Every constructor (Builder.Build, Clone
	// and the With* derivations) returns a tree with it empty, so a
	// derived platform never inherits its parent's key.
	fp atomic.Pointer[string]
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.nodes) }

// Root returns the root's NodeID (always 0 for non-empty trees) or None for
// an empty tree.
func (t *Tree) Root() NodeID {
	if len(t.nodes) == 0 {
		return None
	}
	return 0
}

func (t *Tree) check(id NodeID) {
	if id < 0 || int(id) >= len(t.nodes) {
		panic(fmt.Sprintf("tree: invalid NodeID %d (tree has %d nodes)", id, len(t.nodes)))
	}
}

// Name returns the node's name.
func (t *Tree) Name(id NodeID) string { t.check(id); return t.nodes[id].name }

// Lookup returns the node with the given name.
func (t *Tree) Lookup(name string) (NodeID, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// MustLookup is Lookup that panics when the name is unknown.
func (t *Tree) MustLookup(name string) NodeID {
	id, ok := t.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("tree: unknown node %q", name))
	}
	return id
}

// IsSwitch reports whether the node has no computing power (w = +inf).
func (t *Tree) IsSwitch(id NodeID) bool { t.check(id); return !t.nodes[id].hasProc }

// ProcTime returns the node's processing time w_i per task. ok is false for
// switches (w = +inf).
func (t *Tree) ProcTime(id NodeID) (w rat.R, ok bool) {
	t.check(id)
	n := t.nodes[id]
	return n.procTime, n.hasProc
}

// Rate returns the node's computing rate r_i = 1/w_i (0 for switches).
func (t *Tree) Rate(id NodeID) rat.R {
	t.check(id)
	n := t.nodes[id]
	if !n.hasProc {
		return rat.Zero
	}
	return n.procTime.Inv()
}

// CommTime returns c_i, the time for the node's parent to send it one task.
// It panics for the root, which has no incoming edge.
func (t *Tree) CommTime(id NodeID) rat.R {
	t.check(id)
	if t.nodes[id].parent == None {
		panic("tree: root has no incoming edge")
	}
	return t.nodes[id].commIn
}

// Bandwidth returns b_i = 1/c_i, the task rate of the node's incoming edge.
func (t *Tree) Bandwidth(id NodeID) rat.R {
	return t.CommTime(id).Inv()
}

// ReturnTime returns d_i, the time for the node to send one task's result
// back to its parent on the same edge (Section 9's separate return flow).
// It is zero by default — results are free, the forward-only model — and
// zero for the root, which has nowhere to return results to.
func (t *Tree) ReturnTime(id NodeID) rat.R {
	t.check(id)
	return t.nodes[id].retOut
}

// HasResultReturn reports whether any node has a non-zero result-return
// time: whether the platform models Section 9's upward result flows at
// all. Forward-only code paths key off this to stay byte-identical when
// d ≡ 0.
func (t *Tree) HasResultReturn() bool {
	for i := range t.nodes {
		if !t.nodes[i].retOut.IsZero() {
			return true
		}
	}
	return false
}

// Parent returns the node's parent, or None for the root.
func (t *Tree) Parent(id NodeID) NodeID { t.check(id); return t.nodes[id].parent }

// Children returns the node's children in insertion order. The returned
// slice must not be modified.
func (t *Tree) Children(id NodeID) []NodeID { t.check(id); return t.nodes[id].children }

// Depth returns the number of edges from the root to the node (0 for the
// root).
func (t *Tree) Depth(id NodeID) int {
	t.check(id)
	d := 0
	for p := t.nodes[id].parent; p != None; p = t.nodes[p].parent {
		d++
	}
	return d
}

// Height returns the maximum depth over all nodes (0 for a single node or
// an empty tree).
func (t *Tree) Height() int {
	h := 0
	for id := range t.nodes {
		if d := t.Depth(NodeID(id)); d > h {
			h = d
		}
	}
	return h
}

// Walk visits the subtree rooted at id in preorder (parent before children,
// children in insertion order). Returning false from fn stops the walk.
func (t *Tree) Walk(id NodeID, fn func(NodeID) bool) {
	t.check(id)
	var rec func(NodeID) bool
	rec = func(n NodeID) bool {
		if !fn(n) {
			return false
		}
		for _, c := range t.nodes[n].children {
			if !rec(c) {
				return false
			}
		}
		return true
	}
	rec(id)
}

// PostOrder returns every node of the subtree rooted at id in postorder
// (children before parent).
func (t *Tree) PostOrder(id NodeID) []NodeID {
	var out []NodeID
	var rec func(NodeID)
	rec = func(n NodeID) {
		for _, c := range t.nodes[n].children {
			rec(c)
		}
		out = append(out, n)
	}
	t.check(id)
	rec(id)
	return out
}

// TotalRate returns the sum of the computing rates of all nodes: an upper
// bound on any schedule's throughput regardless of bandwidth.
func (t *Tree) TotalRate() rat.R {
	sum := rat.Zero
	for id := range t.nodes {
		sum = sum.Add(t.Rate(NodeID(id)))
	}
	return sum
}

// MaxChildBandwidth returns max{b_i | i in children(id)} or zero when the
// node has no children. Together with the node's own rate this bounds what
// the subtree can consume per time unit under the single-port model.
func (t *Tree) MaxChildBandwidth(id NodeID) rat.R {
	best := rat.Zero
	for _, c := range t.Children(id) {
		best = rat.Max(best, t.Bandwidth(c))
	}
	return best
}

// Equal reports whether two trees are structurally identical: same shape
// with equal names, weights, switch flags and child order. Internal node
// numbering does not matter, so a tree equals its serialization round trip
// even if construction order differed.
func (t *Tree) Equal(u *Tree) bool {
	if t.Len() != u.Len() {
		return false
	}
	if t.Len() == 0 {
		return true
	}
	var eq func(a, b NodeID) bool
	eq = func(a, b NodeID) bool {
		an, bn := t.nodes[a], u.nodes[b]
		if an.name != bn.name || an.hasProc != bn.hasProc {
			return false
		}
		if an.hasProc && !an.procTime.Equal(bn.procTime) {
			return false
		}
		if (an.parent == None) != (bn.parent == None) {
			return false
		}
		if an.parent != None && !an.commIn.Equal(bn.commIn) {
			return false
		}
		if !an.retOut.Equal(bn.retOut) {
			return false
		}
		if len(an.children) != len(bn.children) {
			return false
		}
		for j := range an.children {
			if !eq(an.children[j], bn.children[j]) {
				return false
			}
		}
		return true
	}
	return eq(t.Root(), u.Root())
}

// String returns a compact single-line description, e.g.
// "P0(w=3)[P1(c=1,w=2) P2(c=2,w=inf)]".
func (t *Tree) String() string {
	if t.Len() == 0 {
		return "(empty)"
	}
	var rec func(NodeID) string
	rec = func(id NodeID) string {
		n := t.nodes[id]
		w := "inf"
		if n.hasProc {
			w = n.procTime.String()
		}
		s := n.name
		if n.parent == None {
			s += fmt.Sprintf("(w=%s)", w)
		} else if n.retOut.IsZero() {
			s += fmt.Sprintf("(c=%s,w=%s)", n.commIn, w)
		} else {
			s += fmt.Sprintf("(c=%s,d=%s,w=%s)", n.commIn, n.retOut, w)
		}
		if len(n.children) > 0 {
			s += "["
			for i, c := range n.children {
				if i > 0 {
					s += " "
				}
				s += rec(c)
			}
			s += "]"
		}
		return s
	}
	return rec(0)
}

// Builder constructs trees incrementally. Errors accumulate and are
// reported by Build, so call sites can chain additions without per-call
// error handling.
type Builder struct {
	t   Tree
	err error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{t: Tree{byName: make(map[string]NodeID)}}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format+": %w", append(args, bwcerr.ErrNotATree)...)
	}
}

func (b *Builder) addNode(name string, parent NodeID, comm rat.R, proc rat.R, hasProc bool) {
	if b.err != nil {
		return
	}
	if name == "" {
		b.fail("tree: empty node name")
		return
	}
	// Text splits at spaces, cuts comments at '#' and reads "-" as no
	// parent: such a name renders a text, and a fingerprint, no parse gives back.
	if name == "-" || strings.ContainsFunc(name, func(r rune) bool { return r == '#' || unicode.IsSpace(r) }) {
		b.fail("tree: node name %q holds a space or '#', or is \"-\", which the platform text cannot carry", name)
		return
	}
	if _, dup := b.t.byName[name]; dup {
		b.fail("tree: duplicate node name %q", name)
		return
	}
	if hasProc && !proc.IsPos() {
		b.fail("tree: node %q: processing time must be > 0 (got %s); use a switch for w=+inf", name, proc)
		return
	}
	if parent != None && !comm.IsPos() {
		b.fail("tree: node %q: communication time must be > 0 (got %s)", name, comm)
		return
	}
	id := NodeID(len(b.t.nodes))
	b.t.nodes = append(b.t.nodes, node{
		name:     name,
		procTime: proc,
		hasProc:  hasProc,
		commIn:   comm,
		parent:   parent,
	})
	b.t.byName[name] = id
	if parent != None {
		b.t.nodes[parent].children = append(b.t.nodes[parent].children, id)
	}
}

// Root adds the root node with processing time proc. It must be the first
// addition.
func (b *Builder) Root(name string, proc rat.R) *Builder {
	if len(b.t.nodes) != 0 {
		b.fail("tree: root must be added first (and only once)")
		return b
	}
	b.addNode(name, None, rat.Zero, proc, true)
	return b
}

// RootSwitch adds a root with no computing power (w = +inf).
func (b *Builder) RootSwitch(name string) *Builder {
	if len(b.t.nodes) != 0 {
		b.fail("tree: root must be added first (and only once)")
		return b
	}
	b.addNode(name, None, rat.Zero, rat.Zero, false)
	return b
}

func (b *Builder) parentID(parent string) (NodeID, bool) {
	if b.err != nil {
		return None, false
	}
	id, ok := b.t.byName[parent]
	if !ok {
		b.fail("tree: unknown parent %q", parent)
		return None, false
	}
	return id, true
}

// Child adds a computing node under parent with communication time comm and
// processing time proc.
func (b *Builder) Child(parent, name string, comm, proc rat.R) *Builder {
	if p, ok := b.parentID(parent); ok {
		b.addNode(name, p, comm, proc, true)
	}
	return b
}

// SwitchChild adds a node with no computing power (w = +inf) under parent.
func (b *Builder) SwitchChild(parent, name string, comm rat.R) *Builder {
	if p, ok := b.parentID(parent); ok {
		b.addNode(name, p, comm, rat.Zero, false)
	}
	return b
}

// Return sets the result-return time d of an already-added non-root node:
// the time it needs to push one task's result back up its incoming edge
// (Section 9). d must be >= 0; zero (the default) models free returns.
func (b *Builder) Return(name string, d rat.R) *Builder {
	if b.err != nil {
		return b
	}
	id, ok := b.t.byName[name]
	if !ok {
		b.fail("tree: unknown node %q", name)
		return b
	}
	if b.t.nodes[id].parent == None {
		b.fail("tree: node %q is the root; it has no return edge", name)
		return b
	}
	if d.Sign() < 0 {
		b.fail("tree: node %q: result-return time must be >= 0 (got %s)", name, d)
		return b
	}
	b.t.nodes[id].retOut = d
	return b
}

// Build finalizes the tree. The Builder must not be reused afterwards.
func (b *Builder) Build() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.t.nodes) == 0 {
		return nil, fmt.Errorf("tree: no root: %w", bwcerr.ErrNotATree)
	}
	return &Tree{nodes: b.t.nodes, byName: b.t.byName}, nil
}

// MustBuild is Build that panics on error; intended for tests and examples.
func (b *Builder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	u := &Tree{
		nodes:  make([]node, len(t.nodes)),
		byName: make(map[string]NodeID, len(t.byName)),
	}
	copy(u.nodes, t.nodes)
	for i := range u.nodes {
		cs := make([]NodeID, len(t.nodes[i].children))
		copy(cs, t.nodes[i].children)
		u.nodes[i].children = cs
	}
	for k, v := range t.byName {
		u.byName[k] = v
	}
	return u
}

// WithCommTime returns a copy of the tree with node id's incoming
// communication time replaced. Used to model platform dynamics (a bandwidth
// drop on one link) without mutating the original platform.
func (t *Tree) WithCommTime(id NodeID, comm rat.R) (*Tree, error) {
	t.check(id)
	if t.nodes[id].parent == None {
		return nil, fmt.Errorf("tree: node %q is the root; it has no incoming edge", t.nodes[id].name)
	}
	if !comm.IsPos() {
		return nil, fmt.Errorf("tree: communication time must be > 0 (got %s)", comm)
	}
	u := t.Clone()
	u.nodes[id].commIn = comm
	return u, nil
}

// WithReturnTime returns a copy of the tree with node id's result-return
// time replaced (d must be >= 0; zero restores the forward-only model on
// that edge). The root has no return edge.
func (t *Tree) WithReturnTime(id NodeID, d rat.R) (*Tree, error) {
	t.check(id)
	if t.nodes[id].parent == None {
		return nil, fmt.Errorf("tree: node %q is the root; it has no return edge", t.nodes[id].name)
	}
	if d.Sign() < 0 {
		return nil, fmt.Errorf("tree: result-return time must be >= 0 (got %s)", d)
	}
	u := t.Clone()
	u.nodes[id].retOut = d
	return u, nil
}

// WithUniformReturnTime returns a copy of the tree with every non-root
// node's result-return time set to d (>= 0): the uniform Section-9
// platform the counter-example uses.
func (t *Tree) WithUniformReturnTime(d rat.R) (*Tree, error) {
	if d.Sign() < 0 {
		return nil, fmt.Errorf("tree: result-return time must be >= 0 (got %s)", d)
	}
	u := t.Clone()
	for i := range u.nodes {
		if u.nodes[i].parent != None {
			u.nodes[i].retOut = d
		}
	}
	return u, nil
}

// WithReturnTimes returns a copy of the tree with every node's
// result-return time set from ds, indexed by NodeID (one clone, unlike
// chained WithReturnTime calls). The root's entry must be zero; every
// entry must be >= 0.
func (t *Tree) WithReturnTimes(ds []rat.R) (*Tree, error) {
	if len(ds) != len(t.nodes) {
		return nil, fmt.Errorf("tree: %d return times for %d nodes", len(ds), len(t.nodes))
	}
	u := t.Clone()
	for i, d := range ds {
		if u.nodes[i].parent == None {
			if !d.IsZero() {
				return nil, fmt.Errorf("tree: node %q is the root; it has no return edge", u.nodes[i].name)
			}
			continue
		}
		if d.Sign() < 0 {
			return nil, fmt.Errorf("tree: node %q: result-return time must be >= 0 (got %s)", u.nodes[i].name, d)
		}
		u.nodes[i].retOut = d
	}
	return u, nil
}

// WithFoldedReturns returns a forward-only copy of the tree with every
// link's result-return time folded into its forward time: c' = c + d and
// d' = 0 (Section 9's folded model, in which both flows serialize on one
// port pair). It makes one clone however many links carry returns.
func (t *Tree) WithFoldedReturns() *Tree {
	u := t.Clone()
	for i := range u.nodes {
		n := &u.nodes[i]
		if n.parent == None {
			continue
		}
		if !n.retOut.IsZero() {
			n.commIn = n.commIn.Add(n.retOut)
		}
		n.retOut = rat.Zero
	}
	return u
}

// WithProcTime returns a copy of the tree with node id's processing time
// replaced (proc must be > 0).
func (t *Tree) WithProcTime(id NodeID, proc rat.R) (*Tree, error) {
	t.check(id)
	if !proc.IsPos() {
		return nil, fmt.Errorf("tree: processing time must be > 0 (got %s)", proc)
	}
	u := t.Clone()
	u.nodes[id].procTime = proc
	u.nodes[id].hasProc = true
	return u, nil
}
