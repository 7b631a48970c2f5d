package sched

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"bwc/internal/jsonw"
	"bwc/internal/rat"
	"bwc/internal/tree"
)

// The deployment wire format carries exactly what each node needs to act
// autonomously — the paper's compact description made concrete: per active
// node, the consuming period T^w and the ψ quantities. Every node
// re-derives its interleaved pattern locally (Section 6.3 is a pure
// function of ψ), so patterns never travel.

// wireNode is one node's entry in the deployment document.
type wireNode struct {
	Name string            `json:"name"`
	TW   string            `json:"tw"`
	Psi0 string            `json:"psi0"`
	Psi  map[string]string `json:"psi,omitempty"` // child name -> ψ
	// Ret is the node's result-return time d and RetRate the steady
	// upward result rate — additive fields present only on result-return
	// platforms (Section 9); older readers ignore them, and the rates
	// are re-derived from the platform tree on unmarshal.
	Ret     string `json:"ret,omitempty"`
	RetRate string `json:"ret_rate,omitempty"`
}

// MarshalDeployment encodes the schedule's active nodes as JSON: an
// array of wireNode objects in node order, indented by two spaces, with
// the psi keys in byte order; "null" when no node is active. These are
// the bytes json.MarshalIndent(nodes, "", "  ") writes for the same
// document, appended directly. It is AppendDeployment at depth 0.
func (s *Schedule) MarshalDeployment() ([]byte, error) {
	return s.AppendDeployment(nil, 0), nil
}

// AppendDeployment appends MarshalDeployment's document to b as it
// reads nested depth levels deep in a document json.Encoder indents by
// two spaces: every line after the first gains 2·depth spaces.
func (s *Schedule) AppendDeployment(b []byte, depth int) []byte {
	active := 0
	for i := range s.Nodes {
		if s.Nodes[i].Active {
			active++
		}
	}
	if active == 0 {
		return append(b, "null"...)
	}
	// nl appends a line break and the indent of nesting level depth+k.
	nl := func(b []byte, k int) []byte {
		b = append(b, '\n')
		for range depth + k {
			b = append(b, ' ', ' ')
		}
		return b
	}
	// 128 bytes hold one node's object with two ψ entries at depth 0.
	b = append(slices.Grow(b, 2+(128+16*depth)*active), '[')
	open := len(b)
	var psi []int // positions of the children with ψ > 0
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		if !ns.Active {
			continue
		}
		if len(b) > open {
			b = append(b, ',')
		}
		b = jsonw.String(append(nl(append(nl(b, 1), '{'), 2), `"name": `...), s.Tree.Name(ns.Node))
		b = ns.TW.Append(append(nl(append(b, ','), 2), `"tw": "`...))
		// Every count fits int64: Build refuses a Ψ + 1 beyond it.
		b = append(strconv.AppendInt(append(nl(append(b, '"', ','), 2), `"psi0": "`...), ns.Psi0.Int64(), 10), '"')
		kids := s.Tree.Children(ns.Node)
		psi = psi[:0]
		for j, p := range ns.Psi {
			if p.Sign() > 0 {
				psi = append(psi, j)
			}
		}
		if len(psi) > 0 {
			slices.SortFunc(psi, func(x, y int) int {
				return strings.Compare(s.Tree.Name(kids[x]), s.Tree.Name(kids[y]))
			})
			b = append(nl(append(b, ','), 2), `"psi": {`...)
			for k, j := range psi {
				if k > 0 {
					b = append(b, ',')
				}
				b = jsonw.String(nl(b, 3), s.Tree.Name(kids[j]))
				b = append(strconv.AppendInt(append(b, `: "`...), ns.Psi[j].Int64(), 10), '"')
			}
			b = append(nl(b, 2), '}')
		}
		if s.ResultReturn && ns.Node != s.Tree.Root() {
			b = append(s.Tree.ReturnTime(ns.Node).Append(append(nl(append(b, ','), 2), `"ret": "`...)), '"')
			if !ns.ReturnRate.IsZero() {
				b = append(ns.ReturnRate.Append(append(nl(append(b, ','), 2), `"ret_rate": "`...)), '"')
			}
		}
		b = append(nl(b, 1), '}')
	}
	return append(nl(b, 0), ']')
}

// UnmarshalDeployment rebuilds a schedule for platform t from a deployment
// document: rates are recovered as η = ψ/T^w and every derived quantity
// (periods, bunches, patterns) is recomputed locally, exactly as a
// deployed node would. The document comes from outside the program, so
// rates that describe no steady state are an error: a negative ψ, a
// computing switch, or a node that does not receive exactly what its
// parent sends it.
func UnmarshalDeployment(t *tree.Tree, data []byte, opt Options) (*Schedule, error) {
	var nodes []wireNode
	if err := json.Unmarshal(data, &nodes); err != nil {
		return nil, err
	}
	rates := make([]nodeRates, t.Len())
	for i := range rates {
		rates[i] = nodeRates{sends: make([]rat.R, len(t.Children(tree.NodeID(i))))}
	}
	for _, w := range nodes {
		id, ok := t.Lookup(w.Name)
		if !ok {
			return nil, fmt.Errorf("sched: deployment names unknown node %q", w.Name)
		}
		tw, err := rat.Parse(w.TW)
		if err != nil {
			return nil, fmt.Errorf("sched: node %q: tw: %v", w.Name, err)
		}
		if !tw.IsPos() {
			return nil, fmt.Errorf("sched: node %q: non-positive T^w", w.Name)
		}
		psi0, err := rat.Parse(w.Psi0)
		if err != nil {
			return nil, fmt.Errorf("sched: node %q: psi0: %v", w.Name, err)
		}
		if psi0.IsNeg() {
			return nil, fmt.Errorf("sched: node %q: negative ψ_0", w.Name)
		}
		if psi0.IsPos() && t.IsSwitch(id) {
			return nil, fmt.Errorf("sched: node %q: a switch cannot compute", w.Name)
		}
		nr := &rates[id]
		nr.alpha = psi0.Div(tw)
		nr.active = true
		children := t.Children(id)
		for childName, pv := range w.Psi {
			cid, ok := t.Lookup(childName)
			if !ok || t.Parent(cid) != id {
				return nil, fmt.Errorf("sched: node %q: %q is not a child", w.Name, childName)
			}
			p, err := rat.Parse(pv)
			if err != nil {
				return nil, fmt.Errorf("sched: node %q: ψ(%s): %v", w.Name, childName, err)
			}
			if p.IsNeg() {
				return nil, fmt.Errorf("sched: node %q: negative ψ(%s)", w.Name, childName)
			}
			for j, c := range children {
				if c == cid {
					nr.sends[j] = p.Div(tw)
				}
			}
		}
	}
	// Flow conservation: without it Lemma 1's φ_{-1} = η_{-1}·T^r need not
	// be an integer.
	for p := range rates {
		for j, c := range t.Children(tree.NodeID(p)) {
			if recv, sent := rates[c].recv(), rates[p].sends[j]; !recv.Equal(sent) {
				return nil, fmt.Errorf("sched: node %q receives %s tasks per time unit but %q sends it %s",
					t.Name(c), recv, t.Name(tree.NodeID(p)), sent)
			}
		}
	}
	return buildFromRates(t, rates, opt)
}
