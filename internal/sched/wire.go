package sched

import (
	"encoding/json"
	"fmt"

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

// MarshalDeployment encodes the schedule's active nodes as JSON.
func (s *Schedule) MarshalDeployment() ([]byte, error) {
	var nodes []wireNode
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		if !ns.Active {
			continue
		}
		w := wireNode{
			Name: s.Tree.Name(ns.Node),
			TW:   ns.TW.String(),
			Psi0: ns.Psi0.String(),
		}
		if s.ResultReturn && ns.Node != s.Tree.Root() {
			w.Ret = s.Tree.ReturnTime(ns.Node).String()
			if !ns.ReturnRate.IsZero() {
				w.RetRate = ns.ReturnRate.String()
			}
		}
		for j, p := range ns.Psi {
			if p.Sign() > 0 {
				if w.Psi == nil {
					w.Psi = map[string]string{}
				}
				w.Psi[s.Tree.Name(s.Tree.Children(ns.Node)[j])] = p.String()
			}
		}
		nodes = append(nodes, w)
	}
	return json.MarshalIndent(nodes, "", "  ")
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
