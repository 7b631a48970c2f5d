package tree

import (
	"fmt"
	"strings"

	"bwc/internal/rat"
)

// DOT renders t as a Graphviz digraph (for figures like the paper's
// Figure 1/4(a)); node labels carry w, edge labels carry c (the Figure 1
// convention). highlight, if non-nil, marks nodes (e.g. the BW-First
// visited set) with a filled style.
func (t *Tree) DOT(highlight func(NodeID) bool) string {
	var b strings.Builder
	b.WriteString("digraph platform {\n  rankdir=TB;\n  node [shape=circle];\n")
	if t.Len() > 0 {
		t.Walk(t.Root(), func(id NodeID) bool {
			w := "inf"
			if pw, ok := t.ProcTime(id); ok {
				w = pw.String()
			}
			style := ""
			if highlight != nil && highlight(id) {
				style = `, style=filled, fillcolor="#a8dadc"`
			}
			fmt.Fprintf(&b, "  %q [label=\"%s\\nw=%s\"%s];\n", t.Name(id), t.Name(id), w, style)
			if p := t.Parent(id); p != None {
				if d := t.ReturnTime(id); !d.IsZero() {
					fmt.Fprintf(&b, "  %q -> %q [label=\"%s / d=%s\"];\n", t.Name(p), t.Name(id), t.CommTime(id), d)
				} else {
					fmt.Fprintf(&b, "  %q -> %q [label=\"%s\"];\n", t.Name(p), t.Name(id), t.CommTime(id))
				}
			}
			return true
		})
	}
	b.WriteString("}\n")
	return b.String()
}

// DOTWithRates renders the platform with its optimal steady state overlaid:
// used nodes are filled and labeled with their compute rate α, edges carry
// "c / η" (link time and steady task rate). alpha and edgeRate are indexed
// by NodeID; unvisited nodes stay unfilled.
func (t *Tree) DOTWithRates(alpha, edgeRate func(NodeID) rat.R) string {
	var b strings.Builder
	b.WriteString("digraph schedule {\n  rankdir=TB;\n  node [shape=circle];\n")
	if t.Len() > 0 {
		t.Walk(t.Root(), func(id NodeID) bool {
			a := alpha(id)
			style := ""
			if a.IsPos() {
				style = `, style=filled, fillcolor="#a8dadc"`
			}
			fmt.Fprintf(&b, "  %q [label=\"%s\\nα=%s\"%s];\n", t.Name(id), t.Name(id), a, style)
			if p := t.Parent(id); p != None {
				fmt.Fprintf(&b, "  %q -> %q [label=\"%s / %s\"];\n",
					t.Name(p), t.Name(id), t.CommTime(id), edgeRate(id))
			}
			return true
		})
	}
	b.WriteString("}\n")
	return b.String()
}
