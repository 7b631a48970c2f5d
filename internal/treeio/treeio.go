// Package treeio reads and writes platform trees.
//
// Three formats are supported:
//
//   - The line-oriented text format for hand-written platforms and CLI
//     use, defined next to the tree it describes: tree.Tree.Text writes
//     it and tree.ParseText reads it. ParseText and WriteText here are
//     thin wrappers.
//   - JSON, as a nested structure (for tooling).
//   - Graphviz DOT export (for figures like the paper's Figure 1/4(a)).
package treeio

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"bwc/internal/rat"
	"bwc/internal/tree"
)

// ParseText reads the line-oriented format from r (tree.ParseText).
func ParseText(r io.Reader) (*tree.Tree, error) { return tree.ParseText(r) }

// ParseTextString is ParseText on a string.
func ParseTextString(s string) (*tree.Tree, error) {
	return ParseText(strings.NewReader(s))
}

// WriteText writes t in the line-oriented format (tree.Text: preorder,
// so the file round-trips through ParseText preserving child order).
func WriteText(w io.Writer, t *tree.Tree) error {
	if t.Len() == 0 {
		return fmt.Errorf("treeio: empty tree")
	}
	_, err := io.WriteString(w, t.Text())
	return err
}

// TextString renders t in the line-oriented format.
func TextString(t *tree.Tree) string { return t.Text() }

// jsonNode is the nested JSON shape.
type jsonNode struct {
	Name     string     `json:"name"`
	Proc     string     `json:"proc"`           // rational or "inf"
	Comm     string     `json:"comm,omitempty"` // absent for the root
	Ret      string     `json:"ret,omitempty"`  // result-return time d; absent when zero
	Children []jsonNode `json:"children,omitempty"`
}

// MarshalJSON encodes t as nested JSON.
func MarshalJSON(t *tree.Tree) ([]byte, error) {
	if t.Len() == 0 {
		return nil, fmt.Errorf("treeio: empty tree")
	}
	var build func(id tree.NodeID) jsonNode
	build = func(id tree.NodeID) jsonNode {
		n := jsonNode{Name: t.Name(id), Proc: "inf"}
		if w, ok := t.ProcTime(id); ok {
			n.Proc = w.String()
		}
		if t.Parent(id) != tree.None {
			n.Comm = t.CommTime(id).String()
			if d := t.ReturnTime(id); !d.IsZero() {
				n.Ret = d.String()
			}
		}
		for _, c := range t.Children(id) {
			n.Children = append(n.Children, build(c))
		}
		return n
	}
	return json.MarshalIndent(build(t.Root()), "", "  ")
}

// UnmarshalJSON decodes a nested JSON platform.
func UnmarshalJSON(data []byte) (*tree.Tree, error) {
	var root jsonNode
	if err := json.Unmarshal(data, &root); err != nil {
		return nil, err
	}
	b := tree.NewBuilder()
	var add func(n jsonNode, parent string) error
	add = func(n jsonNode, parent string) error {
		if parent == "" {
			if n.Proc == "inf" {
				b.RootSwitch(n.Name)
			} else {
				proc, err := rat.Parse(n.Proc)
				if err != nil {
					return fmt.Errorf("treeio: node %q: proc: %v", n.Name, err)
				}
				b.Root(n.Name, proc)
			}
		} else {
			comm, err := rat.Parse(n.Comm)
			if err != nil {
				return fmt.Errorf("treeio: node %q: comm: %v", n.Name, err)
			}
			if n.Proc == "inf" {
				b.SwitchChild(parent, n.Name, comm)
			} else {
				proc, err := rat.Parse(n.Proc)
				if err != nil {
					return fmt.Errorf("treeio: node %q: proc: %v", n.Name, err)
				}
				b.Child(parent, n.Name, comm, proc)
			}
			if n.Ret != "" {
				ret, err := rat.Parse(n.Ret)
				if err != nil {
					return fmt.Errorf("treeio: node %q: ret: %v", n.Name, err)
				}
				b.Return(n.Name, ret)
			}
		}
		for _, c := range n.Children {
			if err := add(c, n.Name); err != nil {
				return err
			}
		}
		return nil
	}
	if err := add(root, ""); err != nil {
		return nil, err
	}
	return b.Build()
}

// DOT renders t as a Graphviz digraph; node labels carry w, edge labels
// carry c (the Figure 1 convention). highlight, if non-nil, marks nodes
// (e.g. the BW-First visited set) with a filled style.
func DOT(t *tree.Tree, highlight func(tree.NodeID) bool) string {
	var b strings.Builder
	b.WriteString("digraph platform {\n  rankdir=TB;\n  node [shape=circle];\n")
	if t.Len() > 0 {
		t.Walk(t.Root(), func(id tree.NodeID) bool {
			w := "inf"
			if pw, ok := t.ProcTime(id); ok {
				w = pw.String()
			}
			style := ""
			if highlight != nil && highlight(id) {
				style = `, style=filled, fillcolor="#a8dadc"`
			}
			fmt.Fprintf(&b, "  %q [label=\"%s\\nw=%s\"%s];\n", t.Name(id), t.Name(id), w, style)
			if p := t.Parent(id); p != tree.None {
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
func DOTWithRates(t *tree.Tree, alpha func(tree.NodeID) rat.R, edgeRate func(tree.NodeID) rat.R) string {
	var b strings.Builder
	b.WriteString("digraph schedule {\n  rankdir=TB;\n  node [shape=circle];\n")
	if t.Len() > 0 {
		t.Walk(t.Root(), func(id tree.NodeID) bool {
			a := alpha(id)
			style := ""
			if a.IsPos() {
				style = `, style=filled, fillcolor="#a8dadc"`
			}
			fmt.Fprintf(&b, "  %q [label=\"%s\\nα=%s\"%s];\n", t.Name(id), t.Name(id), a, style)
			if p := t.Parent(id); p != tree.None {
				fmt.Fprintf(&b, "  %q -> %q [label=\"%s / %s\"];\n",
					t.Name(p), t.Name(id), t.CommTime(id), edgeRate(id))
			}
			return true
		})
	}
	b.WriteString("}\n")
	return b.String()
}
