package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

const sampleGraph = `
# campus platform
node   m    2
switch core
node   w1   3
node   w2   1/2
link m core 1/2
link core w1 1
link core w2 2
link w1 w2 1     # cross link
master m
`

// parseString is ParseText on a string.
func parseString(s string) (*Graph, error) { return ParseText(strings.NewReader(s)) }

// textOf renders g in the format ParseText reads: nodes in id order,
// each link once, then the master. The round-trip tests and
// FuzzParseGraph use it as their generator.
func textOf(g *Graph) string {
	var b strings.Builder
	for id := 0; id < g.Len(); id++ {
		nid := NodeID(id)
		if w, ok := g.ProcTime(nid); ok {
			fmt.Fprintf(&b, "node %s %s\n", g.Name(nid), w)
		} else {
			fmt.Fprintf(&b, "switch %s\n", g.Name(nid))
		}
	}
	for id := 0; id < g.Len(); id++ {
		for _, e := range g.Neighbors(NodeID(id)) {
			if NodeID(id) < e.To { // each link once
				fmt.Fprintf(&b, "link %s %s %s\n", g.Name(NodeID(id)), g.Name(e.To), e.Comm)
			}
		}
	}
	fmt.Fprintf(&b, "master %s\n", g.Name(g.Master()))
	return b.String()
}

func TestParseTextGraph(t *testing.T) {
	g, err := parseString(sampleGraph)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 || g.EdgeCount() != 4 {
		t.Fatalf("len %d edges %d", g.Len(), g.EdgeCount())
	}
	if g.Name(g.Master()) != "m" {
		t.Fatal("master wrong")
	}
	if g.Rate(g.MustLookup("core")).IsPos() {
		t.Fatal("core should be a switch")
	}
}

func TestParseTextGraphErrors(t *testing.T) {
	for in, want := range parseErrorCases {
		_, err := parseString(in)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseText(%q) err = %v, want %q", in, err, want)
		}
	}
}

// parseErrorCases maps malformed graph texts to the error each must
// raise.
var parseErrorCases = map[string]string{
	"wat m 2":                         "unknown directive",
	"node m":                          "node <name> <proc>",
	"node m zz":                       "cannot parse",
	"switch":                          "switch <name>",
	"node m 2\nlink m":                "link <a> <b> <comm>",
	"node m 2\nmaster":                "master <name>",
	"node m 2\nlink m m 1":            "self link",
	"node m 2":                        "no master",
	"":                                "no nodes",
	"node m 2\nnode w 1\nmaster m":    "not connected",
	"node m 2\nnode w 1\nlink m w xx": "cannot parse",
}

func TestGraphTextRoundTrip(t *testing.T) {
	g, err := parseString(sampleGraph)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseString(textOf(g))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != g.Len() || back.EdgeCount() != g.EdgeCount() {
		t.Fatal("round trip changed the graph")
	}
	if back.Name(back.Master()) != g.Name(g.Master()) {
		t.Fatal("master changed")
	}
	// Weights survive: overlays from both graphs must be identical.
	a, err := g.SpanningTree(OverlayGreedy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.SpanningTree(OverlayGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("overlay differs after round trip")
	}
}

func TestGraphTextRoundTripRandom(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := RandomConnected(rand.New(rand.NewSource(seed)), 18, 9, 0.25)
		back, err := parseString(textOf(g))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, _ := g.SpanningTree(OverlayGreedy)
		b, _ := back.SpanningTree(OverlayGreedy)
		if !a.Equal(b) {
			t.Fatalf("seed %d: round trip changed the graph", seed)
		}
	}
}

// FuzzParseGraph checks that arbitrary input never panics the graph
// parser, that every accepted graph round-trips through textOf, and that
// every overlay heuristic either builds a tree spanning the accepted
// graph or returns an error.
func FuzzParseGraph(f *testing.F) {
	f.Add(sampleGraph)
	for in := range parseErrorCases {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := parseString(input)
		if err != nil {
			return
		}
		back, err := parseString(textOf(g))
		if err != nil {
			t.Fatalf("round trip failed to parse: %v\n%s", err, textOf(g))
		}
		if back.Len() != g.Len() || back.EdgeCount() != g.EdgeCount() || textOf(back) != textOf(g) {
			t.Fatalf("round trip changed the graph:\nin:  %s\nout: %s", textOf(g), textOf(back))
		}
		for _, k := range OverlayKinds {
			tr, err := g.SpanningTree(k)
			if err != nil {
				if tr != nil {
					t.Fatalf("%v: tree and error %v", k, err)
				}
				continue
			}
			if tr == nil || tr.Len() != g.Len() {
				t.Fatalf("%v: overlay does not span the %d-node graph", k, g.Len())
			}
		}
	})
}
