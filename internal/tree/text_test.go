package tree_test

import (
	"strings"
	"testing"

	"bwc/internal/rat"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

const sampleText = `
# demo platform
P0 -  -   3
P1 P0 1   2
P2 P0 2   1     # slow link
SW P0 1   inf
P4 SW 1/2 4
`

func parse(s string) (*tree.Tree, error) { return tree.ParseText(strings.NewReader(s)) }

func TestParseText(t *testing.T) {
	tr, err := parse(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Fatalf("len = %d", tr.Len())
	}
	if !tr.IsSwitch(tr.MustLookup("SW")) {
		t.Fatal("SW not a switch")
	}
	if got := tr.CommTime(tr.MustLookup("P4")); !got.Equal(rat.New(1, 2)) {
		t.Fatalf("comm(P4) = %s", got)
	}
	if w, ok := tr.ProcTime(tr.MustLookup("P0")); !ok || !w.Equal(rat.FromInt(3)) {
		t.Fatalf("proc(P0) = %s %v", w, ok)
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := map[string]string{
		"P0 - - 3\nP1":              "want 4 or 5 fields",
		"P0 - - 3\nQ0 - - 2":        "second root",
		"P0 - 1 3":                  "root must have comm '-'",
		"P0 - - bogus":              "proc",
		"P0 - - 3\nP1 P0 bogus 2":   "comm",
		"P0 - - 3\nP1 P0 1 wat":     "proc",
		"P0 - - 3\nP1 ZZ 1 2":       "unknown parent",
		"":                          "no root",
		"P0 - - 0":                  "processing time",
		"P0 - - inf\nP1 P0 0 1":     "communication time",
		"P0 - - 3\nP0 P0 1 1":       "duplicate",
		"# only comments\n   \n\t ": "no root",
	}
	for in, want := range cases {
		_, err := parse(in)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseText(%q) err = %v, want containing %q", in, err, want)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	for _, k := range treegen.Kinds {
		orig := treegen.Generate(k, 25, 3)
		back, err := parse(orig.Text())
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !orig.Equal(back) {
			t.Fatalf("%v: text round trip changed the tree", k)
		}
	}
}

// TestWriteTextEmpty: the empty tree renders as "", which the parser
// refuses, so an empty platform cannot round-trip into a valid one.
func TestWriteTextEmpty(t *testing.T) {
	if got := (&tree.Tree{}).Text(); got != "" {
		t.Fatalf("empty tree renders %q", got)
	}
	if _, err := parse(""); err == nil || !strings.Contains(err.Error(), "no root") {
		t.Fatalf("empty text parsed, err %v", err)
	}
}

func TestDOT(t *testing.T) {
	tr, err := parse(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	dot := tr.DOT(func(id tree.NodeID) bool { return tr.Name(id) == "P1" })
	for _, frag := range []string{
		"digraph platform",
		`"P0" -> "P1" [label="1"]`,
		`w=inf`,
		`"P1" [label="P1\nw=2", style=filled`,
		`"SW" -> "P4" [label="1/2"]`,
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
	// Without highlight no fill styles appear.
	plain := tr.DOT(nil)
	if strings.Contains(plain, "filled") {
		t.Fatal("unhighlighted DOT has fills")
	}
}

func TestDOTWithRates(t *testing.T) {
	tr, err := parse(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	alpha := func(id tree.NodeID) rat.R {
		if tr.Name(id) == "P1" {
			return rat.New(1, 2)
		}
		return rat.Zero
	}
	edge := func(id tree.NodeID) rat.R { return rat.New(1, 3) }
	dot := tr.DOTWithRates(alpha, edge)
	for _, frag := range []string{
		`"P1" [label="P1\nα=1/2", style=filled`,
		`"P0" [label="P0\nα=0"]`,
		`"P0" -> "P1" [label="1 / 1/3"]`,
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOTWithRates missing %q:\n%s", frag, dot)
		}
	}
}

// FuzzParseText checks that arbitrary input never panics the parser and
// that every successfully parsed platform round-trips through Text.
func FuzzParseText(f *testing.F) {
	f.Add("P0 - - 3\nP1 P0 1 2\n")
	f.Add("# comment only\n")
	f.Add("P0 - - inf\nSW P0 1/2 inf\nW SW 2 5\n")
	f.Add("P0 - - 0.5")
	f.Add("a - - 1\nb a 1 1\nc b 1/3 7/2")
	f.Add("x - 1 1")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := parse(input)
		if err != nil {
			return
		}
		out := tr.Text()
		back, err := parse(out)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v\n%s", err, out)
		}
		if !tr.Equal(back) {
			t.Fatalf("round trip changed the tree:\nin:  %s\nout: %s", tr, back)
		}
	})
}
