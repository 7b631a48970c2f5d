package tree_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"strings"
	"testing"

	"bwc/internal/bwcerr"
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

// parseTextReference is the line reader ParseString replaced: a
// bufio.Scanner over lines, strings.Fields over each, and every rational
// through math/big. It is the oracle FuzzParseText compares with.
func parseTextReference(r io.Reader) (*tree.Tree, error) {
	parseRat := func(s string) (rat.R, error) {
		br, ok := new(big.Rat).SetString(s)
		if !ok {
			return rat.R{}, fmt.Errorf("rat: cannot parse %q", s)
		}
		return rat.FromBigRat(br), nil
	}
	b := tree.NewBuilder()
	sc := bufio.NewScanner(r)
	lineNo := 0
	seenRoot := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 4 && len(fields) != 5 {
			return nil, fmt.Errorf("treeio: line %d: want 4 or 5 fields (name parent comm proc [ret]), got %d: %w", lineNo, len(fields), bwcerr.ErrNotATree)
		}
		name, parent, commS, procS := fields[0], fields[1], fields[2], fields[3]
		retS := ""
		if len(fields) == 5 {
			retS = fields[4]
		}
		if parent == "-" {
			if seenRoot {
				return nil, fmt.Errorf("treeio: line %d: second root %q: %w", lineNo, name, bwcerr.ErrNotATree)
			}
			if commS != "-" {
				return nil, fmt.Errorf("treeio: line %d: root must have comm '-': %w", lineNo, bwcerr.ErrNotATree)
			}
			if retS != "" && retS != "-" {
				return nil, fmt.Errorf("treeio: line %d: root must have ret '-': %w", lineNo, bwcerr.ErrNotATree)
			}
			seenRoot = true
			if procS == "inf" {
				b.RootSwitch(name)
			} else {
				proc, err := parseRat(procS)
				if err != nil {
					return nil, fmt.Errorf("treeio: line %d: proc: %v: %w", lineNo, err, bwcerr.ErrNotATree)
				}
				b.Root(name, proc)
			}
			continue
		}
		comm, err := parseRat(commS)
		if err != nil {
			return nil, fmt.Errorf("treeio: line %d: comm: %v: %w", lineNo, err, bwcerr.ErrNotATree)
		}
		if procS == "inf" {
			b.SwitchChild(parent, name, comm)
		} else {
			proc, err := parseRat(procS)
			if err != nil {
				return nil, fmt.Errorf("treeio: line %d: proc: %v: %w", lineNo, err, bwcerr.ErrNotATree)
			}
			b.Child(parent, name, comm, proc)
		}
		if retS != "" && retS != "-" {
			ret, err := parseRat(retS)
			if err != nil {
				return nil, fmt.Errorf("treeio: line %d: ret: %v: %w", lineNo, err, bwcerr.ErrNotATree)
			}
			b.Return(name, ret)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}

// FuzzParseText checks ParseString and ParseText against the reference
// reader: both accept the same inputs with Equal trees and the same
// Text, or fail with the same message. Lines over bufio.Scanner's 64 KiB
// token limit, which the reference refuses, are left out. Every parsed
// platform also round-trips through Text.
func FuzzParseText(f *testing.F) {
	f.Add("P0 - - 3\nP1 P0 1 2\n")
	f.Add("# comment only\n")
	f.Add("P0 - - inf\nSW P0 1/2 inf\nW SW 2 5\n")
	f.Add("P0 - - 0.5")
	f.Add("a - - 1\nb a 1 1\nc b 1/3 7/2")
	f.Add("x - 1 1")
	f.Add("")
	f.Add("P0 - - 3\r\nP1 P0 1 2 1/2\r\n\r\nP2 P0 3 4 -\r")
	f.Add("P0\u0085-\u00a0- 3\nP1 P0\u00a01 2")
	f.Add("# header\n  # indented comment\n\t\nP0 - - 3 # trailing\nP1 P0 1 2")
	f.Add("P0 - - 3\nP1 P0 010/3 1_0\nP2 P0 0x10 1e2\nP3 P0 +3 .5\nP4 P0 5. -0")
	f.Add("P0 - - 1234567890123456789\nP1 P0 9223372036854775807/2 1\x85")
	f.Add("P0 - - 3\nP1 P0 1 2 -1\nP2 P0 1\v2 3\fx")
	f.Add("P0 - - 3\nP1 P0 1 2 3 4 5 6\n")
	f.Fuzz(func(t *testing.T, input string) {
		want, werr := parseTextReference(strings.NewReader(input))
		if errors.Is(werr, bufio.ErrTooLong) {
			return
		}
		for _, p := range []func(string) (*tree.Tree, error){tree.ParseString, parse} {
			got, err := p(input)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("err = %v, reference err = %v", err, werr)
			}
			if err != nil {
				if errors.Is(err, bwcerr.ErrNotATree) != errors.Is(werr, bwcerr.ErrNotATree) {
					t.Fatalf("err %v and reference err %v disagree on ErrNotATree", err, werr)
				}
				return
			}
			if !got.Equal(want) || got.Text() != want.Text() {
				t.Fatalf("parsed %s, reference %s", got, want)
			}
		}
		tr, _ := tree.ParseString(input)
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

// TestParseLongLine: a line past bufio.Scanner's 64 KiB token limit,
// which the line reader refused with an error that wrapped no sentinel,
// parses; the name is kept whole.
func TestParseLongLine(t *testing.T) {
	long := strings.Repeat("n", 70000)
	tr, err := tree.ParseString("P0 - - 3\n" + long + " P0 1 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := tr.Lookup(long); !ok || tr.Parent(id) != tr.Root() {
		t.Fatalf("70,000-byte name not found under the root")
	}
	if _, err := parseTextReference(strings.NewReader("P0 - - 3\n" + long + " P0 1 2\n")); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("reference reader err = %v, want bufio.ErrTooLong", err)
	}
}

// TestParsePaddingCostsNothing: blank and comment lines cost nothing,
// neither while parsing nor after. A one-node platform padded with a
// million of them parses in a few kilobytes (sizing the nodes and the
// name index from the line count cost about 180 bytes per padding
// line), and the tree keeps none of the text alive (names sliced out
// of it kept all of it).
func TestParsePaddingCostsNothing(t *testing.T) {
	parse := func() (*tree.Tree, uint64) {
		text := "P0 - - 1\n" + strings.Repeat("\n  # pad\n", 500_000)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := tree.ParseString(text)
		runtime.ReadMemStats(&after)
		if err != nil || tr.Len() != 1 {
			t.Fatalf("parse = %v, %v; want a one-node tree", tr, err)
		}
		return tr, after.TotalAlloc - before.TotalAlloc
	}
	var base, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	tr, allocated := parse()
	runtime.GC()
	runtime.ReadMemStats(&live)
	if allocated > 1<<20 {
		t.Fatalf("parsing one node and 1,000,000 padding lines allocated %d bytes", allocated)
	}
	if kept := int64(live.HeapAlloc) - int64(base.HeapAlloc); kept > 1<<20 {
		t.Fatalf("a one-node tree parsed from 4.5 MB of text keeps %d bytes alive", kept)
	}
	runtime.KeepAlive(tr)
}
