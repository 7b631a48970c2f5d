package tree

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"

	"bwc/internal/rat"
)

// sample builds the fork of Figure 2 flavor: root with three children of
// distinct comm times, one of them a switch with its own child.
func sample(t *testing.T) *Tree {
	t.Helper()
	tr, err := NewBuilder().
		Root("P0", rat.FromInt(3)).
		Child("P0", "P1", rat.FromInt(1), rat.FromInt(2)).
		Child("P0", "P2", rat.FromInt(2), rat.FromInt(1)).
		SwitchChild("P0", "P3", rat.FromInt(1)).
		Child("P3", "P4", rat.New(1, 2), rat.FromInt(4)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuilderBasic(t *testing.T) {
	tr := sample(t)
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Root() != 0 || tr.Name(0) != "P0" {
		t.Fatalf("root = %d %q", tr.Root(), tr.Name(0))
	}
	p1 := tr.MustLookup("P1")
	if tr.Parent(p1) != tr.Root() {
		t.Fatal("P1 parent")
	}
	if got := tr.CommTime(p1); !got.Equal(rat.One) {
		t.Fatalf("c(P1) = %s", got)
	}
	if got := tr.Bandwidth(tr.MustLookup("P4")); !got.Equal(rat.Two) {
		t.Fatalf("b(P4) = %s", got)
	}
	if got := tr.Rate(tr.MustLookup("P2")); !got.Equal(rat.One) {
		t.Fatalf("r(P2) = %s", got)
	}
	if !tr.IsSwitch(tr.MustLookup("P3")) {
		t.Fatal("P3 not a switch")
	}
	if got := tr.Rate(tr.MustLookup("P3")); !got.IsZero() {
		t.Fatalf("switch rate = %s", got)
	}
	if _, ok := tr.ProcTime(tr.MustLookup("P3")); ok {
		t.Fatal("switch has proc time")
	}
	if w, ok := tr.ProcTime(tr.MustLookup("P4")); !ok || !w.Equal(rat.FromInt(4)) {
		t.Fatalf("w(P4) = %s %v", w, ok)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Tree, error)
		want  string
	}{
		{"no root", func() (*Tree, error) { return NewBuilder().Build() }, "no root"},
		{"double root", func() (*Tree, error) {
			return NewBuilder().Root("a", rat.One).Root("b", rat.One).Build()
		}, "root must be added first"},
		{"dup name", func() (*Tree, error) {
			return NewBuilder().Root("a", rat.One).Child("a", "a", rat.One, rat.One).Build()
		}, "duplicate"},
		{"unknown parent", func() (*Tree, error) {
			return NewBuilder().Root("a", rat.One).Child("zz", "b", rat.One, rat.One).Build()
		}, "unknown parent"},
		{"zero proc", func() (*Tree, error) {
			return NewBuilder().Root("a", rat.Zero).Build()
		}, "processing time must be > 0"},
		{"negative proc", func() (*Tree, error) {
			return NewBuilder().Root("a", rat.One).Child("a", "b", rat.One, rat.FromInt(-1)).Build()
		}, "processing time must be > 0"},
		{"zero comm", func() (*Tree, error) {
			return NewBuilder().Root("a", rat.One).Child("a", "b", rat.Zero, rat.One).Build()
		}, "communication time must be > 0"},
		{"empty name", func() (*Tree, error) {
			return NewBuilder().Root("", rat.One).Build()
		}, "empty node name"},
		{"name with a space", func() (*Tree, error) {
			return NewBuilder().Root("a b", rat.One).Build()
		}, "platform text cannot carry"},
		{"name with a tab", func() (*Tree, error) {
			return NewBuilder().Root("a", rat.One).Child("a", "b\tc", rat.One, rat.One).Build()
		}, "platform text cannot carry"},
		{"name with '#'", func() (*Tree, error) {
			return NewBuilder().Root("a", rat.One).Child("a", "a#b", rat.One, rat.One).Build()
		}, "platform text cannot carry"},
		{"name with U+00A0", func() (*Tree, error) {
			return NewBuilder().RootSwitch("x\xc2\xa0y").Build()
		}, "platform text cannot carry"},
		{"name with U+2028", func() (*Tree, error) {
			return NewBuilder().Root("a", rat.One).SwitchChild("a", "e\xe2\x80\xa8f", rat.One).Build()
		}, "platform text cannot carry"},
		{"name \"-\"", func() (*Tree, error) {
			return NewBuilder().Root("a", rat.One).Child("a", "-", rat.One, rat.One).Build()
		}, "platform text cannot carry"},
		{"switch root child bad comm", func() (*Tree, error) {
			return NewBuilder().RootSwitch("s").SwitchChild("s", "t", rat.FromInt(-2)).Build()
		}, "communication time must be > 0"},
	}
	for _, c := range cases {
		_, err := c.build()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestBuilderFirstErrorWins(t *testing.T) {
	_, err := NewBuilder().
		Root("a", rat.Zero).                // first error
		Child("a", "a", rat.One, rat.Zero). // would be two more errors
		Build()
	if err == nil || !strings.Contains(err.Error(), "processing time") {
		t.Fatalf("err = %v", err)
	}
}

func TestDepthHeightAncestors(t *testing.T) {
	tr := sample(t)
	p4 := tr.MustLookup("P4")
	if d := tr.Depth(p4); d != 2 {
		t.Fatalf("depth(P4) = %d", d)
	}
	if d := tr.Depth(tr.Root()); d != 0 {
		t.Fatalf("depth(root) = %d", d)
	}
	if h := tr.Height(); h != 2 {
		t.Fatalf("height = %d", h)
	}
	// The parent chain climbs P4's ancestors to the root.
	var anc []string
	for p := tr.Parent(p4); p != None; p = tr.Parent(p) {
		anc = append(anc, tr.Name(p))
	}
	if strings.Join(anc, " ") != "P3 P0" {
		t.Fatalf("ancestors(P4) = %v", anc)
	}
	if tr.Parent(tr.Root()) != None {
		t.Fatal("root has a parent")
	}
}

func TestWalkAndPostOrder(t *testing.T) {
	tr := sample(t)
	var pre []string
	tr.Walk(tr.Root(), func(id NodeID) bool {
		pre = append(pre, tr.Name(id))
		return true
	})
	if strings.Join(pre, " ") != "P0 P1 P2 P3 P4" {
		t.Fatalf("preorder = %v", pre)
	}
	var post []string
	for _, id := range tr.PostOrder(tr.Root()) {
		post = append(post, tr.Name(id))
	}
	if strings.Join(post, " ") != "P1 P2 P4 P3 P0" {
		t.Fatalf("postorder = %v", post)
	}
	// Early stop.
	var n int
	tr.Walk(tr.Root(), func(id NodeID) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestSubtreeSizeLeaves: a walk from a node visits exactly its subtree,
// whose leaves are the visited nodes without children.
func TestSubtreeSizeLeaves(t *testing.T) {
	tr := sample(t)
	walk := func(id NodeID) (nodes, leaves []string) {
		tr.Walk(id, func(n NodeID) bool {
			nodes = append(nodes, tr.Name(n))
			if len(tr.Children(n)) == 0 {
				leaves = append(leaves, tr.Name(n))
			}
			return true
		})
		return nodes, leaves
	}
	if nodes, leaves := walk(tr.Root()); len(nodes) != 5 || strings.Join(leaves, " ") != "P1 P2 P4" {
		t.Fatalf("root subtree %v, leaves %v", nodes, leaves)
	}
	if nodes, leaves := walk(tr.MustLookup("P3")); strings.Join(nodes, " ") != "P3 P4" || strings.Join(leaves, " ") != "P4" {
		t.Fatalf("P3 subtree %v, leaves %v", nodes, leaves)
	}
}

func TestTotalRateAndMaxChildBandwidth(t *testing.T) {
	tr := sample(t)
	// 1/3 + 1/2 + 1 + 0 + 1/4 = 25/12
	if got := tr.TotalRate(); !got.Equal(rat.New(25, 12)) {
		t.Fatalf("TotalRate = %s", got)
	}
	if got := tr.MaxChildBandwidth(tr.Root()); !got.Equal(rat.One) {
		t.Fatalf("MaxChildBandwidth(root) = %s", got)
	}
	if got := tr.MaxChildBandwidth(tr.MustLookup("P4")); !got.IsZero() {
		t.Fatalf("MaxChildBandwidth(leaf) = %s", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := sample(t)
	cp := tr.Clone()
	if !tr.Equal(cp) {
		t.Fatal("clone not equal")
	}
	mod, err := cp.WithCommTime(cp.MustLookup("P1"), rat.FromInt(9))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Equal(mod) {
		t.Fatal("WithCommTime leaked into original")
	}
	if !tr.CommTime(tr.MustLookup("P1")).Equal(rat.One) {
		t.Fatal("original mutated")
	}
	if !mod.CommTime(mod.MustLookup("P1")).Equal(rat.FromInt(9)) {
		t.Fatal("modified copy wrong")
	}
}

func TestWithProcTime(t *testing.T) {
	tr := sample(t)
	p3 := tr.MustLookup("P3")
	mod, err := tr.WithProcTime(p3, rat.FromInt(7))
	if err != nil {
		t.Fatal(err)
	}
	if mod.IsSwitch(mod.MustLookup("P3")) {
		t.Fatal("switch flag not cleared")
	}
	if got := mod.Rate(p3); !got.Equal(rat.New(1, 7)) {
		t.Fatalf("rate = %s", got)
	}
	if _, err := tr.WithProcTime(p3, rat.Zero); err == nil {
		t.Fatal("zero proc accepted")
	}
}

func TestWithCommTimeErrors(t *testing.T) {
	tr := sample(t)
	if _, err := tr.WithCommTime(tr.Root(), rat.One); err == nil {
		t.Fatal("root comm change accepted")
	}
	if _, err := tr.WithCommTime(tr.MustLookup("P1"), rat.Zero); err == nil {
		t.Fatal("zero comm accepted")
	}
}

// TestWithReturnTimesErrors: per-link result-return times come one per
// node, are non-negative, and leave the root, which has no parent link,
// at zero; a valid slice reads back per link.
func TestWithReturnTimesErrors(t *testing.T) {
	tr := sample(t)
	p4 := tr.MustLookup("P4")
	with := func(id NodeID, d rat.R) []rat.R {
		ds := make([]rat.R, tr.Len())
		ds[id] = d
		return ds
	}
	for _, c := range []struct {
		name string
		ds   []rat.R
	}{
		{"wrong length", make([]rat.R, tr.Len()-1)},
		{"negative", with(p4, rat.FromInt(-1))},
		{"root", with(tr.Root(), rat.One)},
	} {
		if _, err := tr.WithReturnTimes(c.ds); err == nil {
			t.Errorf("%s: return times %v accepted", c.name, c.ds)
		}
	}
	ret, err := tr.WithReturnTimes(with(p4, rat.New(1, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if !ret.ReturnTime(p4).Equal(rat.New(1, 3)) || !ret.ReturnTime(tr.MustLookup("P1")).IsZero() {
		t.Fatalf("return times read back as %s, %s", ret.ReturnTime(p4), ret.ReturnTime(tr.MustLookup("P1")))
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := sample(t)
	b := sample(t)
	if !a.Equal(b) {
		t.Fatal("identical trees not equal")
	}
	c, _ := b.WithProcTime(b.MustLookup("P1"), rat.FromInt(99))
	if a.Equal(c) {
		t.Fatal("different proc times equal")
	}
	single := NewBuilder().Root("P0", rat.One).MustBuild()
	if a.Equal(single) {
		t.Fatal("different sizes equal")
	}
	renamed := NewBuilder().
		Root("Q0", rat.FromInt(3)).
		Child("Q0", "P1", rat.FromInt(1), rat.FromInt(2)).
		Child("Q0", "P2", rat.FromInt(2), rat.FromInt(1)).
		SwitchChild("Q0", "P3", rat.FromInt(1)).
		Child("P3", "P4", rat.New(1, 2), rat.FromInt(4)).
		MustBuild()
	if a.Equal(renamed) {
		t.Fatal("renamed root equal")
	}
}

func TestString(t *testing.T) {
	tr := sample(t)
	s := tr.String()
	for _, frag := range []string{"P0(w=3)", "P1(c=1,w=2)", "P3(c=1,w=inf)", "P4(c=1/2,w=4)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	empty := &Tree{}
	if empty.String() != "(empty)" {
		t.Fatalf("empty String = %q", empty.String())
	}
	if empty.Root() != None {
		t.Fatal("empty tree root != None")
	}
}

func TestInvalidIDPanics(t *testing.T) {
	tr := sample(t)
	for _, fn := range []func(){
		func() { tr.Name(NodeID(99)) },
		func() { tr.Name(None) },
		func() { tr.CommTime(tr.Root()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on invalid access")
				}
			}()
			fn()
		}()
	}
}

func TestMustLookupPanics(t *testing.T) {
	tr := sample(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup(unknown) did not panic")
		}
	}()
	tr.MustLookup("nope")
}

func TestRootSwitch(t *testing.T) {
	tr := NewBuilder().
		RootSwitch("hub").
		Child("hub", "w1", rat.One, rat.One).
		MustBuild()
	if !tr.IsSwitch(tr.Root()) {
		t.Fatal("root not switch")
	}
	if !tr.Rate(tr.Root()).IsZero() {
		t.Fatal("switch root rate != 0")
	}
	if !strings.Contains(tr.String(), "hub(w=inf)") {
		t.Fatalf("String = %q", tr.String())
	}
}

// TestTextFormat pins the line-oriented rendering the fingerprint
// hashes: preorder, "-" for the root's parent and comm, "inf" for a
// switch, and the ret column only once some link has d > 0.
func TestTextFormat(t *testing.T) {
	tr := sample(t)
	want := "# name parent comm proc\n" +
		"P0 - - 3\n" +
		"P1 P0 1 2\n" +
		"P2 P0 2 1\n" +
		"P3 P0 1 inf\n" +
		"P4 P3 1/2 4\n"
	if got := tr.Text(); got != want {
		t.Fatalf("Text:\n%s\nwant:\n%s", got, want)
	}
	ret, err := tr.WithReturnTime(tr.MustLookup("P4"), rat.New(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	want = "# name parent comm proc ret\n" +
		"P0 - - 3 -\n" +
		"P1 P0 1 2 0\n" +
		"P2 P0 2 1 0\n" +
		"P3 P0 1 inf 0\n" +
		"P4 P3 1/2 4 1/3\n"
	if got := ret.Text(); got != want {
		t.Fatalf("Text with returns:\n%s\nwant:\n%s", got, want)
	}
	if got := (&Tree{}).Text(); got != "" {
		t.Fatalf("empty tree Text = %q", got)
	}
}

// TestFingerprintConcurrent fingerprints one fresh tree from many
// goroutines at once (run under -race): every caller gets the hex
// SHA-256 of Text, and the memo serves later calls.
func TestFingerprintConcurrent(t *testing.T) {
	tr := sample(t)
	sum := sha256.Sum256([]byte(tr.Text()))
	want := hex.EncodeToString(sum[:])
	var wg sync.WaitGroup
	got := make([]string, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = tr.Fingerprint()
		}(i)
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("goroutine %d: fingerprint %s, want %s", i, fp, want)
		}
	}
	if tr.fp.Load() == nil || tr.Fingerprint() != want {
		t.Fatal("fingerprint not memoized")
	}
	if c := tr.Clone(); c.fp.Load() != nil {
		t.Fatal("Clone inherited the fingerprint memo")
	}
}
