package sched

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/rat"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

func TestDeploymentRoundTrip(t *testing.T) {
	tr := paperTree()
	res := bwfirst.Solve(tr)
	orig, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.MarshalDeployment()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalDeployment(tr, data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := back.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := range orig.Nodes {
		a, b := &orig.Nodes[i], &back.Nodes[i]
		if a.Active != b.Active {
			t.Fatalf("node %s active mismatch", tr.Name(a.Node))
		}
		if !a.Active {
			continue
		}
		if !a.TW.Equal(b.TW) || !a.TS.Equal(b.TS) || !a.TC.Equal(b.TC) {
			t.Fatalf("node %s periods differ", tr.Name(a.Node))
		}
		if a.Bunch.Cmp(b.Bunch) != 0 {
			t.Fatalf("node %s Ψ differs", tr.Name(a.Node))
		}
		pa, pb := patternOf(orig, a.Node), patternOf(back, b.Node)
		if len(pa) != len(pb) {
			t.Fatalf("node %s pattern length differs", tr.Name(a.Node))
		}
		for k := range pa {
			if pa[k].Dest != pb[k].Dest {
				t.Fatalf("node %s pattern slot %d differs", tr.Name(a.Node), k)
			}
		}
	}
	if back.TreePeriod().Cmp(orig.TreePeriod()) != 0 {
		t.Fatal("tree period changed")
	}
}

func TestDeploymentRoundTripAcrossGenerators(t *testing.T) {
	for _, k := range []treegen.Kind{treegen.Uniform, treegen.SETI, treegen.SwitchHeavy} {
		tr := treegen.Generate(k, 18, 6)
		res := bwfirst.Solve(tr)
		orig, err := Build(res, Options{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := orig.MarshalDeployment()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalDeployment(tr, data, Options{})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := back.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

// deploymentErrors are documents UnmarshalDeployment must reject on
// the paper tree.
var deploymentErrors = []string{
	`[{"name":"nope","tw":"1","psi0":"1"}]`,
	`[{"name":"P0","tw":"x","psi0":"1"}]`,
	`[{"name":"P0","tw":"0","psi0":"1"}]`,
	`[{"name":"P0","tw":"1","psi0":"x"}]`,
	`[{"name":"P0","tw":"1","psi0":"1","psi":{"P3":"1"}}]`, // P3 not P0's child
	`[{"name":"P0","tw":"1","psi0":"1","psi":{"P1":"zz"}}]`,
	`[{"name":"P1","tw":"2","psi0":"1"}]`,                   // P0 never sends P1 what P1 computes
	`[{"name":"P0","tw":"1","psi0":"-1"}]`,                  // negative ψ_0
	`[{"name":"P0","tw":"2","psi0":"1","psi":{"P1":"-3"}}]`, // negative ψ_i
}

func TestDeploymentErrors(t *testing.T) {
	tr := paperTree()
	if _, err := UnmarshalDeployment(tr, []byte("{"), Options{}); err == nil {
		t.Fatal("bad JSON accepted")
	}
	for _, c := range deploymentErrors {
		if _, err := UnmarshalDeployment(tr, []byte(c), Options{}); err == nil {
			t.Fatalf("accepted %s", c)
		}
	}
	hub := tree.NewBuilder().RootSwitch("s").Child("s", "w", rat.One, rat.One).MustBuild()
	if _, err := UnmarshalDeployment(hub, []byte(`[{"name":"s","tw":"1","psi0":"1"}]`), Options{}); err == nil {
		t.Fatal("computing switch accepted")
	}
}

// FuzzUnmarshalDeployment: a deployment document comes from outside the
// program, so whatever it holds UnmarshalDeployment must not panic, and
// every schedule it accepts must pass its own invariants.
func FuzzUnmarshalDeployment(f *testing.F) {
	tr := paperTree()
	s, err := Build(bwfirst.Solve(tr), Options{})
	if err != nil {
		f.Fatal(err)
	}
	doc, err := s.MarshalDeployment()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	for _, c := range deploymentErrors {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalDeployment(tr, data, Options{})
		if err != nil {
			return
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("accepted %q: %v", data, err)
		}
	})
}

func TestDeploymentIsCompact(t *testing.T) {
	res := bwfirst.Solve(paperTree())
	s, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalDeployment()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"psi0"`) {
		t.Fatal("unexpected shape")
	}
	// Even pretty-printed JSON stays below 1KB for the 12-node platform.
	if len(data) > 1024 {
		t.Fatalf("deployment doc %d bytes", len(data))
	}
}

// TestBunchBeyondCursorRange: a bunch whose Ψ + 1 does not fit int64, the
// range of a cursor's counters, is refused at build time; the largest
// one that fits builds and walks.
func TestBunchBeyondCursorRange(t *testing.T) {
	tr := tree.NewBuilder().Root("P0", rat.One).MustBuild()
	doc := func(psi0 string) []byte { return []byte(`[{"name":"P0","tw":"1","psi0":"` + psi0 + `"}]`) }
	for _, psi0 := range []string{"9223372036854775807", "100000000000000000000"} {
		if _, err := UnmarshalDeployment(tr, doc(psi0), Options{}); err == nil || !strings.Contains(err.Error(), "int64 range") {
			t.Errorf("Ψ=%s: err = %v", psi0, err)
		}
	}
	s, err := UnmarshalDeployment(tr, doc("9223372036854775806"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cursor(tr.Root(), nil)
	if sl := c.Next(); c.Len() != 1<<63-2 || sl.Dest != Self || c.Index() != 1 {
		t.Fatalf("cursor over Ψ=%d at %d gave %d", c.Len(), c.Index(), sl.Dest)
	}
}

// marshalDeploymentReference is the reflection writer MarshalDeployment
// replaced: the wireNode document through json.MarshalIndent. It is the
// oracle MarshalDeployment's bytes are compared with.
func marshalDeploymentReference(s *Schedule) ([]byte, error) {
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

// TestMarshalDeploymentMatchesReference: MarshalDeployment writes the
// reference writer's bytes on every treegen family, forward and with
// result returns, interleaved and block, on names that need JSON
// escapes, and on a schedule with no active node.
func TestMarshalDeploymentMatchesReference(t *testing.T) {
	check := func(what string, s *Schedule) {
		t.Helper()
		got, err := s.MarshalDeployment()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, err := marshalDeploymentReference(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: MarshalDeployment wrote\n%s\nreference\n%s", what, got, want)
		}
	}
	built := 0
	for _, k := range treegen.Kinds {
		for _, n := range []int{1, 2, 8, 33} {
			for seed := int64(1); seed <= 3; seed++ {
				fwd := treegen.Generate(k, n, seed)
				ret, err := fwd.WithUniformReturnTime(rat.New(1, 2))
				if err != nil {
					t.Fatal(err)
				}
				for _, tr := range []*tree.Tree{fwd, ret} {
					res := bwfirst.Solve(tr)
					for _, block := range []bool{false, true} {
						s, err := Build(res, Options{Block: block})
						if err != nil {
							continue // a bunch beyond int64; nothing to write
						}
						built++
						check(k.String(), s)
					}
				}
			}
		}
	}
	if built < 300 {
		t.Fatalf("only %d of 336 schedules built", built)
	}
	names := []string{"r<&>", `a"b`, `c\d`, "e\u2028f\u2029g", "h\xffi", "j\x01k\x7f", "N10", "N2", "é"}
	b := tree.NewBuilder().Root(names[0], rat.One)
	for _, name := range names[1:] {
		b.Child(names[0], name, rat.New(1, 8), rat.One)
	}
	odd := b.MustBuild()
	oddRet, err := odd.WithUniformReturnTime(rat.New(1, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*tree.Tree{odd, oddRet} {
		s, err := Build(bwfirst.Solve(tr), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if !s.Nodes[tr.MustLookup(name)].Active {
				t.Fatalf("%q inactive; the escapes go untested", name)
			}
		}
		check("escaped names", s)
	}
	idle, err := Build(bwfirst.Solve(tree.NewBuilder().RootSwitch("s").MustBuild()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("no active node", idle)
	if doc, _ := idle.MarshalDeployment(); string(doc) != "null" {
		t.Fatalf("no active node: %s", doc)
	}
}
