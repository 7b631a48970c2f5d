package sched

import (
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
