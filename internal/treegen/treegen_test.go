package treegen

import (
	"testing"

	"bwc/internal/rat"
	"bwc/internal/tree"
)

func TestGenerateSizes(t *testing.T) {
	for _, k := range Kinds {
		for _, n := range []int{1, 2, 3, 10, 50} {
			tr := Generate(k, n, 42)
			if tr.Len() != n {
				t.Errorf("%v n=%d: got %d nodes", k, n, tr.Len())
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, k := range Kinds {
		a := Generate(k, 30, 7)
		b := Generate(k, 30, 7)
		if !a.Equal(b) {
			t.Errorf("%v: same seed produced different trees", k)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := Generate(Uniform, 30, 1)
	b := Generate(Uniform, 30, 2)
	if a.Equal(b) {
		t.Error("different seeds produced identical trees (suspicious)")
	}
}

func TestDeepChainIsChain(t *testing.T) {
	tr := Generate(DeepChain, 12, 3)
	if tr.Height() != 11 {
		t.Fatalf("chain height = %d, want 11", tr.Height())
	}
	tr.Walk(tr.Root(), func(id tree.NodeID) bool {
		if len(tr.Children(id)) > 1 {
			t.Fatalf("node %s has %d children", tr.Name(id), len(tr.Children(id)))
		}
		return true
	})
}

func TestWideStarIsStar(t *testing.T) {
	tr := Generate(WideStar, 15, 3)
	if tr.Height() != 1 {
		t.Fatalf("star height = %d", tr.Height())
	}
	if len(tr.Children(tr.Root())) != 14 {
		t.Fatalf("root has %d children", len(tr.Children(tr.Root())))
	}
}

func TestSwitchHeavyHasSwitches(t *testing.T) {
	tr := Generate(SwitchHeavy, 60, 5)
	switches := 0
	tr.Walk(tr.Root(), func(id tree.NodeID) bool {
		if tr.IsSwitch(id) {
			switches++
		}
		return true
	})
	if switches == 0 {
		t.Fatal("switch-heavy platform has no switches")
	}
}

func TestSETIShape(t *testing.T) {
	tr := Generate(SETI, 40, 9)
	if tr.Name(tr.Root()) != "master" {
		t.Fatalf("root = %s", tr.Name(tr.Root()))
	}
	if h := tr.Height(); h != 2 {
		t.Fatalf("height = %d, want 2", h)
	}
	if got := Generate(SETI, 1, 9).Len(); got != 1 {
		t.Fatalf("n=1 SETI len = %d", got)
	}
}

func TestAllWeightsPositive(t *testing.T) {
	for _, k := range Kinds {
		tr := Generate(k, 80, 11)
		tr.Walk(tr.Root(), func(id tree.NodeID) bool {
			if id != tr.Root() && !tr.CommTime(id).IsPos() {
				t.Fatalf("%v: non-positive comm on %s", k, tr.Name(id))
			}
			if w, ok := tr.ProcTime(id); ok && !w.IsPos() {
				t.Fatalf("%v: non-positive proc on %s", k, tr.Name(id))
			}
			return true
		})
	}
}

// TestKindStringRoundTrip: every kind has a name of its own, so a name
// (bwsched gen -kind) selects exactly one kind by matching String over
// Kinds.
func TestKindStringRoundTrip(t *testing.T) {
	seen := map[string]Kind{}
	for _, k := range Kinds {
		name := k.String()
		if prev, dup := seen[name]; dup || name == "" || kindNames[k] != name {
			t.Errorf("kind %d: name %q (already %v)", int(k), name, prev)
		}
		seen[name] = k
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind String empty")
	}
}

func TestGeneratePanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate(n=0) did not panic")
		}
	}()
	Generate(Uniform, 0, 1)
}

func TestBandwidthSeverityMonotone(t *testing.T) {
	// Higher severity must not increase the platform's feedable fraction:
	// check via total steady-state usefulness proxy — the sum of link
	// bandwidths at the root (cheap structural check) and determinism.
	a := BandwidthSeverity(40, 1, 3)
	b := BandwidthSeverity(40, 8, 3)
	if a.Len() != 40 || b.Len() != 40 {
		t.Fatal("sizes")
	}
	if !a.Equal(BandwidthSeverity(40, 1, 3)) {
		t.Fatal("not deterministic")
	}
	// Same topology, scaled comm: every edge of b is 8x a's.
	for id := 1; id < a.Len(); id++ {
		ca := a.CommTime(tree.NodeID(id))
		cb := b.CommTime(tree.NodeID(id))
		if !cb.Equal(ca.Mul(rat.FromInt(8))) {
			t.Fatalf("edge %d: %s vs %s", id, ca, cb)
		}
	}
}

func TestBandwidthSeverityPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { BandwidthSeverity(0, 1, 1) },
		func() { BandwidthSeverity(5, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}
