package sensitivity

import (
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/paperexample"
	"bwc/internal/rat"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

func TestGainsNonNegativeAndBottleneckAligned(t *testing.T) {
	tr := paperexample.Tree()
	ups, err := Analyze(tr, rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) == 0 {
		t.Fatal("no upgrades analyzed")
	}
	// Speeding any single resource can never hurt.
	for _, u := range ups {
		if u.Gain.IsNeg() {
			t.Fatalf("upgrade %s/%s has negative gain %s", tr.Name(u.Node), u.Kind, u.Gain)
		}
	}
	// Sorted by decreasing gain.
	for i := 1; i < len(ups); i++ {
		if ups[i-1].Gain.Less(ups[i].Gain) {
			t.Fatal("not sorted by gain")
		}
	}
	// Every strictly positive gain must touch a saturated resource chain:
	// at minimum, the unvisited nodes' CPUs gain nothing.
	res := bwfirst.Solve(tr)
	for _, u := range ups {
		if u.Kind == CPU && !res.Visited(u.Node) && u.Gain.IsPos() {
			t.Fatalf("unvisited node %s gains %s from a CPU upgrade", tr.Name(u.Node), u.Gain)
		}
	}
}

func TestBestUpgradeOnPaperTree(t *testing.T) {
	tr := paperexample.Tree()
	ups, err := Analyze(tr, rat.Two)
	if err != nil || len(ups) == 0 {
		t.Fatalf("%d upgrades, err %v", len(ups), err)
	}
	best := ups[0]
	if !best.Gain.IsPos() {
		t.Fatalf("best gain %s not positive", best.Gain)
	}
	// On this bandwidth-limited platform link upgrades dominate: halving
	// c(P2) (or c(P5), which re-enrolls the starved fast node) gains 1/4,
	// while doubling the root CPU gains exactly 1/9 (α_root 1/9 -> 2/9).
	if !best.Gain.Equal(rat.New(1, 4)) || best.Kind != Link {
		t.Fatalf("best = %s/%s gain %s, want a link gaining 1/4", tr.Name(best.Node), best.Kind, best.Gain)
	}
	for _, u := range ups {
		if u.Node == tr.Root() && u.Kind == CPU {
			if !u.Gain.Equal(rat.New(1, 9)) {
				t.Fatalf("root CPU gain %s, want 1/9", u.Gain)
			}
			return
		}
	}
	t.Fatal("root CPU upgrade missing")
}

// TestUnvisitedLinkGains: upgrading the link to a pruned fast node can
// re-enroll it — the gain reflects the bandwidth-centric reshuffle.
func TestUnvisitedLinkGains(t *testing.T) {
	tr := paperexample.Tree()
	p5 := tr.MustLookup("P5")
	// A 10x speedup on P5's link (2 -> 1/5) makes it the root's cheapest
	// child and must yield a strictly positive gain.
	ups, err := Analyze(tr, rat.FromInt(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range ups {
		if u.Node == p5 && u.Kind == Link {
			if !u.Gain.IsPos() {
				t.Fatalf("P5 link x10 gain = %s", u.Gain)
			}
			return
		}
	}
	t.Fatal("P5 link upgrade missing")
}

func TestValidation(t *testing.T) {
	tr := tree.NewBuilder().Root("m", rat.One).MustBuild()
	if _, err := Analyze(tr, rat.One); err == nil {
		t.Fatal("speedup 1 accepted")
	}
	if _, err := Analyze(tr, rat.New(1, 2)); err == nil {
		t.Fatal("slowdown accepted")
	}
	// A lone switch has nothing to upgrade.
	sw := tree.NewBuilder().RootSwitch("s").MustBuild()
	if ups, err := Analyze(sw, rat.Two); err != nil || len(ups) != 0 {
		t.Fatalf("lone switch: %d upgrades, err %v", len(ups), err)
	}
}

func TestGainsAcrossGenerators(t *testing.T) {
	for _, k := range []treegen.Kind{treegen.Uniform, treegen.BandwidthLimited, treegen.ComputeLimited} {
		tr := treegen.Generate(k, 12, 4)
		ups, err := Analyze(tr, rat.Two)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		for _, u := range ups {
			if u.Gain.IsNeg() {
				t.Fatalf("%v: negative gain at %s/%s", k, tr.Name(u.Node), u.Kind)
			}
		}
	}
}
