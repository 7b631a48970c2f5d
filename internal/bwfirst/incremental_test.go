package bwfirst

import (
	"math/rand"
	"testing"

	"bwc/internal/rat"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

// sameStates fails the test unless a and b hold identical per-node
// activity variables — the exact condition under which schedules built
// from the two results are identical.
func sameStates(t *testing.T, a, b *Result) {
	t.Helper()
	if !a.Throughput.Equal(b.Throughput) {
		t.Fatalf("throughput %s != %s", a.Throughput, b.Throughput)
	}
	if !a.TMax.Equal(b.TMax) {
		t.Fatalf("t_max %s != %s", a.TMax, b.TMax)
	}
	if a.VisitedCount != b.VisitedCount {
		t.Fatalf("visited %d != %d", a.VisitedCount, b.VisitedCount)
	}
	for id := range a.Nodes {
		x, y := a.Nodes[id], b.Nodes[id]
		if x.Visited != y.Visited {
			t.Fatalf("node %d: visited %v != %v", id, x.Visited, y.Visited)
		}
		if !x.Visited {
			continue
		}
		if !x.Lambda.Equal(y.Lambda) || !x.Alpha.Equal(y.Alpha) ||
			!x.Theta.Equal(y.Theta) || !x.RecvRate.Equal(y.RecvRate) ||
			!x.TauLeft.Equal(y.TauLeft) {
			t.Fatalf("node %d: states differ:\n%+v\n%+v", id, x, y)
		}
		if len(x.SendRates) != len(y.SendRates) {
			t.Fatalf("node %d: send-rate arity differs", id)
		}
		for j := range x.SendRates {
			if !x.SendRates[j].Equal(y.SendRates[j]) {
				t.Fatalf("node %d child %d: send rate %s != %s", id, j, x.SendRates[j], y.SendRates[j])
			}
		}
	}
}

// mutate returns a copy of tr with the weights of up to k random
// non-root nodes perturbed (link or processor slowdown/speedup).
func mutate(t *testing.T, tr *tree.Tree, rng *rand.Rand, k int) *tree.Tree {
	t.Helper()
	cur := tr
	for i := 0; i < k; i++ {
		id := tree.NodeID(1 + rng.Intn(tr.Len()-1))
		factor := rat.New(int64(1+rng.Intn(8)), 2) // {1/2, 1, ..., 4}
		var err error
		if _, hasProc := cur.ProcTime(id); hasProc && rng.Intn(2) == 0 {
			w, _ := cur.ProcTime(id)
			cur, err = cur.WithProcTime(id, w.Mul(factor))
		} else {
			cur, err = cur.WithCommTime(id, cur.CommTime(id).Mul(factor))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return cur
}

// TestSolvePrunedEmptyEqualsSolve: with nothing pruned the incremental
// entry point is the plain procedure.
func TestSolvePrunedEmptyEqualsSolve(t *testing.T) {
	for _, kind := range treegen.Kinds {
		tr := treegen.Generate(kind, 40, 7)
		full := Solve(tr)
		pr, err := SolvePruned(tr, nil)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		sameStates(t, full, pr)
		if err := pr.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

// TestIncrementalEquivalence is the core property: across every treegen
// family, re-solving a mutated platform incrementally from the previous
// result yields node states identical to a full re-solve on the mutated
// platform — while visiting strictly fewer nodes whenever the mutation
// left subtrees untouched.
func TestIncrementalEquivalence(t *testing.T) {
	for _, kind := range treegen.Kinds {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed * 101))
			tr := treegen.Generate(kind, 60, seed)
			if tr.Len() < 3 {
				continue
			}
			prev, err := SolvePruned(tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			next := mutate(t, tr, rng, 1+rng.Intn(3))
			dirty, err := tree.DiffWeights(tr, next)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := SolveIncremental(prev, next, dirty, nil)
			if err != nil {
				t.Fatal(err)
			}
			full, err := SolvePruned(next, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameStates(t, full, inc)
			if err := inc.CheckInvariants(); err != nil {
				t.Fatalf("%v seed %d: %v", kind, seed, err)
			}
			if inc.Recomputed()+inc.Reused() > next.Len() {
				t.Fatalf("%v seed %d: recomputed %d + reused %d exceeds %d nodes",
					kind, seed, inc.Recomputed(), inc.Reused(), next.Len())
			}
		}
	}
}

// TestIncrementalSpineOnly pins the economy on a platform built for it:
// a root with several independent subtrees, one leaf mutated — only the
// spine through that leaf's subtree may be recomputed.
func TestIncrementalSpineOnly(t *testing.T) {
	b := tree.NewBuilder().Root("R", rat.FromInt(4))
	for i := 0; i < 4; i++ {
		g := string(rune('A' + i))
		b.Child("R", g, rat.New(1, 2), rat.FromInt(6))
		b.Child(g, g+"1", rat.One, rat.FromInt(6))
		b.Child(g, g+"2", rat.One, rat.FromInt(6))
	}
	tr := b.MustBuild()
	prev, err := SolvePruned(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := tr.MustLookup("C2")
	next, err := tr.WithProcTime(victim, rat.FromInt(3))
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := tree.DiffWeights(tr, next)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := SolveIncremental(prev, next, dirty, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SolvePruned(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameStates(t, full, inc)
	// The spine is R → C → C2 (3 nodes); sibling subtrees whose proposal
	// did not change are copied, not walked. Allow the C subtree (C, C1,
	// C2) plus root, but the untouched groups A, B, D must all be reused
	// or unvisited.
	if inc.Recomputed() > 6 {
		t.Fatalf("recomputed %d nodes for a single-leaf mutation on a 13-node tree", inc.Recomputed())
	}
	if inc.Reused() == 0 {
		t.Fatal("nothing reused from the previous result")
	}
}

// TestPrunedSubtreeExcluded: pruning a child removes its whole subtree
// from the negotiation and from the resulting activity.
func TestPrunedSubtreeExcluded(t *testing.T) {
	tr := treegen.Generate(treegen.SETI, 30, 11)
	inst, ok := tr.Lookup("inst0")
	if !ok {
		t.Skip("seed produced no inst0")
	}
	res, err := SolvePruned(tr, []tree.NodeID{inst})
	if err != nil {
		t.Fatal(err)
	}
	tr.Walk(inst, func(n tree.NodeID) bool {
		if res.Nodes[n].Visited {
			t.Fatalf("pruned node %s visited", tr.Name(n))
		}
		return true
	})
	if !res.PrunedNode(inst) {
		t.Fatal("PrunedNode lost the pruned set")
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Pruning can only lose throughput.
	if full := Solve(tr); full.Throughput.Less(res.Throughput) {
		t.Fatalf("pruned throughput %s exceeds full %s", res.Throughput, full.Throughput)
	}
}

// withoutSubtree rebuilds tr with x's whole subtree removed. Node IDs
// list every parent before its children, so adding the survivors in ID
// order keeps each child list in its original order.
func withoutSubtree(t *testing.T, tr *tree.Tree, x tree.NodeID) *tree.Tree {
	t.Helper()
	gone := make([]bool, tr.Len())
	tr.Walk(x, func(n tree.NodeID) bool { gone[n] = true; return true })
	b := tree.NewBuilder()
	for id := tree.NodeID(0); int(id) < tr.Len(); id++ {
		if gone[id] {
			continue
		}
		name := tr.Name(id)
		w, hasProc := tr.ProcTime(id)
		switch p := tr.Parent(id); {
		case p == tree.None && hasProc:
			b.Root(name, w)
		case p == tree.None:
			b.RootSwitch(name)
		case hasProc:
			b.Child(tr.Name(p), name, tr.CommTime(id), w)
		default:
			b.SwitchChild(tr.Name(p), name, tr.CommTime(id))
		}
		if d := tr.ReturnTime(id); d.IsPos() {
			b.Return(name, d)
		}
	}
	cut, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cut
}

// TestSolvePrunedMatchesSubtreeRemoved is the oracle for the pruned
// re-solve the adaptive controllers run after a crash: pruning any
// non-root node x gives exactly the optimum of the platform with x's
// subtree removed, in throughput and in every surviving node's α.
func TestSolvePrunedMatchesSubtreeRemoved(t *testing.T) {
	for _, kind := range treegen.Kinds {
		for seed := int64(1); seed <= 6; seed++ {
			tr := treegen.Generate(kind, 24, seed)
			for x := tree.NodeID(1); int(x) < tr.Len(); x++ {
				pruned, err := SolvePruned(tr, []tree.NodeID{x})
				if err != nil {
					t.Fatal(err)
				}
				cut := withoutSubtree(t, tr, x)
				want := Solve(cut)
				if !pruned.Throughput.Equal(want.Throughput) {
					t.Fatalf("%s seed %d without %s: throughput %s, want %s",
						kind, seed, tr.Name(x), pruned.Throughput, want.Throughput)
				}
				for id := tree.NodeID(0); int(id) < cut.Len(); id++ {
					if got, w := pruned.Nodes[tr.MustLookup(cut.Name(id))].Alpha, want.Nodes[id].Alpha; !got.Equal(w) {
						t.Fatalf("%s seed %d without %s: node %s α %s, want %s",
							kind, seed, tr.Name(x), cut.Name(id), got, w)
					}
				}
			}
		}
	}
}

// TestPruneRootRejected: the root cannot be pruned.
func TestPruneRootRejected(t *testing.T) {
	tr := treegen.Generate(treegen.Uniform, 10, 1)
	if _, err := SolvePruned(tr, []tree.NodeID{tr.Root()}); err == nil {
		t.Fatal("pruning the root accepted")
	}
}

// TestIncrementalPrunedTransition: un-pruning (a rejoined node) dirties
// the subtree so the incremental solve re-admits it.
func TestIncrementalPrunedTransition(t *testing.T) {
	tr := treegen.Generate(treegen.ComputeLimited, 40, 3)
	victim := tree.NodeID(1)
	prev, err := SolvePruned(tr, []tree.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := SolveIncremental(prev, tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SolvePruned(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameStates(t, full, inc)
	// And the reverse: newly pruning a node invalidates its spine.
	inc2, err := SolveIncremental(full, tr, nil, []tree.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	sameStates(t, prev, inc2)
}
