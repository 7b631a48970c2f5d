package bwfirst

import (
	"fmt"
	"strings"
	"testing"

	"bwc/internal/bottomup"
	"bwc/internal/rat"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

func singleNode(t *testing.T) *tree.Tree {
	t.Helper()
	return tree.NewBuilder().Root("P0", rat.FromInt(2)).MustBuild()
}

func TestSingleNode(t *testing.T) {
	res := Solve(singleNode(t))
	if !res.Throughput.Equal(rat.New(1, 2)) {
		t.Fatalf("throughput = %s, want 1/2", res.Throughput)
	}
	if !res.TMax.Equal(rat.New(1, 2)) {
		t.Fatalf("tmax = %s", res.TMax)
	}
	if res.VisitedCount != 1 {
		t.Fatalf("visited = %d", res.VisitedCount)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForkMatchesProposition1(t *testing.T) {
	// Root r=1/3; children: (c=1, r=1/2), (c=2, r=1), (c=4, r=1).
	// Bandwidth-centric: feed child1 fully (cost 1/2), feed child2 fully
	// (cost 2·1 = 2 > remaining 1/2) → partial: 1/2 budget · b=1/2 = 1/4.
	// Child3 starved. Throughput = 1/3 + 1/2 + 1/4 = 13/12.
	tr := tree.NewBuilder().
		Root("P0", rat.FromInt(3)).
		Child("P0", "P1", rat.One, rat.Two).
		Child("P0", "P2", rat.Two, rat.One).
		Child("P0", "P3", rat.FromInt(4), rat.One).
		MustBuild()
	res := Solve(tr)
	if !res.Throughput.Equal(rat.New(13, 12)) {
		t.Fatalf("throughput = %s, want 13/12", res.Throughput)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// P3 is never offered anything: the port is exhausted after P2.
	p3 := tr.MustLookup("P3")
	if res.Visited(p3) {
		t.Fatal("starved child was visited")
	}
	if got := res.UnvisitedNodes(); len(got) != 1 || got[0] != p3 {
		t.Fatalf("unvisited = %v", got)
	}
	// η to P1 is its full rate 1/2; to P2 it is 1/4.
	if got := res.SendRate(tr.MustLookup("P1")); !got.Equal(rat.New(1, 2)) {
		t.Fatalf("η(P1) = %s", got)
	}
	if got := res.SendRate(tr.MustLookup("P2")); !got.Equal(rat.New(1, 4)) {
		t.Fatalf("η(P2) = %s", got)
	}
}

func TestSwitchForwarding(t *testing.T) {
	// A switch root with one worker: throughput = worker rate, capped by
	// the link.
	tr := tree.NewBuilder().
		RootSwitch("hub").
		Child("hub", "w", rat.New(1, 2), rat.One).
		MustBuild()
	res := Solve(tr)
	if !res.Throughput.Equal(rat.One) {
		t.Fatalf("throughput = %s, want 1", res.Throughput)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Link-capped version: c=2 → b=1/2 < worker rate 1.
	tr2 := tree.NewBuilder().
		RootSwitch("hub").
		Child("hub", "w", rat.Two, rat.One).
		MustBuild()
	res2 := Solve(tr2)
	if !res2.Throughput.Equal(rat.New(1, 2)) {
		t.Fatalf("capped throughput = %s, want 1/2", res2.Throughput)
	}
}

func TestDeepChainBottleneck(t *testing.T) {
	// root(r=0 switch) -> a(c=1, switch) -> b(c=1, r=2).
	// The a->b link allows 1 task/unit; b could do 2.
	tr := tree.NewBuilder().
		RootSwitch("root").
		SwitchChild("root", "a", rat.One).
		Child("a", "b", rat.One, rat.New(1, 2)).
		MustBuild()
	res := Solve(tr)
	if !res.Throughput.Equal(rat.One) {
		t.Fatalf("throughput = %s, want 1", res.Throughput)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReceivePortNeverOversubscribed(t *testing.T) {
	// The proposal to a child can never exceed its link bandwidth, so
	// λ·c ≤ 1 for every non-root node — checked by CheckInvariants on a
	// platform designed to tempt oversubscription (huge compute below a
	// thin link).
	tr := tree.NewBuilder().
		Root("P0", rat.FromInt(100)).
		Child("P0", "g", rat.Two, rat.FromInt(100)).
		Child("g", "w1", rat.New(1, 10), rat.New(1, 10)).
		Child("g", "w2", rat.New(1, 10), rat.New(1, 10)).
		MustBuild()
	res := Solve(tr)
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// g's subtree can consume 1/100 + 10 + 10, but its link admits 1/2.
	if !res.Throughput.Equal(rat.New(1, 100).Add(rat.New(1, 2))) {
		t.Fatalf("throughput = %s", res.Throughput)
	}
}

func TestTransactionsOrderAndContent(t *testing.T) {
	tr := tree.NewBuilder().
		Root("P0", rat.FromInt(3)).
		Child("P0", "P1", rat.One, rat.Two).
		Child("P0", "P2", rat.Two, rat.One).
		MustBuild()
	res := Solve(tr)
	if len(res.Transactions) != 2 {
		t.Fatalf("%d transactions", len(res.Transactions))
	}
	t0 := res.Transactions[0]
	if tr.Name(t0.Child) != "P1" {
		t.Fatalf("first transaction child = %s (bandwidth-centric order broken)", tr.Name(t0.Child))
	}
	if !t0.Accepted().Equal(rat.New(1, 2)) {
		t.Fatalf("accepted = %s", t0.Accepted())
	}
	s := res.TranscriptString()
	if !strings.Contains(s, "P0 -> P1") || !strings.Contains(s, "P0 -> P2") {
		t.Fatalf("transcript = %q", s)
	}
}

func TestLambdaZeroPropagation(t *testing.T) {
	// A node that consumes everything itself never opens transactions.
	tr := tree.NewBuilder().
		Root("P0", rat.One). // r=1 = t_max contribution
		Child("P0", "P1", rat.FromInt(1000), rat.One).
		MustBuild()
	res := Solve(tr)
	// t_max = 1 + 1/1000; root keeps 1, proposes 1/1000 to P1.
	if res.VisitedCount != 2 {
		t.Fatalf("visited = %d", res.VisitedCount)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTree(t *testing.T) {
	res := Solve(&tree.Tree{})
	if !res.Throughput.IsZero() || res.VisitedCount != 0 {
		t.Fatalf("empty tree: %+v", res)
	}
}

func TestSwitchOnlyPlatform(t *testing.T) {
	tr := tree.NewBuilder().
		RootSwitch("a").
		SwitchChild("a", "b", rat.One).
		SwitchChild("b", "c", rat.One).
		MustBuild()
	res := Solve(tr)
	if !res.Throughput.IsZero() {
		t.Fatalf("switch-only throughput = %s", res.Throughput)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMatchesBottomUp is the Proposition 2 equivalence: the depth-first
// transaction procedure computes the same optimal throughput as the
// bottom-up reduction, across every generator family and many seeds.
func TestMatchesBottomUp(t *testing.T) {
	for _, k := range treegen.Kinds {
		for seed := int64(0); seed < 25; seed++ {
			for _, n := range []int{1, 2, 5, 17, 40} {
				tr := treegen.Generate(k, n, seed)
				bw := Solve(tr)
				bu := bottomup.Solve(tr)
				if !bw.Throughput.Equal(bu.Throughput) {
					t.Fatalf("%v n=%d seed=%d: bwfirst %s != bottomup %s\n%s",
						k, n, seed, bw.Throughput, bu.Throughput, tr)
				}
				if err := bw.CheckInvariants(); err != nil {
					t.Fatalf("%v n=%d seed=%d: %v", k, n, seed, err)
				}
			}
		}
	}
}

// TestVisitsSubsetOfBottomUp: BW-First never visits more nodes than the
// platform has, and on bandwidth-limited platforms it visits strictly
// fewer for at least some seeds (the Section 5 motivation).
func TestVisitedSavings(t *testing.T) {
	saved := false
	for seed := int64(0); seed < 30; seed++ {
		tr := treegen.Generate(treegen.BandwidthLimited, 60, seed)
		bw := Solve(tr)
		if bw.VisitedCount > tr.Len() {
			t.Fatalf("visited %d > %d nodes", bw.VisitedCount, tr.Len())
		}
		if bw.VisitedCount < tr.Len() {
			saved = true
		}
	}
	if !saved {
		t.Fatal("no bandwidth-limited platform had unvisited nodes; generator too generous")
	}
}

// TestChildOrder pins the bandwidth-centric visiting order: increasing
// c on forward-only trees, increasing round-trip c + d on result-return
// trees, ties in insertion order, as positions in tree.Children.
func TestChildOrder(t *testing.T) {
	tr := tree.NewBuilder().
		Root("r", rat.One).
		Child("r", "slow", rat.FromInt(5), rat.One).
		Child("r", "fast", rat.One, rat.One).
		Child("r", "mid", rat.Two, rat.One).
		Child("r", "fast2", rat.One, rat.One). // ties with "fast": insertion order wins
		MustBuild()
	names := func(tr *tree.Tree, hasRet bool) string {
		var out []string
		for _, j := range childOrder(tr, tr.Root(), hasRet) {
			out = append(out, tr.Name(tr.Children(tr.Root())[j]))
		}
		return strings.Join(out, " ")
	}
	if n := tr.Name(tr.Children(tr.Root())[0]); n != "slow" {
		t.Fatalf("insertion order broken: first = %s", n)
	}
	if got, want := names(tr, false), "fast fast2 mid slow"; got != want {
		t.Fatalf("forward order = %s, want %s", got, want)
	}
	// Round trips: slow 5+0, fast 1+3, mid 2+1, fast2 1+2. mid and fast2
	// tie at 3 and keep insertion order; fast (4) now follows them.
	for name, d := range map[string]int64{"fast": 3, "mid": 1, "fast2": 2} {
		var err error
		if tr, err = tr.WithReturnTime(tr.MustLookup(name), rat.FromInt(d)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := names(tr, true), "mid fast2 fast slow"; got != want {
		t.Fatalf("round-trip order = %s, want %s", got, want)
	}
	if got := childOrder(tr, tr.MustLookup("slow"), true); got != nil {
		t.Fatalf("leaf order = %v, want none", got)
	}
}

// TestMonotoneInLambda: offering a subtree more tasks never reduces what it
// consumes (needed by the Prop. 2 induction).
func TestMonotoneInLambda(t *testing.T) {
	tr := treegen.Generate(treegen.Uniform, 25, 123)
	root := tr.Root()
	prev := rat.Zero
	for i := int64(1); i <= 40; i++ {
		lam := rat.New(i, 8)
		s := &solver{t: tr, res: &Result{Tree: tr, Nodes: make([]NodeState, tr.Len())}}
		theta := s.visit(root, lam, 0)
		consumed := lam.Sub(theta)
		if consumed.Less(prev) {
			t.Fatalf("consumption dropped from %s to %s at λ=%s", prev, consumed, lam)
		}
		prev = consumed
	}
}

func TestSendRatePanicsOnForeignChild(t *testing.T) {
	tr := singleNode(t)
	res := Solve(tr)
	if got := res.SendRate(tr.Root()); !got.IsZero() {
		t.Fatalf("root send rate = %s", got)
	}
}

func TestBottlenecks(t *testing.T) {
	// Port-saturated root and a cpu-saturated child.
	tr := tree.NewBuilder().
		Root("P0", rat.FromInt(100)). // far from cpu-bound
		Child("P0", "w", rat.One, rat.FromInt(2)).
		Child("P0", "v", rat.Two, rat.FromInt(2)).
		MustBuild()
	res := Solve(tr)
	kinds := map[string]string{}
	for _, b := range res.Bottlenecks() {
		kinds[tr.Name(b.Node)+"/"+b.Kind] = b.Kind
	}
	// w is fully fed (cpu bottleneck); the root's port: c·r(w) + leftover
	// to v — spent = 1·(1/2) + used on v... check port saturation via τ.
	if _, ok := kinds["w/cpu"]; !ok {
		t.Fatalf("w not cpu-bound: %v", kinds)
	}
	if _, ok := kinds["P0/port"]; !ok {
		t.Fatalf("root port not saturated: %v", kinds)
	}
	// An unvisited or idle platform yields no phantom bottlenecks.
	dead := tree.NewBuilder().RootSwitch("s").SwitchChild("s", "x", rat.One).MustBuild()
	if got := Solve(dead).Bottlenecks(); len(got) != 0 {
		t.Fatalf("dead platform bottlenecks: %v", got)
	}
}

func TestBottlenecksCoverEveryPlatform(t *testing.T) {
	// Any platform with positive throughput has at least one bottleneck
	// (something must cap the optimum).
	for _, k := range treegen.Kinds {
		for seed := int64(0); seed < 5; seed++ {
			tr := treegen.Generate(k, 15, seed)
			res := Solve(tr)
			if res.Throughput.IsZero() {
				continue
			}
			if len(res.Bottlenecks()) == 0 {
				t.Fatalf("%v/%d: positive throughput %s with no bottleneck\n%s",
					k, seed, res.Throughput, tr)
			}
		}
	}
}

func BenchmarkSolveSizes(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		tr := treegen.Generate(treegen.ComputeLimited, n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = Solve(tr)
			}
		})
	}
}

func TestSolveBatchMatchesSequential(t *testing.T) {
	var trees []*tree.Tree
	for seed := int64(0); seed < 40; seed++ {
		trees = append(trees, treegen.Generate(treegen.Uniform, 20, seed))
	}
	batch := SolveBatch(trees, 4)
	for i, tr := range trees {
		want := Solve(tr)
		if !batch[i].Throughput.Equal(want.Throughput) {
			t.Fatalf("tree %d: batch %s != sequential %s", i, batch[i].Throughput, want.Throughput)
		}
		if batch[i].VisitedCount != want.VisitedCount {
			t.Fatalf("tree %d: visited mismatch", i)
		}
	}
	// Degenerate worker counts.
	if got := SolveBatch(nil, 0); len(got) != 0 {
		t.Fatal("empty batch")
	}
	one := SolveBatch(trees[:1], 100)
	if !one[0].Throughput.Equal(batch[0].Throughput) {
		t.Fatal("oversubscribed workers")
	}
}

func BenchmarkSolveBatch(b *testing.B) {
	var trees []*tree.Tree
	for seed := int64(0); seed < 64; seed++ {
		trees = append(trees, treegen.Generate(treegen.ComputeLimited, 60, seed))
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = SolveBatch(trees, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = SolveBatch(trees, 0)
		}
	})
}
