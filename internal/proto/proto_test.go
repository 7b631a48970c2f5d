package proto

import (
	"fmt"
	"strings"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/lp"
	"bwc/internal/rat"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

func TestSingleNode(t *testing.T) {
	tr := tree.NewBuilder().Root("P0", rat.Two).MustBuild()
	res := SolveObserved(tr, nil)
	if !res.Throughput.Equal(rat.New(1, 2)) {
		t.Fatalf("throughput = %s", res.Throughput)
	}
	if res.Messages != 2 {
		t.Fatalf("messages = %d, want 2 (virtual parent pair)", res.Messages)
	}
	if res.VisitedCount != 1 {
		t.Fatalf("visited = %d", res.VisitedCount)
	}
}

func TestEmptyTree(t *testing.T) {
	res := SolveObserved(&tree.Tree{}, nil)
	if !res.Throughput.IsZero() || res.Messages != 0 {
		t.Fatalf("empty: %+v", res)
	}
}

// returnVariants lists each platform as given and with a uniform
// result-return time of 1/2 and of 1 on every link (Section 9), so the
// protocol is checked against both port models.
func returnVariants(t *testing.T, tr *tree.Tree) []*tree.Tree {
	t.Helper()
	out := []*tree.Tree{tr}
	for _, d := range []rat.R{rat.New(1, 2), rat.One} {
		ret, err := tr.WithUniformReturnTime(d)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ret)
	}
	return out
}

// sameStates fails the test unless the protocol round got holds exactly
// the sequential result want: throughput, t_max, the visited set and
// every field of every node's state.
func sameStates(t *testing.T, label string, got *Result, want *bwfirst.Result) {
	t.Helper()
	if !got.Throughput.Equal(want.Throughput) {
		t.Fatalf("%s: throughput %s != %s", label, got.Throughput, want.Throughput)
	}
	if !got.TMax.Equal(want.TMax) {
		t.Fatalf("%s: t_max %s != %s", label, got.TMax, want.TMax)
	}
	if got.VisitedCount != want.VisitedCount {
		t.Fatalf("%s: visited %d != %d", label, got.VisitedCount, want.VisitedCount)
	}
	for id := range want.Nodes {
		x, y := got.Nodes[id], want.Nodes[id]
		if x.Visited != y.Visited {
			t.Fatalf("%s: node %d visited %v != %v", label, id, x.Visited, y.Visited)
		}
		if !x.Lambda.Equal(y.Lambda) || !x.Alpha.Equal(y.Alpha) ||
			!x.Theta.Equal(y.Theta) || !x.RecvRate.Equal(y.RecvRate) ||
			!x.TauLeft.Equal(y.TauLeft) || !x.TauRecvLeft.Equal(y.TauRecvLeft) {
			t.Fatalf("%s: node %d states differ:\n%+v\n%+v", label, id, x, y)
		}
		if len(x.SendRates) != len(y.SendRates) {
			t.Fatalf("%s: node %d send-rate arity %d != %d", label, id, len(x.SendRates), len(y.SendRates))
		}
		for j := range y.SendRates {
			if !x.SendRates[j].Equal(y.SendRates[j]) {
				t.Fatalf("%s: node %d child %d send rate %s != %s", label, id, j, x.SendRates[j], y.SendRates[j])
			}
		}
	}
}

// TestAgreesWithSequential is the central property: the distributed run
// computes exactly the same throughput, per-node states, visit set and
// (therefore) schedules as the sequential reference, at two messages per
// visited node, across all generator families, forward-only and with
// result returns.
func TestAgreesWithSequential(t *testing.T) {
	for _, k := range treegen.Kinds {
		for seed := int64(0); seed < 15; seed++ {
			for _, n := range []int{1, 2, 7, 23, 60} {
				for d, tr := range returnVariants(t, treegen.Generate(k, n, seed)) {
					label := fmt.Sprintf("%v/%d/%d/variant %d", k, seed, n, d)
					got := SolveObserved(tr, nil)
					sameStates(t, label, got, bwfirst.Solve(tr))
					if got.Messages != 2*got.VisitedCount {
						t.Fatalf("%s: %d messages for %d visited nodes", label, got.Messages, got.VisitedCount)
					}
				}
			}
		}
	}
}

// TestReturnStarMatchesLP is the regression case for the two-port model:
// a switch root with two workers (c = 1/2, w = 1, d = 1). The root's
// receive port takes one result per time unit, so the optimum is 1 and
// the second worker is never visited; a protocol without the return
// model reported 2 after visiting all three nodes.
func TestReturnStarMatchesLP(t *testing.T) {
	tr, err := tree.ParseText(strings.NewReader("P0 - - inf -\nP1 P0 1/2 1 1\nP2 P0 1/2 1 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	res := SolveObserved(tr, nil)
	if !res.Throughput.Equal(rat.One) || res.VisitedCount != 2 || res.Messages != 4 {
		t.Fatalf("throughput %s, %d visited, %d messages; want 1, 2, 4",
			res.Throughput, res.VisitedCount, res.Messages)
	}
	opt, _, err := lp.OptimalThroughput(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Equal(res.Throughput) {
		t.Fatalf("protocol %s != exact LP %s", res.Throughput, opt)
	}
	sameStates(t, "star", res, bwfirst.Solve(tr))
}

// TestMessageCount: exactly two messages per closed transaction — the
// protocol cost the paper argues is negligible against task communication.
func TestMessageCount(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := treegen.Generate(treegen.Uniform, 40, seed)
		want := bwfirst.Solve(tr)
		got := SolveObserved(tr, nil)
		if got.Messages != 2*len(want.Transactions)+2 {
			t.Fatalf("seed %d: messages = %d, want 2·%d+2", seed, got.Messages, len(want.Transactions))
		}
	}
}

// TestBandwidthLimitedSkipsActors: goroutines of pruned subtrees must shut
// down cleanly without ever being visited (no leaks, no deadlock — the
// test would hang otherwise).
func TestBandwidthLimitedSkipsActors(t *testing.T) {
	skipped := false
	for seed := int64(0); seed < 20; seed++ {
		tr := treegen.Generate(treegen.BandwidthLimited, 50, seed)
		res := SolveObserved(tr, nil)
		if res.VisitedCount < tr.Len() {
			skipped = true
		}
	}
	if !skipped {
		t.Fatal("no platform exercised the unvisited-actor shutdown path")
	}
}

func BenchmarkDistributedSolve100(b *testing.B) {
	tr := treegen.Generate(treegen.Uniform, 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SolveObserved(tr, nil)
	}
}

func BenchmarkSequentialSolve100(b *testing.B) {
	tr := treegen.Generate(treegen.Uniform, 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bwfirst.Solve(tr)
	}
}

func TestSessionMultipleRounds(t *testing.T) {
	tr := treegen.Generate(treegen.Uniform, 20, 9)
	want := bwfirst.Solve(tr).Throughput
	s := NewSession(tr)
	defer s.Close()
	for round := 0; round < 5; round++ {
		res := s.Run()
		if !res.Throughput.Equal(want) {
			t.Fatalf("round %d: throughput %s != %s", round, res.Throughput, want)
		}
	}
}

func TestSessionRenegotiate(t *testing.T) {
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		Child("P0", "P2", rat.FromInt(3), rat.Two).
		MustBuild()
	s := NewSession(tr)
	defer s.Close()
	first := s.Run()
	if !first.Throughput.Equal(rat.New(19, 18)) {
		t.Fatalf("first round: %s", first.Throughput)
	}
	// The link to P1 degrades; the root re-initiates against the
	// re-measured platform without restarting any node process.
	degraded, err := tr.WithCommTime(tr.MustLookup("P1"), rat.FromInt(6))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Renegotiate(degraded)
	if err != nil {
		t.Fatal(err)
	}
	want := bwfirst.Solve(degraded).Throughput
	if !second.Throughput.Equal(want) {
		t.Fatalf("renegotiated throughput %s != %s", second.Throughput, want)
	}
	if second.Throughput.Equal(first.Throughput) {
		t.Fatal("degradation did not change the throughput (weak test platform)")
	}
	// A third round on the same session still works.
	third := s.Run()
	if !third.Throughput.Equal(want) {
		t.Fatalf("third round: %s", third.Throughput)
	}
}

func TestSessionTopologyGuard(t *testing.T) {
	tr := tree.NewBuilder().Root("a", rat.One).Child("a", "b", rat.One, rat.One).MustBuild()
	s := NewSession(tr)
	defer s.Close()
	bigger := tree.NewBuilder().
		Root("a", rat.One).
		Child("a", "b", rat.One, rat.One).
		Child("a", "c", rat.One, rat.One).
		MustBuild()
	if _, err := s.Renegotiate(bigger); err == nil {
		t.Fatal("node-count change accepted")
	}
	renamed := tree.NewBuilder().Root("a", rat.One).Child("a", "zz", rat.One, rat.One).MustBuild()
	if _, err := s.Renegotiate(renamed); err == nil {
		t.Fatal("rename accepted")
	}
}

func TestSessionCloseIdempotentAndRunPanics(t *testing.T) {
	tr := tree.NewBuilder().Root("a", rat.One).MustBuild()
	s := NewSession(tr)
	s.Close()
	s.Close() // must not panic or deadlock
	defer func() {
		if recover() == nil {
			t.Fatal("Run on closed session did not panic")
		}
	}()
	s.Run()
}

func TestSessionEmptyTree(t *testing.T) {
	s := NewSession(&tree.Tree{})
	defer s.Close()
	if res := s.Run(); !res.Throughput.IsZero() {
		t.Fatalf("empty: %+v", res)
	}
}
