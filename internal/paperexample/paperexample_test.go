package paperexample

import (
	"testing"

	"bwc/internal/bottomup"
	"bwc/internal/bwfirst"
	"bwc/internal/lp"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/tree"
)

func TestThroughputInvariant(t *testing.T) {
	tr := Tree()
	res := bwfirst.Solve(tr)
	if !res.TMax.Equal(TMax) {
		t.Fatalf("t_max = %s, want %s", res.TMax, TMax)
	}
	if !res.Throughput.Equal(Throughput) {
		t.Fatalf("throughput = %s, want %s (10 tasks every 9 units)", res.Throughput, Throughput)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The two baselines agree.
	if bu := bottomup.Solve(tr); !bu.Throughput.Equal(Throughput) {
		t.Fatalf("bottom-up = %s", bu.Throughput)
	}
	opt, _, err := lp.OptimalThroughput(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Equal(Throughput) {
		t.Fatalf("LP = %s", opt)
	}
}

func TestUnvisitedInvariant(t *testing.T) {
	tr := Tree()
	res := bwfirst.Solve(tr)
	want := map[string]bool{}
	for _, n := range Unvisited {
		want[n] = true
	}
	for id := 0; id < tr.Len(); id++ {
		name := tr.Name(tree.NodeID(id))
		if res.Visited(tree.NodeID(id)) == want[name] {
			t.Errorf("node %s: visited=%v, want unvisited=%v", name, res.Visited(tree.NodeID(id)), want[name])
		}
	}
	if res.VisitedCount != tr.Len()-len(Unvisited) {
		t.Fatalf("visited %d of %d", res.VisitedCount, tr.Len())
	}
}

// Alphas returns the expected per-node compute rates.
func Alphas() map[string]rat.R {
	return map[string]rat.R{
		"P0":  rat.New(1, 9),
		"P1":  rat.New(1, 8),
		"P2":  rat.New(1, 4),
		"P3":  rat.New(1, 8),
		"P4":  rat.New(1, 5),
		"P5":  rat.Zero,
		"P6":  rat.New(1, 5),
		"P7":  rat.New(1, 20),
		"P8":  rat.New(1, 20),
		"P9":  rat.Zero,
		"P10": rat.Zero,
		"P11": rat.Zero,
	}
}

// EdgeRates returns the expected steady-state task rate on each used edge,
// keyed by child name.
func EdgeRates() map[string]rat.R {
	return map[string]rat.R{
		"P1": rat.New(1, 2),
		"P2": rat.New(1, 2),
		"P3": rat.New(1, 8),
		"P4": rat.New(1, 4),
		"P6": rat.New(1, 5),
		"P7": rat.New(1, 20),
		"P8": rat.New(1, 20),
	}
}

func TestAlphaAndEdgeRates(t *testing.T) {
	tr := Tree()
	res := bwfirst.Solve(tr)
	for name, want := range Alphas() {
		id := tr.MustLookup(name)
		if got := res.Nodes[id].Alpha; !got.Equal(want) {
			t.Errorf("α(%s) = %s, want %s", name, got, want)
		}
	}
	for name, want := range EdgeRates() {
		id := tr.MustLookup(name)
		if got := res.SendRate(id); !got.Equal(want) {
			t.Errorf("η(%s) = %s, want %s", name, got, want)
		}
	}
}

func TestPeriodInvariants(t *testing.T) {
	res := bwfirst.Solve(Tree())
	s, err := sched.Build(res, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.TreePeriod(); got.Int64() != TreePeriod {
		t.Fatalf("tree period = %s, want %d", got, TreePeriod)
	}
	if got := s.RootlessPeriod(); got.Int64() != RootlessPeriod {
		t.Fatalf("rootless period = %s, want %d", got, RootlessPeriod)
	}
	if got := s.RootlessRate(); !got.Equal(RootlessRate) {
		t.Fatalf("rootless rate = %s, want %s", got, RootlessRate)
	}
}

func TestTranscriptShape(t *testing.T) {
	tr := Tree()
	res := bwfirst.Solve(tr)
	// Seven closed transactions (one per used edge), in depth-first
	// bandwidth-centric order: P0→P1, P1→P3, P1→P4, P4→P8, P0→P2,
	// P2→P6, P2→P7.
	wantOrder := []string{"P1", "P3", "P4", "P8", "P2", "P6", "P7"}
	if len(res.Transactions) != len(wantOrder) {
		t.Fatalf("%d transactions, want %d:\n%s", len(res.Transactions), len(wantOrder), res.TranscriptString())
	}
	for i, tx := range res.Transactions {
		if tr.Name(tx.Child) != wantOrder[i] {
			t.Fatalf("transaction %d targets %s, want %s\n%s", i, tr.Name(tx.Child), wantOrder[i], res.TranscriptString())
		}
	}
}
