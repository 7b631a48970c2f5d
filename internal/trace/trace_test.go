package trace

import (
	"strings"
	"testing"

	"bwc/internal/rat"
	"bwc/internal/tree"
)

func tinyTree(t *testing.T) *tree.Tree {
	t.Helper()
	return tree.NewBuilder().
		Root("P0", rat.One).
		Child("P0", "P1", rat.One, rat.One).
		MustBuild()
}

func TestCompletionCounting(t *testing.T) {
	tr := &Trace{Tree: tinyTree(t)}
	for i := int64(1); i <= 10; i++ {
		tr.AddCompletion(0, rat.FromInt(i))
	}
	if tr.TotalCompleted() != 10 {
		t.Fatalf("total = %d", tr.TotalCompleted())
	}
	if got := tr.CompletedIn(rat.FromInt(3), rat.FromInt(6)); got != 3 {
		t.Fatalf("CompletedIn[3,6) = %d", got) // 3,4,5
	}
	if got := tr.PeriodCounts(rat.FromInt(4), rat.FromInt(10)); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("PeriodCounts = %v", got) // [1,2,3] then [4..7]
	}
}

func TestSteadyStart(t *testing.T) {
	tr := &Trace{Tree: tinyTree(t)}
	// Period 10, steady rate 2/period. Ramp: 0 in [0,10), 1 in [10,20),
	// then 2 per period.
	tr.AddCompletion(0, rat.FromInt(15))
	for _, at := range []int64{21, 25, 31, 35, 41, 45} {
		tr.AddCompletion(0, rat.FromInt(at))
	}
	start, ok := tr.SteadyStart(rat.FromInt(10), 2, rat.FromInt(50))
	if !ok || !start.Equal(rat.FromInt(20)) {
		t.Fatalf("steady start = %s %v", start, ok)
	}
	// Demanding 3 per period never settles.
	if _, ok := tr.SteadyStart(rat.FromInt(10), 3, rat.FromInt(50)); ok {
		t.Fatal("settled at impossible rate")
	}
	// Immediate steady state: window 0 already qualifies.
	tr2 := &Trace{Tree: tinyTree(t)}
	tr2.AddCompletion(0, rat.FromInt(5))
	tr2.AddCompletion(0, rat.FromInt(15))
	start, ok = tr2.SteadyStart(rat.FromInt(10), 1, rat.FromInt(20))
	if !ok || !start.IsZero() {
		t.Fatalf("immediate steady start = %s %v", start, ok)
	}
}

func TestBuffers(t *testing.T) {
	tr := &Trace{Tree: tinyTree(t)}
	tr.AddBufferSample(1, rat.One, 1)
	tr.AddBufferSample(1, rat.Two, 3)
	tr.AddBufferSample(1, rat.FromInt(4), 0)
	tr.AddBufferSample(0, rat.One, 2)
	if got := tr.BufferAt(1, rat.New(3, 1)); got != 3 {
		t.Fatalf("BufferAt(1,3) = %d", got)
	}
	if got := tr.BufferAt(1, rat.New(1, 2)); got != 0 {
		t.Fatalf("BufferAt before first sample = %d", got)
	}
	if got := tr.BufferAt(1, rat.FromInt(9)); got != 0 {
		t.Fatalf("BufferAt(1,9) = %d", got)
	}
	if got := tr.BufferAt(0, rat.New(5, 2)); got != 2 {
		t.Fatalf("BufferAt(0,5/2) = %d", got)
	}
	mx := tr.MaxBufferHeld()
	if mx[0] != 2 || mx[1] != 3 {
		t.Fatalf("MaxBufferHeld = %v", mx)
	}
}

func TestLastCompletion(t *testing.T) {
	tr := &Trace{Tree: tinyTree(t)}
	if _, ok := tr.LastCompletion(); ok {
		t.Fatal("empty trace has a last completion")
	}
	tr.AddCompletion(0, rat.FromInt(7))
	tr.AddCompletion(1, rat.FromInt(3))
	last, ok := tr.LastCompletion()
	if !ok || !last.Equal(rat.FromInt(7)) {
		t.Fatalf("last = %s %v", last, ok)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	tt := tinyTree(t)
	tr := &Trace{Tree: tt}
	tr.AddInterval(Interval{Node: 0, Kind: Send, Start: rat.Zero, End: rat.Two, Peer: 1})
	tr.AddInterval(Interval{Node: 0, Kind: Send, Start: rat.One, End: rat.FromInt(3), Peer: 1})
	err := tr.Validate()
	if err == nil || !strings.Contains(err.Error(), "overlapping S") {
		t.Fatalf("err = %v", err)
	}
	// Different kinds may overlap (full-overlap model).
	tr2 := &Trace{Tree: tt}
	tr2.AddInterval(Interval{Node: 0, Kind: Send, Start: rat.Zero, End: rat.Two, Peer: 1})
	tr2.AddInterval(Interval{Node: 0, Kind: Compute, Start: rat.Zero, End: rat.Two, Peer: tree.None})
	tr2.AddInterval(Interval{Node: 0, Kind: Recv, Start: rat.Zero, End: rat.Two, Peer: 1})
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
	// Back-to-back intervals are fine.
	tr3 := &Trace{Tree: tt}
	tr3.AddInterval(Interval{Node: 0, Kind: Send, Start: rat.Zero, End: rat.One, Peer: 1})
	tr3.AddInterval(Interval{Node: 0, Kind: Send, Start: rat.One, End: rat.Two, Peer: 1})
	if err := tr3.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesReversedInterval(t *testing.T) {
	tr := &Trace{Tree: tinyTree(t)}
	tr.AddInterval(Interval{Node: 0, Kind: Send, Start: rat.Two, End: rat.One, Peer: 1})
	if err := tr.Validate(); err == nil {
		t.Fatal("reversed interval accepted")
	}
}

func TestKindString(t *testing.T) {
	if Send.String() != "S" || Compute.String() != "C" || Recv.String() != "R" || Kind(9).String() != "?" {
		t.Fatal("Kind.String wrong")
	}
}

func TestPeriodCountsZeroPeriod(t *testing.T) {
	tr := &Trace{Tree: tinyTree(t)}
	if got := tr.PeriodCounts(rat.Zero, rat.FromInt(10)); got != nil {
		t.Fatalf("zero period counts = %v", got)
	}
}

func TestBusyTimeAndUtilization(t *testing.T) {
	tr := &Trace{Tree: tinyTree(t)}
	tr.AddInterval(Interval{Node: 0, Kind: Compute, Start: rat.One, End: rat.FromInt(3), Peer: tree.None})
	tr.AddInterval(Interval{Node: 0, Kind: Compute, Start: rat.FromInt(5), End: rat.FromInt(6), Peer: tree.None})
	tr.AddInterval(Interval{Node: 0, Kind: Send, Start: rat.Zero, End: rat.FromInt(10), Peer: 1})
	// Window [2, 6): compute busy [2,3) + [5,6) = 2; send busy 4.
	if got := tr.BusyTime(0, Compute, rat.Two, rat.FromInt(6)); !got.Equal(rat.Two) {
		t.Fatalf("busy = %s", got)
	}
	// Utilization is busy time over the window's width: compute 1/2 of
	// it, the send port all of it, the receive port none.
	if got := tr.BusyTime(0, Send, rat.Two, rat.FromInt(6)); !got.Equal(rat.FromInt(4)) {
		t.Fatalf("send busy = %s", got)
	}
	if got := tr.BusyTime(0, Recv, rat.Two, rat.FromInt(6)); !got.IsZero() {
		t.Fatalf("recv busy = %s", got)
	}
	if got := tr.BusyTime(0, Compute, rat.Two, rat.Two); !got.IsZero() {
		t.Fatal("empty window")
	}
}
