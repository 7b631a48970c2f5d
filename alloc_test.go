package bwc_test

import (
	"runtime"
	"testing"

	"bwc"
	"bwc/internal/benchfix"
)

// TestBuildScheduleAllocs bounds the heap allocations of one schedule
// build on the BuildSchedule stage fixture (64 nodes, largest bunch
// 15,179 slots). A schedule holds its Lemma-1 numbers and no pattern,
// idle rows share their zeros, and active rows take their counts from
// arenas allocated once per build, so the count is a constant: neither
// Ψ nor the node count shows in it. The ceiling is the measured 10 plus
// slack.
func TestBuildScheduleAllocs(t *testing.T) {
	res := bwc.Solve(benchfix.LongBunch64())
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := bwc.BuildSchedule(res); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per schedule build", allocs)
	if allocs > 16 {
		t.Fatalf("%.0f allocs per schedule build", allocs)
	}
}

// TestFoldedThroughputAllocs bounds the folded-model solve of a 64-node
// SETI platform with a return time on every link. The fold clones the
// tree once, however many links carry returns. The ceiling is the
// measured 52 plus slack.
func TestFoldedThroughputAllocs(t *testing.T) {
	tr, err := bwc.PlatformWithUniformResultReturn(bwc.GeneratePlatform(bwc.SETI, 64, 12), bwc.RatInt(1))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := bwc.FoldedThroughput(tr); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per folded solve", allocs)
	if allocs > 70 {
		t.Fatalf("%.0f allocs per folded solve", allocs)
	}
}

// TestSolveAllocs bounds the heap allocations of one unobserved solve
// of a 64-node SETI platform (13 transactions, 14 visited nodes). The
// count tracks the visited nodes: a node state per node in one slice,
// a send-rate slice and a child order per visited parent, and the
// transaction log. Spans and their names are built only for an enabled
// observer. The ceiling is the measured 14 (87 when every transaction
// formatted its span) plus slack.
func TestSolveAllocs(t *testing.T) {
	tr := bwc.GeneratePlatform(bwc.SETI, 64, 12)
	allocs := testing.AllocsPerRun(20, func() { bwc.Solve(tr) })
	t.Logf("%.0f allocs per solve", allocs)
	if allocs > 30 {
		t.Fatalf("%.0f allocs per solve", allocs)
	}
}

// TestAnalyzeRunAllocs bounds the heap allocations of one AnalyzeRun
// over an observed 120-task run of the Analyze stage fixture (16 nodes).
// Each run is simulated outside the count. The analyzer indexes the run's
// trace by position and builds no span, merges each node's buffer replay
// and reads the periods its schedule computed once, so the count tracks
// the nodes and checks, not the intervals. The ceiling is the measured
// 137 (322 before the periods were computed once) plus slack.
func TestAnalyzeRunAllocs(t *testing.T) {
	s, err := bwc.BuildSchedule(bwc.Solve(benchfix.Analyze16()))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	var total uint64
	for i := 0; i < runs; i++ {
		run, err := bwc.Simulate(s, bwc.WithTasks(benchfix.AnalyzeTasks), bwc.WithObserver(bwc.NewObserver()))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bwc.AnalyzeRun(run)
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	allocs := float64(total) / runs
	t.Logf("%.0f allocs per analysis", allocs)
	if allocs > 170 {
		t.Fatalf("%.0f allocs per analysis", allocs)
	}
}

// TestSimulateAllocs bounds the heap allocations of one unobserved run of
// the paper's Figure-5 experiment (stop 115). Every DES event is a
// pointer-free typed record, no per-task transition is a closure, and
// the engine's queues reuse their storage, so the count tracks the
// run's setup and the trace's growth, not its events: a closure or a
// queue re-growth per task would add hundreds. The ceiling is the
// measured 64 (910 with per-event closures) plus slack.
func TestSimulateAllocs(t *testing.T) {
	s := benchfix.PaperSchedule()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := bwc.Simulate(s, bwc.WithStop(bwc.RatInt(115))); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per unobserved Figure-5 run", allocs)
	if allocs > 80 {
		t.Fatalf("%.0f allocs per unobserved Figure-5 run", allocs)
	}
}
