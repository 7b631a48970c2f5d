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

// TestParsePlatformAllocs bounds the heap allocations of parsing a
// 64-node SETI platform's text. Lines and fields are substrings of the
// text and rationals on the int64 path never reach math/big, so what
// allocates is one copy of each name (so the tree does not keep the
// text alive) and the growth of the nodes slice, the name index and
// each parent's children. The ceiling is the measured 97 (953 with the
// line reader and math/big) plus slack.
func TestParsePlatformAllocs(t *testing.T) {
	text := bwc.FormatPlatform(bwc.GeneratePlatform(bwc.SETI, 64, 12))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := bwc.ParsePlatformString(text); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per parse", allocs)
	if allocs > 110 {
		t.Fatalf("%.0f allocs per parse", allocs)
	}
}

// TestFingerprintAllocs bounds the heap allocations of a first
// fingerprint of a 256-node SETI platform: one text buffer sized from
// the node count, the hex key and the memo's pointer. Each tree is
// cloned outside the count, since the key is memoized. The ceiling is
// the measured 4 (256 when each rational went through fmt) plus slack.
func TestFingerprintAllocs(t *testing.T) {
	tr := bwc.GeneratePlatform(bwc.SETI, 256, 11)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var total uint64
	for i := 0; i < runs; i++ {
		fresh := tr.Clone()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bwc.PlatformFingerprint(fresh)
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	allocs := float64(total) / runs
	t.Logf("%.0f allocs per fingerprint", allocs)
	if allocs > 8 {
		t.Fatalf("%.0f allocs per fingerprint", allocs)
	}
}

// TestMarshalDeploymentAllocs bounds the heap allocations of rendering
// the deployment document of the 64-node BuildSchedule fixture: one
// buffer sized from the active count, grown at most a few times, and
// the index slice of the ψ keys. The ceiling is the measured 4 (77
// through maps, reflection and json.MarshalIndent) plus slack.
func TestMarshalDeploymentAllocs(t *testing.T) {
	s, err := bwc.BuildSchedule(bwc.Solve(benchfix.LongBunch64()))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := bwc.MarshalDeployment(s); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per deployment document", allocs)
	if allocs > 8 {
		t.Fatalf("%.0f allocs per deployment document", allocs)
	}
}

// TestRatStringAllocs: formatting a rational makes exactly one
// allocation, the string (2 through fmt.Sprintf). String does not call
// Append, so the digits are formatted in a stack buffer.
func TestRatStringAllocs(t *testing.T) {
	r := bwc.Rat(-355, 113)
	var s string
	allocs := testing.AllocsPerRun(100, func() { s = r.String() })
	if s != "-355/113" || allocs != 1 {
		t.Fatalf("String = %q in %.0f allocs, want -355/113 in 1", s, allocs)
	}
}
