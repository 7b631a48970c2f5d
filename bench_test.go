// Benchmarks regenerating every figure and quantitative claim of the
// paper's evaluation (Sections 4-9). Each BenchmarkE<n> corresponds to an
// experiment in DESIGN.md / EXPERIMENTS.md; custom metrics carry the
// reproduced quantities so `go test -bench=. -benchmem` doubles as the
// reproduction harness. cmd/experiments prints the same numbers with
// paper-vs-measured commentary.
package bwc_test

import (
	"testing"

	"bwc"
	"bwc/internal/benchfix"
)

// E1 — Figure 2 / Proposition 1: fork-graph reduction. The bottom-up
// reduction and BW-First agree on fork graphs (trees of height 1).
func BenchmarkE1ForkReduction(b *testing.B) {
	tr := benchfix.Fork16()
	want := bwc.BottomUp(tr).Throughput
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := bwc.Solve(tr)
		if !res.Throughput.Equal(want) {
			b.Fatal("fork reduction mismatch")
		}
	}
}

// E2 — Figure 3: the interleaved local schedule. Builds the schedule of a
// platform whose root bunch is the ψ = (1,2,4) pattern shape and validates
// its invariants.
func BenchmarkE2Interleave(b *testing.B) {
	tr := bwc.PaperExampleTree()
	res := bwc.Solve(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := bwc.BuildSchedule(res)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}

// E3 — Figure 4: the Section 8 example tree. Throughput 10/9 with nodes
// P5, P9, P10, P11 unvisited.
func BenchmarkE3ExampleTree(b *testing.B) {
	tr := bwc.PaperExampleTree()
	var res *bwc.Result
	for i := 0; i < b.N; i++ {
		res = bwc.Solve(tr)
	}
	if !res.Throughput.Equal(bwc.Rat(10, 9)) || res.VisitedCount != 8 {
		b.Fatalf("throughput %s visited %d", res.Throughput, res.VisitedCount)
	}
	b.ReportMetric(res.Throughput.Float64(), "tasks/unit")
	b.ReportMetric(float64(tr.Len()-res.VisitedCount), "unvisited")
}

// E4 — Figure 5: the full Gantt run with start-up and wind-down, stopping
// delegation at t = 115 as in the paper.
func BenchmarkE4Gantt(b *testing.B) {
	tr := bwc.PaperExampleTree()
	res := bwc.Solve(tr)
	s, err := bwc.BuildSchedule(res)
	if err != nil {
		b.Fatal(err)
	}
	var run *bwc.Run
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err = bwc.Simulate(s, bwc.WithStop(bwc.RatInt(115)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := run.CheckConservation(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(run.Stats.WindDown.Float64(), "winddown-units")
	b.ReportMetric(float64(run.Stats.MaxHeld), "max-buffered")
	// Rootless tasks completed during the first rootless period (the
	// paper reports 32 of 40 = 80%).
	startup := 0
	for _, c := range run.Trace.Completions {
		if c.Node != tr.Root() && c.At.Less(bwc.RatInt(40)) {
			startup++
		}
	}
	b.ReportMetric(float64(startup), "startup-tasks")
}

// E5 — Section 5: BW-First visits only the nodes used by the optimal
// schedule; the bottom-up baseline touches all of them.
func BenchmarkE5VisitedNodes(b *testing.B) {
	tr := benchfix.BandwidthLimited200()
	var visited, touched int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		visited = bwc.Solve(tr).VisitedCount
		touched = bwc.BottomUp(tr).NodesTouched
	}
	b.ReportMetric(float64(visited), "bwfirst-visited")
	b.ReportMetric(float64(touched), "bottomup-touched")
}

// E6 — Proposition 2 / optimality: BW-First == bottom-up == exact LP.
func BenchmarkE6LPCrossCheck(b *testing.B) {
	tr := benchfix.Uniform25()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bwc.Verify(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// E7 — Section 6.3 ablation: the interleaved local schedule vs block
// allocation — steady-state buffering and wind-down.
func BenchmarkE7BufferAblation(b *testing.B) {
	tr := bwc.PaperExampleTree()
	res := bwc.Solve(tr)
	for _, mode := range []struct {
		name  string
		block bool
	}{{"interleaved", false}, {"block", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := bwc.BuildSchedule(res, bwc.WithScheduleOptions(bwc.ScheduleOptions{Block: mode.block}))
			if err != nil {
				b.Fatal(err)
			}
			var run *bwc.Run
			for i := 0; i < b.N; i++ {
				run, err = bwc.Simulate(s, bwc.WithStop(bwc.RatInt(115)), bwc.WithSkipIntervals())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(run.Stats.MaxHeld), "max-buffered")
			b.ReportMetric(run.Stats.WindDown.Float64(), "winddown-units")
		})
	}
}

// E8 — Section 7 vs Kreaseck et al.: event-driven start-up vs the
// demand-driven protocol on the same platform.
func BenchmarkE8Kreaseck(b *testing.B) {
	tr := bwc.PaperExampleTree()
	b.Run("event-driven", func(b *testing.B) {
		res := bwc.Solve(tr)
		s, err := bwc.BuildSchedule(res)
		if err != nil {
			b.Fatal(err)
		}
		var run *bwc.Run
		for i := 0; i < b.N; i++ {
			run, err = bwc.Simulate(s, bwc.WithStop(bwc.RatInt(115)), bwc.WithSkipIntervals())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(run.Stats.MaxHeld), "max-buffered")
		b.ReportMetric(float64(run.Stats.Completed), "tasks")
	})
	b.Run("demand-driven", func(b *testing.B) {
		var run *bwc.DemandRun
		var err error
		for i := 0; i < b.N; i++ {
			run, err = bwc.SimulateDemandDriven(tr, bwc.DemandOptions{Stop: bwc.RatInt(115), SkipIntervals: true})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(run.Stats.MaxHeld), "max-buffered")
		b.ReportMetric(float64(run.Stats.Completed), "tasks")
	})
}

// E9 — Section 5 protocol cost: the distributed procedure's messages and
// wall time as the platform grows.
func BenchmarkE9Scalability(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		// Compute-limited platforms keep every node useful, so the
		// message count scales with the platform (2 per transaction).
		tr := benchfix.ComputeLimited(n)
		b.Run(byN(n), func(b *testing.B) {
			var res *bwc.DistributedResult
			for i := 0; i < b.N; i++ {
				res = bwc.SolveDistributed(tr)
			}
			b.ReportMetric(float64(res.Messages), "messages")
			b.ReportMetric(float64(res.VisitedCount), "visited")
		})
	}
}

func byN(n int) string {
	switch n {
	case 10:
		return "n=10"
	case 100:
		return "n=100"
	default:
		return "n=1000"
	}
}

// E10 — Section 9: the result-return counter-example. Separate flows
// reach 2 tasks/unit; the folded model predicts 1.
func BenchmarkE10ResultReturn(b *testing.B) {
	p, err := benchfix.ResultReturnStar()
	if err != nil {
		b.Fatal(err)
	}
	var opt, folded bwc.Rational
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, _, err = bwc.LPThroughput(p)
		if err != nil {
			b.Fatal(err)
		}
		folded, err = bwc.FoldedThroughput(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(opt.Float64(), "true-tasks/unit")
	b.ReportMetric(folded.Float64(), "folded-tasks/unit")
}

// E11 — Section 5 / [3]: infinite network trees. The truncated rate
// converges exactly to the closed-form infinite rate 1/w + 1/c.
func BenchmarkE11InfiniteTree(b *testing.B) {
	spec := bwc.InfiniteSpec{Fanout: 1, Proc: bwc.RatInt(4), Comm: bwc.Rat(1, 2)}
	limit, err := bwc.InfiniteRate(spec)
	if err != nil {
		b.Fatal(err)
	}
	var depth8 bwc.Rational
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depth8, err = bwc.TruncatedRate(spec, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !depth8.Equal(limit) {
		b.Fatalf("depth-8 rate %s != infinite %s", depth8, limit)
	}
	b.ReportMetric(limit.Float64(), "infinite-rate")
	b.ReportMetric(8, "exact-at-depth")
}

// E12 — Section 2: the event-driven schedule as a makespan heuristic. The
// makespan of a 400-task batch stays within a few percent of the
// steady-state lower bound N/ρ*.
func BenchmarkE12Makespan(b *testing.B) {
	tr := bwc.PaperExampleTree()
	var res bwc.MakespanResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = bwc.BatchMakespan(tr, 400)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Ratio, "makespan/lower-bound")
	b.ReportMetric(res.Overhead.Float64(), "overhead-units")
}

// E13 — Section 1 / [2]: the cost of restricting to tree overlays. The
// general-graph LP upper-bounds every spanning-tree overlay; the greedy
// bandwidth-centric overlay comes closest.
func BenchmarkE13GraphOverlay(b *testing.B) {
	g := bwc.RandomGraph(7, 14, 10, 0.2)
	var opt, greedy bwc.Rational
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		opt, err = bwc.GraphThroughput(g)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := g.SpanningTree(bwc.OverlayGreedy)
		if err != nil {
			b.Fatal(err)
		}
		greedy = bwc.Solve(tr).Throughput
	}
	if opt.Less(greedy) {
		b.Fatal("overlay beats the graph optimum")
	}
	b.ReportMetric(opt.Float64(), "graph-tasks/unit")
	b.ReportMetric(greedy.Float64(), "greedy-overlay-tasks/unit")
}

// E14 — Section 5 future work: the overhead of re-negotiation under
// platform dynamics. With an instant switch the overhead is nil; the cost
// scales with the detection lag during which stale schedules overdrive the
// degraded link.
func BenchmarkE14Renegotiation(b *testing.B) {
	before := bwc.PaperExampleTree()
	after, err := before.WithCommTime(before.MustLookup("P1"), bwc.RatInt(4))
	if err != nil {
		b.Fatal(err)
	}
	sBefore, err := bwc.BuildSchedule(bwc.Solve(before))
	if err != nil {
		b.Fatal(err)
	}
	sAfter, err := bwc.BuildSchedule(bwc.Solve(after))
	if err != nil {
		b.Fatal(err)
	}
	timeline := bwc.WithSimOptions(bwc.SimOptions{
		Phases:  []bwc.DynPhase{{At: bwc.RatInt(160), Schedule: sAfter}},
		Physics: []bwc.DynPhysics{{At: bwc.RatInt(120), Tree: after}},
	})
	var run *bwc.Run
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err = bwc.Simulate(sBefore, bwc.WithStop(bwc.RatInt(400)), bwc.WithSkipIntervals(), timeline)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(run.Stats.Completed), "tasks")
	b.ReportMetric(float64(run.Stats.Dropped), "dropped")
}

// E15 — Section 6: bounding "embarrassingly long" periods by quantizing
// rates to denominators dividing D. On a prime-heavy platform the exact
// period is 323323; D = 100 caps it at 100 for ~5% throughput loss.
func BenchmarkE15Quantize(b *testing.B) {
	tr := benchfix.PrimeHeavy()
	res := bwc.Solve(tr)
	var thr bwc.Rational
	var s *bwc.Schedule
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		s, thr, err = bwc.QuantizeSchedule(res, 100)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.TreePeriod().Int64()), "period")
	b.ReportMetric(100*res.Throughput.Sub(thr).Float64()/res.Throughput.Float64(), "loss-%")
}

// Observability overhead (PR 1). BenchmarkObsDisabled is the E4 inner
// loop with the instrumentation compiled in but switched off (nil
// Observer): its cost over the seed's BenchmarkE4Gantt is the price every
// un-observed simulation pays — the acceptance bound is <5%.
// BenchmarkObsEnabled runs the same loop with a live Observer collecting
// spans, counters and gauges, measuring the full-instrumentation cost.
func BenchmarkObsDisabled(b *testing.B) {
	s := benchfix.PaperSchedule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bwc.Simulate(s, bwc.WithStop(bwc.RatInt(115))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsEnabled(b *testing.B) {
	s := benchfix.PaperSchedule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ob := bwc.NewObserver()
		if _, err := bwc.Simulate(s, bwc.WithStop(bwc.RatInt(115)), bwc.WithObserver(ob)); err != nil {
			b.Fatal(err)
		}
	}
}
