package bwc_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bwc"
)

func TestEndToEndPaperTree(t *testing.T) {
	tr := bwc.PaperExampleTree()
	thr, err := bwc.Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !thr.Equal(bwc.Rat(10, 9)) {
		t.Fatalf("throughput = %s, want 10/9", thr)
	}
	res := bwc.Solve(tr)
	s, err := bwc.BuildSchedule(res)
	if err != nil {
		t.Fatal(err)
	}
	run, err := bwc.Simulate(s, bwc.WithStop(bwc.RatInt(115)))
	if err != nil {
		t.Fatal(err)
	}
	if err := run.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if run.Stats.Completed != run.Stats.Generated || run.Stats.Completed == 0 {
		t.Fatalf("stats: %+v", run.Stats)
	}
	// Wind-down considerably shorter than the rootless period (Section 8).
	if !run.Stats.WindDown.Less(bwc.RatInt(20)) {
		t.Fatalf("wind-down = %s", run.Stats.WindDown)
	}
}

func TestVerifyAcrossFamilies(t *testing.T) {
	kinds := []bwc.PlatformKind{
		bwc.Uniform, bwc.BandwidthLimited, bwc.ComputeLimited,
		bwc.DeepChain, bwc.WideStar, bwc.SwitchHeavy, bwc.SETI,
	}
	for _, k := range kinds {
		for seed := int64(0); seed < 3; seed++ {
			tr := bwc.GeneratePlatform(k, 15, seed)
			if _, err := bwc.Verify(tr); err != nil {
				t.Fatalf("%v/%d: %v", k, seed, err)
			}
		}
	}
}

func TestFacadeIO(t *testing.T) {
	tr := bwc.PaperExampleTree()
	text := bwc.FormatPlatform(tr)
	back, err := bwc.ParsePlatformString(text)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(back) {
		t.Fatal("text round trip changed the platform")
	}
	res := bwc.Solve(tr)
	dot := bwc.DOT(tr, res.Visited)
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "filled") {
		t.Fatalf("DOT output: %q", dot)
	}
}

func TestFacadeGantt(t *testing.T) {
	res := bwc.Solve(bwc.PaperExampleTree())
	s, err := bwc.BuildSchedule(res)
	if err != nil {
		t.Fatal(err)
	}
	run, err := bwc.Simulate(s, bwc.WithPeriods(2))
	if err != nil {
		t.Fatal(err)
	}
	ascii := bwc.GanttASCII(run.Trace, bwc.RatInt(0), bwc.RatInt(30), bwc.RatInt(1))
	if !strings.Contains(ascii, "P0") {
		t.Fatalf("ascii gantt: %q", ascii)
	}
	svg := bwc.GanttSVG(run.Trace, bwc.RatInt(0), bwc.RatInt(30), 8)
	if !strings.Contains(svg, "<svg") {
		t.Fatal("svg gantt broken")
	}
}

func TestFacadeDemandDriven(t *testing.T) {
	tr := bwc.GeneratePlatform(bwc.ComputeLimited, 8, 1)
	run, err := bwc.SimulateDemandDriven(tr, bwc.DemandOptions{Stop: bwc.RatInt(60)})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.Completed == 0 {
		t.Fatal("no completions")
	}
}

func TestFacadeResultReturn(t *testing.T) {
	tr, err := bwc.ParsePlatformString(`
m  -  -   inf
w1 m  1/2 1
w2 m  1/2 1
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := bwc.PlatformWithUniformResultReturn(tr, bwc.Rat(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := bwc.LPThroughput(p)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := bwc.FoldedThroughput(p)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Equal(bwc.RatInt(2)) || !folded.Equal(bwc.RatInt(1)) {
		t.Fatalf("opt=%s folded=%s, want 2 and 1", opt, folded)
	}
}

func TestParseRat(t *testing.T) {
	v, err := bwc.ParseRat("10/9")
	if err != nil || !v.Equal(bwc.Rat(10, 9)) {
		t.Fatalf("%s %v", v, err)
	}
	if _, err := bwc.ParseRat("x"); err == nil {
		t.Fatal("bad rational accepted")
	}
}

// ExampleSolve demonstrates computing the optimal throughput of a small
// platform.
func ExampleSolve() {
	platform := bwc.NewBuilder().
		Root("master", bwc.RatInt(2)).
		Child("master", "w1", bwc.RatInt(1), bwc.RatInt(3)).
		Child("master", "w2", bwc.RatInt(3), bwc.RatInt(2)).
		MustBuild()
	res := bwc.Solve(platform)
	fmt.Println("throughput:", res.Throughput)
	// Output: throughput: 19/18
}

// ExampleBuildSchedule shows a node's compact event-driven schedule.
func ExampleBuildSchedule() {
	platform := bwc.NewBuilder().
		Root("master", bwc.RatInt(2)).
		Child("master", "w1", bwc.RatInt(1), bwc.RatInt(3)).
		MustBuild()
	s, _ := bwc.BuildSchedule(bwc.Solve(platform))
	fmt.Println(s.DescribeNode(platform.MustLookup("w1")))
	// Output: w1: every 3 units, compute 1 | order: w1
}

// ExampleSolveDistributed runs the protocol with one goroutine per node.
func ExampleSolveDistributed() {
	res := bwc.SolveDistributed(bwc.PaperExampleTree())
	fmt.Println("throughput:", res.Throughput, "messages:", res.Messages)
	// Output: throughput: 10/9 messages: 16
}

func TestFacadeOracles(t *testing.T) {
	tr := bwc.PaperExampleTree()
	bu := bwc.BottomUp(tr)
	if !bu.Throughput.Equal(bwc.Rat(10, 9)) {
		t.Fatalf("bottom-up = %s", bu.Throughput)
	}
	if bu.NodesTouched != tr.Len() {
		t.Fatalf("bottom-up touched %d", bu.NodesTouched)
	}
	thr, alphas, err := bwc.LPThroughput(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !thr.Equal(bwc.Rat(10, 9)) || len(alphas) != tr.Len() {
		t.Fatalf("LP = %s (%d witnesses)", thr, len(alphas))
	}
}

func TestFacadeMakespan(t *testing.T) {
	tr := bwc.PaperExampleTree()
	ev, err := bwc.BatchMakespan(tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	lb := ev.LowerBound
	if !lb.Equal(bwc.RatInt(90)) {
		t.Fatalf("lb = %s", lb)
	}
	if ev.Makespan.Less(lb) {
		t.Fatalf("makespan %s below bound %s", ev.Makespan, lb)
	}
	dd, err := bwc.BatchMakespanDemandDriven(tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if dd.Makespan.Less(lb) {
		t.Fatalf("demand makespan %s below bound %s", dd.Makespan, lb)
	}
}

func TestFacadeInfinite(t *testing.T) {
	spec := bwc.InfiniteSpec{Fanout: 3, Proc: bwc.RatInt(2), Comm: bwc.RatInt(4)}
	rate, err := bwc.InfiniteRate(spec)
	if err != nil || !rate.Equal(bwc.Rat(3, 4)) {
		t.Fatalf("rate = %s err %v", rate, err)
	}
	tr0, err := bwc.TruncatedRate(spec, 0)
	if err != nil || !tr0.Equal(bwc.Rat(1, 2)) {
		t.Fatalf("depth0 = %s err %v", tr0, err)
	}
	if _, err := bwc.InfiniteRate(bwc.InfiniteSpec{}); err == nil {
		t.Fatal("zero spec accepted")
	}
}

func TestFacadeInterruptible(t *testing.T) {
	tr := bwc.PaperExampleTree()
	run, err := bwc.SimulateDemandDriven(tr, bwc.DemandOptions{Stop: bwc.RatInt(80), Interruptible: true, SkipIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.Completed == 0 {
		t.Fatal("no completions")
	}
}

func TestRandSourceDeterministic(t *testing.T) {
	a, b := bwc.RandSource(7), bwc.RandSource(7)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("RandSource not deterministic")
		}
	}
}

func TestVerifyOnBatchOfSizes(t *testing.T) {
	for _, n := range []int{1, 2, 4, 9, 33} {
		tr := bwc.GeneratePlatform(bwc.SwitchHeavy, n, int64(n))
		if _, err := bwc.Verify(tr); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestFacadeGraph(t *testing.T) {
	g, err := bwc.ParseGraph(strings.NewReader("node m 2\nnode w 1\nlink m w 1\nmaster m\n"))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := bwc.GraphThroughput(g)
	if err != nil || !opt.Equal(bwc.Rat(3, 2)) {
		t.Fatalf("opt = %s err %v", opt, err)
	}
	tr, err := g.SpanningTree(bwc.OverlayGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if got := bwc.Solve(tr).Throughput; !got.Equal(opt) {
		t.Fatalf("overlay = %s", got)
	}
	rg := bwc.RandomGraph(3, 10, 5, 0.1)
	if rg.Len() != 10 {
		t.Fatalf("random graph len %d", rg.Len())
	}
}

func TestFacadeDeploymentRoundTrip(t *testing.T) {
	tr := bwc.PaperExampleTree()
	s, err := bwc.BuildSchedule(bwc.Solve(tr))
	if err != nil {
		t.Fatal(err)
	}
	data, err := bwc.MarshalDeployment(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := bwc.UnmarshalDeployment(tr, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.TreePeriod().Cmp(s.TreePeriod()) != 0 {
		t.Fatal("deployment round trip changed the period")
	}
}

func TestFacadeWrapperCoverage(t *testing.T) {
	tr := bwc.PaperExampleTree()
	res := bwc.Solve(tr)

	// Batch solving.
	batch := bwc.SolveBatch([]*bwc.Tree{tr, tr}, 2)
	if len(batch) != 2 || !batch[0].Throughput.Equal(res.Throughput) {
		t.Fatal("SolveBatch wrapper")
	}
	// Severity generator.
	sev := bwc.GenerateBandwidthSeverity(20, 4, 1)
	if sev.Len() != 20 {
		t.Fatal("severity generator")
	}
	// Schedule-annotated DOT.
	if dot := bwc.DOTWithSchedule(res); !strings.Contains(dot, "α=1/9") {
		t.Fatalf("DOTWithSchedule: %s", dot)
	}
	// Quantization.
	s, thr, err := bwc.QuantizeSchedule(res, 360)
	if err != nil || !thr.Equal(res.Throughput) {
		t.Fatalf("QuantizeSchedule: %s %v", thr, err)
	}
	if s.TreePeriod().Int64() != 360 {
		t.Fatal("quantized period")
	}
	// Buffer-row Gantt.
	full, err := bwc.BuildSchedule(res)
	if err != nil {
		t.Fatal(err)
	}
	run, err := bwc.Simulate(full, bwc.WithStop(bwc.RatInt(60)))
	if err != nil {
		t.Fatal(err)
	}
	if out := bwc.GanttASCIIWithBuffers(run.Trace, bwc.RatInt(0), bwc.RatInt(30), bwc.RatInt(1)); !strings.Contains(out, "B ") {
		t.Fatal("buffer gantt")
	}
	// Dynamic simulation through the facade.
	after, err := tr.WithCommTime(tr.MustLookup("P1"), bwc.RatInt(4))
	if err != nil {
		t.Fatal(err)
	}
	sAfter, err := bwc.BuildSchedule(bwc.Solve(after))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := bwc.Simulate(full, bwc.WithStop(bwc.RatInt(200)), bwc.WithSkipIntervals(),
		bwc.WithSimOptions(bwc.SimOptions{
			Phases:  []bwc.DynPhase{{At: bwc.RatInt(100), Schedule: sAfter}},
			Physics: []bwc.DynPhysics{{At: bwc.RatInt(80), Tree: after}},
		}))
	if err != nil {
		t.Fatal(err)
	}
	if st := dyn.Stats; st.Generated != st.Completed+st.Dropped {
		t.Fatal("dynamic conservation")
	}
	// Upgrades through the facade.
	ups, err := bwc.AnalyzeUpgrades(tr, bwc.RatInt(2))
	if err != nil || len(ups) == 0 {
		t.Fatalf("AnalyzeUpgrades: %v", err)
	}
	// Execute through the facade (tiny scale).
	rep, err := bwc.Execute(full, bwc.WithTasks(10), bwc.WithScale(20*time.Microsecond))
	if err != nil || rep.Total != 10 {
		t.Fatalf("Execute: %v", err)
	}
	// Protocol session through the facade.
	sess := bwc.NewProtocolSession(tr)
	defer sess.Close()
	if got := sess.Run(); !got.Throughput.Equal(res.Throughput) {
		t.Fatal("session run")
	}
}

// TestFacadeAnalyze drives the conformance loop through the public API:
// an observed simulation passes AnalyzeRun, a trace export round-trips
// through AnalyzeTrace, a degraded-link dynamic run's exported spans fail
// AnalyzeTrace, and an observed wall-clock Execute passes
// AnalyzeObserver.
func TestFacadeAnalyze(t *testing.T) {
	tr := bwc.PaperExampleTree()
	s, err := bwc.BuildSchedule(bwc.Solve(tr))
	if err != nil {
		t.Fatal(err)
	}
	ob := bwc.NewObserver()
	run, err := bwc.Simulate(s, bwc.WithStop(bwc.RatInt(200)), bwc.WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}

	rep := bwc.AnalyzeRun(run)
	if !rep.Healthy() || rep.Failed != 0 {
		var sb strings.Builder
		rep.WriteText(&sb)
		t.Fatalf("clean run unhealthy:\n%s", sb.String())
	}
	if c := rep.Check("throughput-conformance"); c == nil || c.Verdict != bwc.HealthPass {
		t.Fatalf("throughput-conformance: %+v", c)
	}

	// Offline: the exported trace must yield the same span-level verdicts.
	var buf strings.Builder
	if err := ob.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	offline, err := bwc.AnalyzeTrace(strings.NewReader(buf.String()),
		bwc.WithAnalyzeOptions(bwc.AnalyzeOptions{Schedule: s, Stop: bwc.RatInt(200)}))
	if err != nil {
		t.Fatal(err)
	}
	if offline.Failed != 0 {
		t.Fatalf("offline analysis failed %d checks", offline.Failed)
	}

	// A stale schedule over a degraded link must be detected.
	slow, err := tr.WithCommTime(tr.MustLookup("P4"), bwc.RatInt(6))
	if err != nil {
		t.Fatal(err)
	}
	ob2 := bwc.NewObserver()
	dyn, err := bwc.Simulate(s, bwc.WithStop(bwc.RatInt(360)), bwc.WithObserver(ob2),
		bwc.WithSimOptions(bwc.SimOptions{Physics: []bwc.DynPhysics{{Tree: slow}}}))
	if err != nil {
		t.Fatal(err)
	}
	var spans strings.Builder
	if err := ob2.WriteSpansJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	bad, err := bwc.AnalyzeTrace(strings.NewReader(spans.String()),
		bwc.WithAnalyzeOptions(bwc.AnalyzeOptions{Schedule: s}), bwc.WithStop(bwc.RatInt(360)))
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Stats.Generated == 0 || bad.Healthy() {
		t.Fatal("degraded link went undetected through the facade")
	}
	// Read in place, the same run fails the same checks; its counters
	// add a task-conservation verdict the exported spans lack.
	inPlace := bwc.AnalyzeRun(dyn)
	for _, c := range bad.Checks {
		if got := inPlace.Check(c.Name); c.Verdict == bwc.HealthFail && (got == nil || got.Verdict != bwc.HealthFail) {
			t.Errorf("%s fails on the exported spans but not on the run read in place: %+v", c.Name, got)
		}
	}
	if inPlace.Failed != bad.Failed {
		t.Fatalf("the run read in place fails %d checks, its exported spans %d", inPlace.Failed, bad.Failed)
	}
	if c := bad.Check("buffer-watermark"); c == nil || c.Verdict != bwc.HealthFail {
		t.Fatalf("buffer-watermark: %+v", c)
	}

	// A wall-clock run has one conformance path: AnalyzeObserver over the
	// Observer attached to Execute. Its evidence is link spans and
	// counters, so the exact-timing checks SKIP; the single-port scan
	// must PASS and no check may FAIL.
	live := bwc.NewObserver()
	if _, err := bwc.Execute(s, bwc.WithTasks(200), bwc.WithScale(100*time.Microsecond), bwc.WithObserver(live)); err != nil {
		t.Fatal(err)
	}
	lrep := bwc.AnalyzeObserver(live, bwc.WithAnalyzeOptions(bwc.AnalyzeOptions{Schedule: s}))
	if lrep.Failed != 0 {
		var sb strings.Builder
		lrep.WriteText(&sb)
		t.Fatalf("observed execution failed %d checks:\n%s", lrep.Failed, sb.String())
	}
	if c := lrep.Check("single-port"); c == nil || c.Verdict != bwc.HealthPass {
		t.Fatalf("single-port: %+v", c)
	}
}

// TestAnalyzeRunReadsTheRecord pins what AnalyzeRun reads: the run's
// trace, not its Observer's spans. An unobserved run gets the observed
// run's report, except that task-conservation, which needs the
// Observer's counters, SKIPs. An observed run keeps its intervals even
// WithSkipIntervals, so its report is unchanged; an unobserved run that
// skipped them leaves nothing to read, and every check SKIPs.
func TestAnalyzeRunReadsTheRecord(t *testing.T) {
	s, err := bwc.BuildSchedule(bwc.Solve(bwc.PaperExampleTree()))
	if err != nil {
		t.Fatal(err)
	}
	simulate := func(opts ...bwc.Option) *bwc.Run {
		t.Helper()
		run, err := bwc.Simulate(s, append(opts, bwc.WithStop(bwc.RatInt(200)))...)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	observed := simulate(bwc.WithObserver(bwc.NewObserver()))
	want := bwc.AnalyzeRun(observed)
	if want.Failed != 0 || want.Passed < 9 {
		t.Fatalf("observed run: %d passed, %d failed", want.Passed, want.Failed)
	}

	got := bwc.AnalyzeRun(simulate())
	if len(got.Checks) != len(want.Checks) || got.Passed != want.Passed-1 || got.Skipped != want.Skipped+1 {
		t.Fatalf("unobserved run: %d passed, %d skipped of %d; observed %d, %d of %d",
			got.Passed, got.Skipped, len(got.Checks), want.Passed, want.Skipped, len(want.Checks))
	}
	for i, w := range want.Checks {
		g := got.Checks[i]
		if w.Name == "task-conservation" {
			if w.Verdict != bwc.HealthPass || g.Verdict != bwc.HealthSkip {
				t.Errorf("task-conservation: observed %s, unobserved %s; want PASS and SKIP", w.Verdict, g.Verdict)
			}
			continue
		}
		if g.Name != w.Name || g.Verdict != w.Verdict || g.Detail != w.Detail || strings.Join(g.Evidence, "\n") != strings.Join(w.Evidence, "\n") {
			t.Errorf("unobserved %+v, observed %+v", g, w)
		}
	}

	kept := simulate(bwc.WithObserver(bwc.NewObserver()), bwc.WithSkipIntervals())
	if len(kept.Trace.Intervals) != len(observed.Trace.Intervals) {
		t.Fatalf("observed WithSkipIntervals run kept %d intervals, want %d",
			len(kept.Trace.Intervals), len(observed.Trace.Intervals))
	}
	var a, b strings.Builder
	if err := bwc.AnalyzeRun(kept).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("observed WithSkipIntervals report\n%s\nwant\n%s", a.String(), b.String())
	}

	bare := bwc.AnalyzeRun(simulate(bwc.WithSkipIntervals()))
	if bare.Skipped != len(bare.Checks) {
		var sb strings.Builder
		bare.WriteText(&sb)
		t.Errorf("unobserved run without intervals ran checks:\n%s", sb.String())
	}
}
