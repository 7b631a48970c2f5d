package sim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/trace"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

func buildSchedule(t *testing.T, tr *tree.Tree, opt sched.Options) *sched.Schedule {
	t.Helper()
	res := bwfirst.Solve(tr)
	s, err := sched.Build(res, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func simulate(t *testing.T, tr *tree.Tree, opt Options) *Run {
	t.Helper()
	s := buildSchedule(t, tr, sched.Options{})
	run, err := Simulate(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return run
}

func TestSingleNodeSteady(t *testing.T) {
	tr := tree.NewBuilder().Root("P0", rat.Two).MustBuild()
	run := simulate(t, tr, Options{Periods: 5})
	// Rate 1/2, TW = 2, 5 periods → 5 tasks.
	if run.Stats.Generated != 5 || run.Stats.Completed != 5 {
		t.Fatalf("gen=%d done=%d", run.Stats.Generated, run.Stats.Completed)
	}
	// The first task is released at t=1 (slot position 1/2 of T^w=2) and
	// completes at t=3, so the first full window [0,2) is below rate and
	// completion-based steady state starts at the second window.
	if !run.Stats.SteadyOK || !run.Stats.SteadyStart.Equal(rat.Two) {
		t.Fatalf("steady = %s %v", run.Stats.SteadyStart, run.Stats.SteadyOK)
	}
	if run.Stats.MaxHeld != 0 {
		t.Fatalf("held = %d (a lone paced node should never queue)", run.Stats.MaxHeld)
	}
}

func TestTwoWorkerThroughput(t *testing.T) {
	// P0(w=2), P1(c=1,w=3), P2(c=3,w=2): throughput 19/18, T = 18.
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		Child("P0", "P2", rat.FromInt(3), rat.Two).
		MustBuild()
	run := simulate(t, tr, Options{Periods: 12})
	st := run.Stats
	if st.TreePeriod.Int64() != 18 || st.PerPeriod.Int64() != 19 {
		t.Fatalf("period=%s perPeriod=%s", st.TreePeriod, st.PerPeriod)
	}
	if !st.SteadyOK {
		t.Fatal("never reached steady state")
	}
	// Proposition 4 bounds *consumption* steadiness by Σ T^s over
	// ancestors (= 9 here); completions lag consumption by transmission
	// and compute latency, so completion-based steadiness must arrive
	// within the bound plus two periods.
	bound := run.Schedule.MaxStartupBound().Add(rat.FromBigInt(st.TreePeriod).Mul(rat.Two))
	if bound.Less(st.SteadyStart) {
		t.Fatalf("steady at %s but relaxed Prop 4 bound is %s", st.SteadyStart, bound)
	}
	// In steady state each full window completes exactly 19 tasks; check a
	// middle window explicitly.
	from := rat.FromInt(18 * 5)
	to := rat.FromInt(18 * 6)
	if got := run.Trace.CompletedIn(from, to); got != 19 {
		t.Fatalf("window [%s,%s) completed %d, want 19", from, to, got)
	}
}

func TestWindDownShort(t *testing.T) {
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		Child("P0", "P2", rat.FromInt(3), rat.Two).
		MustBuild()
	run := simulate(t, tr, Options{Periods: 6})
	st := run.Stats
	if st.WindDown.IsNeg() {
		t.Fatalf("negative wind-down %s", st.WindDown)
	}
	// The interleaved schedule keeps buffers small, so the drain after
	// the stop is well under one tree period.
	if !st.WindDown.Less(rat.FromBigInt(st.TreePeriod)) {
		t.Fatalf("wind-down %s not shorter than period %s", st.WindDown, st.TreePeriod)
	}
}

func TestSwitchChainDelivery(t *testing.T) {
	// Tasks must flow through a compute-less switch to the worker.
	tr := tree.NewBuilder().
		RootSwitch("hub").
		SwitchChild("hub", "relay", rat.One).
		Child("relay", "w", rat.One, rat.One).
		MustBuild()
	run := simulate(t, tr, Options{Periods: 8})
	if run.Stats.Completed == 0 {
		t.Fatal("no tasks completed through the switch chain")
	}
	if run.Stats.Generated != run.Stats.Completed {
		t.Fatalf("gen %d != done %d", run.Stats.Generated, run.Stats.Completed)
	}
	// All completions happen at the worker.
	for _, c := range run.Trace.Completions {
		if tr.Name(c.Node) != "w" {
			t.Fatalf("completion at %s", tr.Name(c.Node))
		}
	}
}

func TestGanttIntervalsRecorded(t *testing.T) {
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.One).
		MustBuild()
	run := simulate(t, tr, Options{Periods: 4})
	var sends, recvs, computes int
	for _, iv := range run.Trace.Intervals {
		switch iv.Kind {
		case trace.Send:
			sends++
		case trace.Recv:
			recvs++
		case trace.Compute:
			computes++
		}
	}
	if sends == 0 || recvs == 0 || computes == 0 {
		t.Fatalf("interval mix: S=%d R=%d C=%d", sends, recvs, computes)
	}
	if sends != recvs {
		t.Fatalf("S=%d R=%d mismatched", sends, recvs)
	}
}

func TestSkipIntervals(t *testing.T) {
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.One).
		MustBuild()
	s := buildSchedule(t, tr, sched.Options{})
	run, err := Simulate(s, Options{Periods: 4, SkipIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Trace.Intervals) != 0 {
		t.Fatal("intervals recorded despite SkipIntervals")
	}
	if run.Stats.Completed == 0 {
		t.Fatal("no completions recorded")
	}
}

func TestOptionValidation(t *testing.T) {
	tr := tree.NewBuilder().Root("P0", rat.One).MustBuild()
	s := buildSchedule(t, tr, sched.Options{})
	if _, err := Simulate(s, Options{}); err == nil {
		t.Fatal("missing Stop accepted")
	}
	if _, err := Simulate(s, Options{Periods: 2, Stop: rat.One}); err == nil {
		t.Fatal("both Stop and Periods accepted")
	}
	if _, err := Simulate(s, Options{Stop: rat.FromInt(-3)}); err == nil {
		t.Fatal("negative Stop accepted")
	}
}

// TestMaxPatternLenIgnored: a schedule built under a pattern bound below
// its root's Ψ = 19 simulates exactly as the default one does.
func TestMaxPatternLenIgnored(t *testing.T) {
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		Child("P0", "P2", rat.FromInt(3), rat.Two).
		MustBuild()
	var runs [2]*Run
	for i, opt := range []sched.Options{{MaxPatternLen: 2}, {}} {
		run, err := Simulate(buildSchedule(t, tr, opt), Options{Periods: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		runs[i] = run
	}
	if !reflect.DeepEqual(runs[0].Stats, runs[1].Stats) || !reflect.DeepEqual(runs[0].Trace, runs[1].Trace) {
		t.Fatalf("bounded build ran %+v, default %+v", runs[0].Stats, runs[1].Stats)
	}
}

// hugeBunch is treegen compute-limited n = 32, seed 2: its root's bunch
// is Ψ = 1,351,258 slots.
func hugeBunch(t *testing.T) *sched.Schedule {
	t.Helper()
	s := buildSchedule(t, treegen.Generate(treegen.ComputeLimited, 32, 2), sched.Options{})
	if b := s.Nodes[s.Tree.Root()].Bunch; b.Int64() != 1_351_258 {
		t.Fatalf("fixture drift: root Ψ = %s", b)
	}
	return s
}

// TestHugeBunchSimulates: a root bunch past a million slots simulates
// with default options and conserves every task.
func TestHugeBunchSimulates(t *testing.T) {
	run, err := Simulate(hugeBunch(t), Options{Stop: rat.FromInt(2000), SkipIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if run.Stats.Generated == 0 {
		t.Fatal("no task released")
	}
}

// TestHugeBunchMemoryBounded: a period of the huge root releases 1.35M
// tasks. Keeping one release pending, the run reaches the event bound
// with a heap that grew by well under a posted period's 65 MB of DES
// records.
func TestHugeBunchMemoryBounded(t *testing.T) {
	s := hugeBunch(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Simulate(s, Options{Periods: 1, MaxEvents: 10_000, SkipIntervals: true})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeded 10000 events") {
		t.Fatalf("err = %v, want the event bound", err)
	}
	grown := after.TotalAlloc - before.TotalAlloc
	t.Logf("the run allocated %d bytes", grown)
	if grown > 4<<20 {
		t.Fatalf("the run allocated %d bytes", grown)
	}
}

func TestEmptyPlatformRejected(t *testing.T) {
	res := bwfirst.Solve(&tree.Tree{})
	s, err := sched.Build(res, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(s, Options{Periods: 1}); err == nil {
		t.Fatal("empty platform accepted")
	}
}

// TestThroughputAcrossGenerators: the simulated steady-state rate equals
// the analytic optimum on a spread of random platforms — the end-to-end
// check that the event-driven schedules are feasible and optimal.
func TestThroughputAcrossGenerators(t *testing.T) {
	kinds := []treegen.Kind{treegen.Uniform, treegen.ComputeLimited, treegen.DeepChain, treegen.WideStar}
	for _, k := range kinds {
		for seed := int64(0); seed < 4; seed++ {
			tr := treegen.Generate(k, 8, seed)
			res := bwfirst.Solve(tr)
			if res.Throughput.IsZero() {
				continue
			}
			s, err := sched.Build(res, sched.Options{})
			if err != nil {
				t.Fatalf("%v/%d: %v", k, seed, err)
			}
			period := rat.FromBigInt(s.TreePeriod())
			// Keep runs tractable: skip pathological LCM blowups.
			if perInt, ok := period.Int64(); !ok || perInt > 3000 {
				continue
			}
			stop := period.Mul(rat.FromInt(8))
			run, err := Simulate(s, Options{Stop: stop, SkipIntervals: true})
			if err != nil {
				t.Fatalf("%v/%d: %v", k, seed, err)
			}
			if err := run.CheckConservation(); err != nil {
				t.Fatalf("%v/%d: %v", k, seed, err)
			}
			if !run.Stats.SteadyOK {
				t.Fatalf("%v/%d: no steady state within %s (period %s, thr %s)\n%s",
					k, seed, stop, period, res.Throughput, tr)
			}
			// Proposition 4 (consumption) plus completion lag: steady
			// within the ancestor bound plus two tree periods.
			bound := s.MaxStartupBound().Add(period.Mul(rat.Two))
			if bound.Less(run.Stats.SteadyStart) {
				t.Fatalf("%v/%d: steady at %s, relaxed Prop 4 bound %s", k, seed, run.Stats.SteadyStart, bound)
			}
		}
	}
}

// TestStartupDoesUsefulWork (Section 7): during start-up the platform
// already completes a significant share of the optimal rate, unlike the
// classical fill-then-run approach which completes zero.
func TestStartupDoesUsefulWork(t *testing.T) {
	tr := tree.NewBuilder().
		Root("P0", rat.FromInt(4)).
		Child("P0", "a", rat.One, rat.Two).
		Child("a", "b", rat.One, rat.Two).
		Child("b", "c", rat.One, rat.Two).
		MustBuild()
	run := simulate(t, tr, Options{Periods: 40})
	st := run.Stats
	if !st.SteadyOK {
		t.Fatal("no steady state")
	}
	if st.SteadyStart.IsZero() {
		t.Skip("platform starts steady immediately; nothing to measure")
	}
	// Useful work during start-up > 0 (the paper reports 80% of optimal
	// on its example).
	if st.StartupCompleted == 0 {
		t.Fatal("no useful computation during start-up")
	}
}

func TestPeriodFloor(t *testing.T) {
	if got := periodFloor(rat.New(25, 2), rat.FromInt(5)); !got.Equal(rat.FromInt(10)) {
		t.Fatalf("periodFloor(12.5, 5) = %s", got)
	}
	if got := periodFloor(rat.FromInt(15), rat.FromInt(5)); !got.Equal(rat.FromInt(15)) {
		t.Fatalf("periodFloor(15, 5) = %s", got)
	}
}

// TestBuffersWithinChi: Proposition 3/4 — χ_{-1} = η·T_0 buffered tasks
// suffice for steady state, and the event-driven start-up never needs
// more. The simulated peak buffer occupancy must respect the analytic
// bound on every platform.
func TestBuffersWithinChi(t *testing.T) {
	platforms := []*tree.Tree{
		tree.NewBuilder().
			Root("P0", rat.Two).
			Child("P0", "P1", rat.One, rat.FromInt(3)).
			Child("P0", "P2", rat.FromInt(3), rat.Two).
			MustBuild(),
	}
	for _, k := range []treegen.Kind{treegen.ComputeLimited, treegen.WideStar, treegen.DeepChain} {
		platforms = append(platforms, treegen.Generate(k, 7, 2))
	}
	for _, tr := range platforms {
		res := bwfirst.Solve(tr)
		if res.Throughput.IsZero() {
			continue
		}
		s, err := sched.Build(res, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		period := rat.FromBigInt(s.TreePeriod())
		if p, fits := period.Int64(); !fits || p > 2000 {
			continue
		}
		run, err := Simulate(s, Options{Stop: period.Mul(rat.FromInt(6)), SkipIntervals: true})
		if err != nil {
			t.Fatal(err)
		}
		// χ bounds the receive-side buffers of non-root nodes; the root
		// has no incoming buffer (it owns the task source) so it is
		// excluded, as in Proposition 3.
		held := run.Trace.MaxBufferHeld()
		for i := range held {
			id := tree.NodeID(i)
			if id == tr.Root() {
				continue
			}
			chi := s.Chi(id)
			if !chi.IsInt64() || int64(held[i]) > chi.Int64() {
				t.Fatalf("platform %s: node %s held %d exceeds χ=%s", tr, tr.Name(id), held[i], chi)
			}
		}
	}
}

// TestBatchMode: releasing exactly N tasks completes exactly N tasks and
// reports a sensible makespan.
func TestBatchMode(t *testing.T) {
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		MustBuild()
	s := buildSchedule(t, tr, sched.Options{})
	run, err := Simulate(s, Options{Tasks: 25, SkipIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.Generated != 25 || run.Stats.Completed != 25 {
		t.Fatalf("gen %d done %d", run.Stats.Generated, run.Stats.Completed)
	}
	if !run.Stats.StopAt.IsPos() || run.Stats.Makespan.Less(run.Stats.StopAt) {
		t.Fatalf("stop %s makespan %s", run.Stats.StopAt, run.Stats.Makespan)
	}
	// The makespan respects the steady-state lower bound N/ρ.
	lb := rat.FromInt(25).Div(run.Stats.Throughput)
	if run.Stats.Makespan.Less(lb) {
		t.Fatalf("makespan %s beats the lower bound %s", run.Stats.Makespan, lb)
	}
	// Batch mode rejects a second stopping rule.
	if _, err := Simulate(s, Options{Tasks: 5, Periods: 2}); err == nil {
		t.Fatal("Tasks+Periods accepted")
	}
}

// TestBatchModeOnDeadPlatform: a zero-throughput platform cannot release a
// batch.
func TestBatchModeOnDeadPlatform(t *testing.T) {
	tr := tree.NewBuilder().RootSwitch("s").SwitchChild("s", "t", rat.One).MustBuild()
	res := bwfirst.Solve(tr)
	s, err := sched.Build(res, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(s, Options{Tasks: 5}); err == nil {
		t.Fatal("dead platform accepted a batch")
	}
}

// TestBurstRootBuffersMore: releasing each root period as a burst (naive
// timing) must buffer strictly more than the paced schedule on the
// two-worker platform.
func TestBurstRootBuffersMore(t *testing.T) {
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		Child("P0", "P2", rat.FromInt(3), rat.Two).
		MustBuild()
	s := buildSchedule(t, tr, sched.Options{})
	paced, err := Simulate(s, Options{Periods: 8, SkipIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := Simulate(s, Options{Periods: 8, BurstRoot: true, SkipIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Run{Schedule: s, Trace: burst.Trace, Stats: burst.Stats}).CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if burst.Stats.MaxHeld <= paced.Stats.MaxHeld {
		t.Fatalf("burst held %d, paced held %d", burst.Stats.MaxHeld, paced.Stats.MaxHeld)
	}
	// Throughput is unchanged: both complete every generated task and the
	// same number of tasks were released.
	if burst.Stats.Completed != paced.Stats.Completed {
		t.Fatalf("burst completed %d, paced %d", burst.Stats.Completed, paced.Stats.Completed)
	}
}

func BenchmarkSimulatePaperTree(b *testing.B) {
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		Child("P0", "P2", rat.FromInt(3), rat.Two).
		MustBuild()
	res := bwfirst.Solve(tr)
	s, err := sched.Build(res, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(s, Options{Periods: 10, SkipIntervals: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSteadyUtilizationMatchesAnalytic: in a steady-state window the
// simulated CPU utilization equals w·α and the send-port utilization
// equals Σ c_j·η_j, for every active node of the paper tree.
func TestSteadyUtilizationMatchesAnalytic(t *testing.T) {
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		Child("P0", "P2", rat.FromInt(3), rat.Two).
		MustBuild()
	res := bwfirst.Solve(tr)
	s, err := sched.Build(res, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Simulate(s, Options{Periods: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Steady window: periods 5..9 (18 units each).
	from, to := rat.FromInt(18*5), rat.FromInt(18*10)
	span := to.Sub(from)
	for id := 0; id < tr.Len(); id++ {
		nid := tree.NodeID(id)
		st := res.Nodes[id]
		if !st.Visited {
			continue
		}
		if w, ok := tr.ProcTime(nid); ok {
			want := st.Alpha.Mul(w)
			got := run.Trace.BusyTime(nid, trace.Compute, from, to).Div(span)
			if !got.Equal(want) {
				t.Errorf("node %s cpu util %s, want w·α = %s", tr.Name(nid), got, want)
			}
		}
		spent := rat.Zero
		for j, c := range tr.Children(nid) {
			spent = spent.Add(st.SendRates[j].Mul(tr.CommTime(c)))
		}
		got := run.Trace.BusyTime(nid, trace.Send, from, to).Div(span)
		if !got.Equal(spent) {
			t.Errorf("node %s send util %s, want Σc·η = %s", tr.Name(nid), got, spent)
		}
	}
}
