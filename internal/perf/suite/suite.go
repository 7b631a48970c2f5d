// Package suite registers the default benchmark suite behind `bwsched
// bench`: the representative slice of the system the perf trajectory
// tracks PR over PR. Fixtures come from internal/benchfix so these
// benches measure exactly the platforms the repo-root experiment
// benchmarks measure.
package suite

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bwc"
	apiv1 "bwc/api/v1"
	"bwc/internal/benchfix"
	"bwc/internal/bwfirst"
	"bwc/internal/des"
	"bwc/internal/perf"
	"bwc/internal/rat"
	"bwc/internal/server"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

// desHeapEvents is the number of DES events per DESHeap iteration.
const desHeapEvents = 4096

// Default builds the registered suite. Benches marked Short form the CI
// gate's fast subset; the rest only run in a full (local) trajectory.
func Default() *perf.Suite {
	s := perf.NewSuite()

	// DESHeap isolates the discrete-event heap: schedule-and-drain of a
	// staggered set of typed records with a no-op handler, exercising
	// the heap and its exact time comparisons with no model on top.
	s.Register(perf.Bench{Name: "DESHeap", Short: true, Fn: func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := &des.Engine{}
			eng.SetHandler(func(des.Event) {})
			for j := int64(0); j < desHeapEvents; j++ {
				eng.Post(rat.New(j, 3), des.Event{Task: j})
			}
			if err := eng.Drain(desHeapEvents); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(desHeapEvents, "events/op")
	}})

	// EngineRun is the Section-6 engine through the simulator with
	// telemetry off: the unobserved 120-task run of the Analyze fixture
	// (releases, the core's transitions, the trace record). It reports
	// the run's DES event count as "events/op", read once from an
	// observed twin (observation does not change the event stream), so
	// engine_events_per_sec can be recomputed from any trajectory file.
	s.Register(perf.Bench{Name: "EngineRun", Short: true, Fn: func(b *testing.B) {
		sched, err := bwc.BuildSchedule(bwc.Solve(benchfix.Analyze16()))
		if err != nil {
			b.Fatal(err)
		}
		ob := bwc.NewObserver()
		if _, err := bwc.Simulate(sched, bwc.WithTasks(benchfix.AnalyzeTasks), bwc.WithObserver(ob)); err != nil {
			b.Fatal(err)
		}
		events := ob.Registry().Counter("bwc_sim_events_total", "").Value()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bwc.Simulate(sched, bwc.WithTasks(benchfix.AnalyzeTasks)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(events), "events/op")
	}})

	// SessionSolveCold / SessionSolveCached bracket the Session memo: the
	// full negotiation wave versus the cache hit on a 64-node platform.
	// A cold solve gets a fresh clone each iteration, made outside the
	// timer, so it pays for the fingerprint as a first submit does
	// rather than reusing the one memoized on a shared tree.
	s.Register(perf.Bench{Name: "SessionSolveCold", Short: true, Fn: func(b *testing.B) {
		tr := benchfix.Uniform64()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := tr.Clone()
			b.StartTimer()
			bwc.NewSession().Solve(fresh)
		}
	}})
	s.Register(perf.Bench{Name: "SessionSolveCached", Short: true, Fn: func(b *testing.B) {
		tr := benchfix.Uniform64()
		sess := bwc.NewSession()
		sess.Solve(tr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess.Solve(tr)
		}
	}})

	// Parse is the parse stage: the text of a 256-node SETI platform (the
	// Fingerprint fixture) read into a tree. Parse65k reads a
	// 65,536-node SETI platform, 1.4 MB of text, to show how parsing
	// scales. Both report their rate in MB/s.
	parse := func(n int) func(b *testing.B) {
		return func(b *testing.B) {
			text := treegen.Generate(treegen.SETI, n, 11).Text()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bwc.ParsePlatformString(text); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(text))*float64(b.N)/b.Elapsed().Seconds()/1e6, "MB/s")
		}
	}
	s.Register(perf.Bench{Name: "Parse", Short: true, Fn: parse(256)})
	s.Register(perf.Bench{Name: "Parse65k", Fn: parse(1 << 16)})

	// Fingerprint is the tenant key's cost on a platform seen for the
	// first time: serialize and hash a 256-node SETI tree (a fresh clone
	// per iteration, since the key is memoized on the tree).
	s.Register(perf.Bench{Name: "Fingerprint", Short: true, Fn: func(b *testing.B) {
		tr := treegen.Generate(treegen.SETI, 256, 11)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := tr.Clone()
			b.StartTimer()
			bwc.PlatformFingerprint(fresh)
		}
	}})

	// ServeSubmitHit is one repeat submit of a primed 64-node tenant
	// through bwschedd's full handler, in process (httptest, no
	// network): decode, tenant resolution, the memo lookups, the
	// rendered wire fields and the JSON encode.
	s.Register(perf.Bench{Name: "ServeSubmitHit", Short: true, Fn: func(b *testing.B) {
		h := server.New(server.Options{}).Handler()
		body, err := json.Marshal(apiv1.SubmitRequest{Platform: bwc.FormatPlatform(benchfix.Uniform64())})
		if err != nil {
			b.Fatal(err)
		}
		submit := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", apiv1.PathPrefix+"/platforms", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("submit status %d: %s", rec.Code, rec.Body)
			}
		}
		submit() // the miss that primes the tenant
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit()
		}
	}})

	// SubmitCold is one first submit of the ServeSubmitHit platform
	// through bwschedd's full handler, in process: decode, parse,
	// fingerprint, the cold solve, the schedule build, the deployment
	// render and the JSON encode. Each iteration gets a new server, made
	// outside the timer, so the text is never cached.
	s.Register(perf.Bench{Name: "SubmitCold", Short: true, Fn: func(b *testing.B) {
		body, err := json.Marshal(apiv1.SubmitRequest{Platform: bwc.FormatPlatform(benchfix.Uniform64())})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h := server.New(server.Options{}).Handler()
			b.StartTimer()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", apiv1.PathPrefix+"/platforms", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("submit status %d: %s", rec.Code, rec.Body)
			}
		}
	}})

	// BuildSchedule is the schedule stage alone: Lemma-1 periods and ψ
	// counts from a fixed BW-First result whose largest bunch is 15,179
	// slots (no pattern is built; a cursor derives each order on use).
	s.Register(perf.Bench{Name: "BuildSchedule", Short: true, Fn: func(b *testing.B) {
		res := bwc.Solve(benchfix.LongBunch64())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bwc.BuildSchedule(res); err != nil {
				b.Fatal(err)
			}
		}
	}})

	// Analyze is the conformance analyzer alone: AnalyzeRun over an
	// observed 120-task run of a 16-node uniform platform. Each iteration
	// simulates a fresh run outside the timer, so any per-run work of the
	// analyzer (indexing the run's trace) stays inside the timed part, as
	// it does in a simulate request with analyze.
	s.Register(perf.Bench{Name: "Analyze", Short: true, Fn: func(b *testing.B) {
		sched, err := bwc.BuildSchedule(bwc.Solve(benchfix.Analyze16()))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			run, err := bwc.Simulate(sched, bwc.WithTasks(benchfix.AnalyzeTasks), bwc.WithObserver(bwc.NewObserver()))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			bwc.AnalyzeRun(run)
		}
	}})

	// ServeSimulate is one simulate request with analyze for a primed
	// tenant through bwschedd's full handler, in process: decode, tenant
	// lookup, the observed 120-task run, the analyzer and the JSON
	// encode.
	s.Register(perf.Bench{Name: "ServeSimulate", Short: true, Fn: func(b *testing.B) {
		h := server.New(server.Options{}).Handler()
		body, err := json.Marshal(apiv1.SimulateRequest{
			Platform: bwc.FormatPlatform(benchfix.Analyze16()),
			Tasks:    benchfix.AnalyzeTasks,
			Analyze:  true,
		})
		if err != nil {
			b.Fatal(err)
		}
		simulate := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", apiv1.PathPrefix+"/simulate", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("simulate status %d: %s", rec.Code, rec.Body)
			}
		}
		simulate() // the miss that primes the tenant
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			simulate()
		}
	}})

	// ObsDisabled / ObsEnabled are the bench_test.go observability pair:
	// the paper's Figure-5 run with instrumentation off (nil Observer)
	// and fully on. Their ratio is the telemetry tax.
	s.Register(perf.Bench{Name: "ObsDisabled", Short: true, Fn: func(b *testing.B) {
		sched := benchfix.PaperSchedule()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bwc.Simulate(sched, bwc.WithStop(bwc.RatInt(115))); err != nil {
				b.Fatal(err)
			}
		}
	}})
	s.Register(perf.Bench{Name: "ObsEnabled", Short: true, Fn: func(b *testing.B) {
		sched := benchfix.PaperSchedule()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ob := bwc.NewObserver()
			if _, err := bwc.Simulate(sched, bwc.WithStop(bwc.RatInt(115)), bwc.WithObserver(ob)); err != nil {
				b.Fatal(err)
			}
		}
	}})

	// ObsOverhead measures the telemetry tax directly: each iteration
	// runs one un-observed and one observed simulation back to back and
	// accumulates their times separately. Alternating at sub-millisecond
	// granularity means host-load drift hits both halves equally, so the
	// reported overhead-pct is stable on noisy machines where the ratio
	// of the two independent benches above jitters by several points.
	s.Register(perf.Bench{Name: "ObsOverhead", Short: true, Fn: func(b *testing.B) {
		sched := benchfix.PaperSchedule()
		stop := bwc.WithStop(bwc.RatInt(115))
		var disabled, enabled time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := bwc.Simulate(sched, stop); err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			ob := bwc.NewObserver()
			if _, err := bwc.Simulate(sched, stop, bwc.WithObserver(ob)); err != nil {
				b.Fatal(err)
			}
			t2 := time.Now()
			disabled += t1.Sub(t0)
			enabled += t2.Sub(t1)
		}
		if disabled > 0 {
			b.ReportMetric(100*float64(enabled-disabled)/float64(disabled), "overhead-pct")
		}
	}})

	// RatArith hammers the int64 fast path of the exact-rational tower.
	// The accumulator's denominator stays fixed at 7 (Add with matching
	// denominators) and the product's operands are constants, so every
	// iteration exercises Add, Mul and a cross-denominator Cmp without
	// ever promoting to math/big — the hot shape of heap comparisons.
	s.Register(perf.Bench{Name: "RatArith", Short: true, Fn: func(b *testing.B) {
		b.ReportAllocs()
		acc := rat.New(0, 1)
		step := rat.New(3, 7)
		scale := rat.New(5, 11)
		var prod rat.R
		for i := 0; i < b.N; i++ {
			acc = acc.Add(step)
			prod = step.Mul(scale)
			if acc.Cmp(prod) == 2 {
				b.Fatal("unreachable; keeps the results live")
			}
		}
		_ = prod
	}})

	// ChurnReSolve is the churn controller's hot path: re-solving after a
	// single-leaf drift on a 256-node SETI platform, incrementally along
	// the affected spine versus the full wave. SETI trees are the case
	// that matters — deep, with expensive per-subtree negotiations — and
	// re-solve ~2× faster incrementally. The paired timing (same idiom as
	// ObsOverhead) keeps the speedup stable on noisy hosts; the derived
	// incremental_resolve_speedup floor gates it in CI.
	s.Register(perf.Bench{Name: "ChurnReSolve", Short: true, Fn: func(b *testing.B) {
		base := treegen.Generate(treegen.SETI, 256, 11)
		prev := bwfirst.Solve(base)
		victim := tree.NodeID(base.Len() - 1)
		mutated, err := base.WithCommTime(victim, base.CommTime(victim).Mul(rat.New(3, 2)))
		if err != nil {
			b.Fatal(err)
		}
		dirty, err := tree.DiffWeights(base, mutated)
		if err != nil {
			b.Fatal(err)
		}
		var full, incr time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			bwfirst.Solve(mutated)
			t1 := time.Now()
			if _, err := bwfirst.SolveIncremental(prev, mutated, dirty, nil); err != nil {
				b.Fatal(err)
			}
			t2 := time.Now()
			full += t1.Sub(t0)
			incr += t2.Sub(t1)
		}
		if incr > 0 {
			b.ReportMetric(float64(full)/float64(incr), "speedup")
		}
	}})

	// ResultReturnSolve measures the generalized greedy procedure on a
	// Section-9 platform: the 64-node uniform fixture with a uniform
	// return cost, so every negotiation runs the two-budget (send +
	// receive port) path. The paired timing against the forward-only
	// solve on the same tree reports the generalization's overhead —
	// the price every return platform pays over Algorithm 1.
	s.Register(perf.Bench{Name: "ResultReturnSolve", Short: true, Fn: func(b *testing.B) {
		fwd := benchfix.Uniform64()
		ret, err := fwd.WithUniformReturnTime(rat.New(1, 3))
		if err != nil {
			b.Fatal(err)
		}
		var tFwd, tRet time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			bwfirst.Solve(fwd)
			t1 := time.Now()
			bwfirst.Solve(ret)
			t2 := time.Now()
			tFwd += t1.Sub(t0)
			tRet += t2.Sub(t1)
		}
		if tFwd > 0 {
			b.ReportMetric(100*float64(tRet-tFwd)/float64(tFwd), "overhead-pct")
		}
	}})

	// DistributedSolve is the E9 protocol-cost point at n=100: one full
	// bandwidth-centric negotiation wave over a compute-limited platform.
	s.Register(perf.Bench{Name: "DistributedSolve", Fn: func(b *testing.B) {
		tr := benchfix.ComputeLimited(100)
		b.ReportAllocs()
		b.ResetTimer()
		var res *bwc.DistributedResult
		for i := 0; i < b.N; i++ {
			res = bwc.SolveDistributed(tr)
		}
		b.ReportMetric(float64(res.Messages), "messages")
	}})

	// Derived metrics: the portable ratios the CI gate bounds regardless
	// of the machine the baseline was recorded on.
	s.Derive("engine_events_per_sec", func(r map[string]perf.Result) (float64, bool) {
		er, ok := r["EngineRun"]
		if !ok || er.NsPerOp <= 0 {
			return 0, false
		}
		return er.Metrics["events/op"] / er.NsPerOp * 1e9, true
	})
	s.Derive("cached_solve_speedup", func(r map[string]perf.Result) (float64, bool) {
		cold, ok1 := r["SessionSolveCold"]
		cached, ok2 := r["SessionSolveCached"]
		if !ok1 || !ok2 || cached.NsPerOp <= 0 {
			return 0, false
		}
		return cold.NsPerOp / cached.NsPerOp, true
	})
	// obs_enabled_overhead_pct comes from the paired ObsOverhead bench,
	// not from the ObsDisabled/ObsEnabled ratio: two independent samples
	// of a ~5% difference are noise-dominated, one interleaved sample is
	// not. The independent pair stays in the trajectory for per-variant
	// ns/op and allocs/op tracking.
	s.Derive("obs_enabled_overhead_pct", func(r map[string]perf.Result) (float64, bool) {
		ov, ok := r["ObsOverhead"]
		if !ok {
			return 0, false
		}
		pct, ok := ov.Metrics["overhead-pct"]
		return pct, ok
	})
	// obs_extra_allocs_per_run is the deterministic face of the same
	// tax: how many extra heap allocations one observed Figure-5 run
	// costs over the un-observed run. Allocation counts do not jitter,
	// so this is the gate that cannot flake — a telemetry fast-path
	// regression (per-event metric updates, eager span materialization)
	// shows up here before it shows up reliably in wall time.
	s.Derive("obs_extra_allocs_per_run", func(r map[string]perf.Result) (float64, bool) {
		off, ok1 := r["ObsDisabled"]
		on, ok2 := r["ObsEnabled"]
		if !ok1 || !ok2 {
			return 0, false
		}
		return float64(on.AllocsPerOp - off.AllocsPerOp), true
	})
	// incremental_resolve_speedup is the paired ChurnReSolve ratio: a
	// single-leaf drift must re-solve meaningfully faster incrementally
	// than the full wave, or the spine reuse has silently broken.
	s.Derive("incremental_resolve_speedup", func(r map[string]perf.Result) (float64, bool) {
		cr, ok := r["ChurnReSolve"]
		if !ok {
			return 0, false
		}
		v, ok := cr.Metrics["speedup"]
		return v, ok
	})
	// return_solve_overhead_pct is ResultReturnSolve's paired ratio: how
	// much slower the two-budget greedy runs than Algorithm 1 on the same
	// 64-node tree. Recorded on the trajectory (ungated — the absolute
	// cost is microseconds) so a super-linear regression in the
	// generalized path is visible PR over PR.
	s.Derive("return_solve_overhead_pct", func(r map[string]perf.Result) (float64, bool) {
		rr, ok := r["ResultReturnSolve"]
		if !ok {
			return 0, false
		}
		v, ok := rr.Metrics["overhead-pct"]
		return v, ok
	})
	return s
}

// Thresholds is the suite's CI gate: the defaults (10% time on matching
// hardware, 10%+1 allocations anywhere) plus the portable acceptance
// bounds this PR records — the Session memo must stay ≥10× and the
// enabled-telemetry tax bounded. Normalize divides out the host's own
// speed drift (the median across benches) before gating ns/op, so a
// shared machine running 25% slower than when the baseline was recorded
// does not read as eight simultaneous regressions.
//
// The telemetry tax is gated twice. The deterministic gate is
// obs_extra_allocs_per_run <= 120: the enabled path currently costs ~85
// extra allocations per Figure-5 run, the pre-fast-path regime cost
// ~150, and allocation counts cannot flake. The wall-time ceiling on
// obs_enabled_overhead_pct is a loose backstop at 25: the paired
// measurement reads ~8% on a calm host but inflates past 12% under
// heavy load, so a tight time ceiling would gate the weather, not the
// code. The <10% target is judged on the recorded trajectory value.
func Thresholds() perf.Thresholds {
	th := perf.DefaultThresholds()
	th.Min = map[string]float64{
		"cached_solve_speedup": 10,
		// A one-leaf drift on the 256-node SETI fixture currently
		// re-solves ~2× faster incrementally; 1.3 is the conservative
		// floor below which spine reuse is assumed broken.
		"incremental_resolve_speedup": 1.3,
	}
	th.Max = map[string]float64{
		"obs_enabled_overhead_pct": 25,
		"obs_extra_allocs_per_run": 120,
	}
	th.Normalize = true
	// The Figure-5 simulation benches are GC-heavy at ~400µs/op; on a
	// contended host their min-of-K still spikes 20%+ while their twin
	// bench sits still, so a tight ns gate on them measures the
	// scheduler, not the code. Their real regression signal is portable:
	// allocs/op plus the obs_* derived gates above.
	th.PerBench = map[string]float64{
		"ObsDisabled": 0.25,
		"ObsEnabled":  0.25,
		"ObsOverhead": 0.25,
	}
	return th
}
