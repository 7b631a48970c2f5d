// Command bwsched is the command-line interface to the bandwidth-centric
// scheduling library: compute optimal steady-state throughputs, build
// event-driven schedules, simulate runs with Gantt output, verify the
// result against independent oracles, and generate synthetic platforms.
//
// Platforms are described in the line-oriented text format:
//
//	# name parent comm proc      ('-' for the root, "inf" for switches)
//	P0 -  -   9
//	P1 P0 1/2 8
//
// Subcommands:
//
//	throughput  optimal steady-state rate, visited set, bottlenecks
//	schedule    per-node event-driven schedules (periods, ψ, order;
//	            -quantize D bounds the periods)
//	simulate    run the schedule; start-up/wind-down stats, Gantt output
//	verify      cross-check BW-First vs bottom-up vs LP vs distributed
//	compare     event-driven vs demand-driven protocol on one platform
//	dynamic     platform degradation + re-negotiation lag simulation
//	adapt       closed-loop adaptation: inject faults, detect drift,
//	            re-solve on the measured platform, hot-swap the schedule
//	            (exit 0 only when the run heals to all-PASS)
//	churn       churn-hardened loop: seeded stochastic fleet churn,
//	            incremental spine re-solve, delta hot-swap, flap
//	            quarantine (exit 9 on retention collapse)
//	overlay     extract and score tree overlays from a platform graph
//	upgrade     exact throughput gain per resource speedup
//	execute     run a real goroutine-backed deployment
//	obs         run solver + protocol + simulator under full observability
//	            and export Chrome trace JSON, Prometheus text, JSONL events
//	bench       run the registered perf suite; write BENCH_<label>.json
//	            trajectory points, capture pprof profiles, and gate against
//	            a committed baseline (exit 8 on regression)
//	serve       run bwschedd, the multi-tenant scheduling control plane
//	            (HTTP/JSON api/v1: solve, simulate, analyze, adaptive,
//	            churn, SSE event stream, /metrics, dashboard)
//	submit      submit a platform to a running bwschedd (exit 10 when the
//	            daemon is unreachable; envelope errors map to exits 4-9)
//	watch       stream a bwschedd's live events (SSE client)
//	makespan    finite-batch makespan vs the steady-state lower bound
//	infinite    infinite k-ary tree throughput and truncations
//	gen         generate a synthetic platform
//	dot         Graphviz export (-used highlights; -rates annotates α, η)
//	example     print the paper's Section 8 example platform
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"bwc"
)

// sess memoizes the solver layer across the subcommand's pipeline: a
// command that solves, schedules and simulates the same platform runs
// the negotiation wave once.
var sess = bwc.NewSession()

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main's testable body. Exit codes: 0 success, 1 command error
// (reported as a structured "bwsched: error:" line), 2 usage, 3 internal
// error — a library panic converted to a diagnostic instead of a stack
// trace, so malformed inputs never look like crashes.
func run(args []string) (code int) {
	defer func() {
		if v := recover(); v != nil {
			fmt.Fprintf(os.Stderr, "bwsched: error: internal: %v\n", v)
			code = 3
		}
	}()
	if len(args) < 1 {
		usage()
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "throughput":
		err = cmdThroughput(rest)
	case "schedule":
		err = cmdSchedule(rest)
	case "simulate":
		err = cmdSimulate(rest)
	case "verify":
		err = cmdVerify(rest)
	case "compare":
		err = cmdCompare(rest)
	case "gen":
		err = cmdGen(rest)
	case "dot":
		err = cmdDot(rest)
	case "overlay":
		err = cmdOverlay(rest)
	case "dynamic":
		err = cmdDynamic(rest)
	case "adapt":
		err = cmdAdapt(rest)
	case "churn":
		err = cmdChurn(rest)
	case "upgrade":
		err = cmdUpgrade(rest)
	case "execute":
		err = cmdExecute(rest)
	case "resultreturn":
		err = cmdResultReturn(rest)
	case "makespan":
		err = cmdMakespan(rest)
	case "infinite":
		err = cmdInfinite(rest)
	case "obs":
		err = cmdObs(rest)
	case "bench":
		err = cmdBench(rest)
	case "analyze":
		err = cmdAnalyze(rest)
	case "serve":
		err = cmdServe(rest)
	case "submit":
		err = cmdSubmit(rest)
	case "watch":
		err = cmdWatch(rest)
	case "example":
		fmt.Print(bwc.FormatPlatform(bwc.PaperExampleTree()))
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "bwsched: error: unknown command %q\n\n", cmd)
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bwsched: error: %v\n", err)
		return exitCode(err)
	}
	return 0
}

// exitCode maps the facade's sentinel errors onto distinct exit codes so
// shell pipelines can branch on the failure class: 4 the input is not a
// valid platform tree, 5 no feasible steady state, 6 drift detected with
// adaptation disabled (stale schedule), 7 the adaptation loop could not
// converge, 8 the benchmark trajectory regressed against its baseline,
// 9 sustained churn collapsed retained throughput below the retention
// floor, 10 the bwschedd daemon could not be reached at all. Everything
// else stays 1. Errors decoded from api/v1 envelopes unwrap to the same
// sentinels, so client-mode commands land on the same codes.
func exitCode(err error) int {
	switch {
	case errors.Is(err, bwc.ErrNotATree):
		return 4
	case errors.Is(err, bwc.ErrInfeasible):
		return 5
	case errors.Is(err, bwc.ErrScheduleStale):
		return 6
	case errors.Is(err, bwc.ErrAdaptTimeout):
		return 7
	case errors.Is(err, bwc.ErrPerfRegression):
		return 8
	case errors.Is(err, bwc.ErrChurnCollapse):
		return 9
	case errors.Is(err, bwc.ErrDaemonUnreachable):
		return 10
	}
	return 1
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: bwsched <command> [flags]

commands:
  throughput -f platform.txt     optimal steady-state throughput
  schedule   -f platform.txt     per-node event-driven schedules
  simulate   -f platform.txt -stop 115 [-gantt out.svg] [-ascii] [-block]
  verify     -f platform.txt     cross-check all four oracles
  compare    -f platform.txt -stop 115
  overlay    -f graph.txt [-emit greedy]  extract tree overlays from a graph
  dynamic    -f platform.txt -degrade P1=4 -at 120 -lag 40 -stop 400 [-log-out e.jsonl]
  adapt      -f platform.txt -degrade P1=4 -at 120 -stop 400 [-fault at:kind:node[:value]]...
             [-random N -seed S] [-threshold 0.85] [-k 2] [-max-adapts 4] [-detect-only]
             closed-loop self-healing: detect drift, re-solve, hot-swap; exit 0 iff healed
  churn      -f platform.txt -seed 11 -rate 3 -duration 600 [-floor 0.5] [-crash-frac 0.15]
             [-flap 3] [-retries 3] [-fault at:kind:node[:value]]... [-log] [-json]
             churn-hardened loop: seeded fleet churn, incremental spine re-solve,
             delta hot-swap, flap quarantine; exit 9 on retention collapse
  upgrade    -f platform.txt [-speedup 2] [-top 5]
  resultreturn -f platform.txt [-d 1/2] [-n 80]
             Section 9 end to end: separate-flows vs folded throughput, engine
             run with result returns, analyzer verdict; exit 1 on folded-only
             behavior
  execute    -f platform.txt -n 100 -scale 2ms [-metrics :8080]
  makespan   -f platform.txt -n 500 [-demand]
  obs        -f platform.txt [-periods 3] [-metrics -] [-trace-out t.json] [-log-out e.jsonl]
  analyze    -trace e.jsonl [-f platform.txt] [-stop 115] [-json]  conformance verdicts
  bench      [-out BENCH_X.json] [-compare BENCH_PR6.json] [-profile dir]
             [-short] [-benchtime 1s] [-run regex] [-label X] [-threshold 0.10]
             run the perf suite; exit 8 on regression against the baseline
  serve      [-addr 127.0.0.1:8377] [-max-sessions 64] [-history 256] [-addr-file p]
             run bwschedd: the multi-tenant control plane (api/v1 over HTTP,
             SSE events, /metrics, /healthz, HTML dashboard at /)
  submit     -f platform.txt [-server 127.0.0.1:8377] [-block] [-quantize D]
             [-analyze] [-json]   solve via a running bwschedd; exit 10 if
             the daemon is unreachable, envelope errors map to exits 4-9
  watch      [-server ...] [-run r000001] [-event analyze.verdict] [-n 1]
             stream live bwschedd events (one JSON object per line)
  infinite   -k 2 -w 2 -c 1 [-depth 8]
  gen        -kind uniform -n 30 -seed 1
  dot        -f platform.txt [-used]
  example                        print the paper's example platform

'-f -' (default) reads the platform from stdin.
`)
}

// loadPlatform reads the platform from -f (or stdin for "-").
func loadPlatform(path string) (*bwc.Tree, error) {
	var r io.Reader
	if path == "" || path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return bwc.ParsePlatform(r)
}

func cmdThroughput(args []string) error {
	fs := flag.NewFlagSet("throughput", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	showTx := fs.Bool("tx", false, "print the transaction log")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	res := sess.Solve(t)
	fmt.Printf("nodes:       %d\n", t.Len())
	fmt.Printf("t_max:       %s\n", res.TMax)
	fmt.Printf("throughput:  %s tasks/unit (%.4f)\n", res.Throughput, res.Throughput.Float64())
	fmt.Printf("visited:     %d\n", res.VisitedCount)
	if unv := res.UnvisitedNodes(); len(unv) > 0 {
		names := make([]string, len(unv))
		for i, id := range unv {
			names[i] = t.Name(id)
		}
		fmt.Printf("unused:      %s\n", strings.Join(names, ", "))
	}
	var bn []string
	for _, b := range res.Bottlenecks() {
		bn = append(bn, t.Name(b.Node)+" "+b.Kind)
	}
	if len(bn) > 0 {
		fmt.Printf("bottlenecks: %s\n", strings.Join(bn, ", "))
	}
	if *showTx {
		fmt.Printf("transactions:\n%s", res.TranscriptString())
	}
	return nil
}

func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	block := fs.Bool("block", false, "use block allocation instead of interleaving")
	quantize := fs.Int64("quantize", 0, "round rates to denominators dividing D (bounds periods by D)")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	res := sess.Solve(t)
	var s *bwc.Schedule
	thr := res.Throughput
	if *quantize > 0 {
		s, thr, err = bwc.QuantizeSchedule(res, *quantize, bwc.WithScheduleOptions(bwc.ScheduleOptions{Block: *block}))
		if err != nil {
			return err
		}
		fmt.Printf("quantized to D=%d: throughput %s (optimum %s)\n", *quantize, thr, res.Throughput)
	} else {
		s, err = sess.BuildSchedule(t, bwc.WithScheduleOptions(bwc.ScheduleOptions{Block: *block}))
		if err != nil {
			return err
		}
	}
	fmt.Printf("throughput:      %s tasks/unit\n", thr)
	fmt.Printf("tree period:     %s\n", s.TreePeriod())
	fmt.Printf("rootless period: %s (rate %s/unit)\n", s.RootlessPeriod(), s.RootlessRate())
	fmt.Printf("startup bound:   %s (Prop. 4)\n", s.MaxStartupBound())
	fmt.Print(s.String())
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	stop := fs.String("stop", "", "stop delegating at this time (rational)")
	periods := fs.Int("periods", 0, "alternatively: run this many root periods")
	ganttSVG := fs.String("gantt", "", "write an SVG Gantt diagram to this file")
	ascii := fs.Bool("ascii", false, "print an ASCII Gantt diagram")
	buffers := fs.Bool("buffers", false, "include buffered-task rows in the ASCII Gantt")
	window := fs.String("window", "60", "ASCII/SVG time window end")
	block := fs.Bool("block", false, "use block allocation instead of interleaving")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	s, err := sess.BuildSchedule(t, bwc.WithScheduleOptions(bwc.ScheduleOptions{Block: *block}))
	if err != nil {
		return err
	}
	opt := []bwc.Option{bwc.WithPeriods(*periods)}
	if *stop != "" {
		v, err := bwc.ParseRat(*stop)
		if err != nil {
			return err
		}
		opt = []bwc.Option{bwc.WithStop(v)}
	}
	run, err := bwc.Simulate(s, opt...)
	if err != nil {
		return err
	}
	if err := run.CheckConservation(); err != nil {
		return err
	}
	st := run.Stats
	fmt.Printf("throughput:   %s tasks/unit (analytic)\n", st.Throughput)
	fmt.Printf("tree period:  %s (%s tasks/period)\n", st.TreePeriod, st.PerPeriod)
	fmt.Printf("stop at:      %s\n", st.StopAt)
	fmt.Printf("tasks:        %d generated, %d completed\n", st.Generated, st.Completed)
	if st.SteadyOK {
		fmt.Printf("steady from:  %s (%d tasks completed during start-up)\n", st.SteadyStart, st.StartupCompleted)
	} else {
		fmt.Printf("steady from:  not reached within a full period before stop\n")
	}
	fmt.Printf("wind-down:    %s\n", st.WindDown)
	fmt.Printf("max buffered: %d tasks\n", st.MaxHeld)
	end, err := bwc.ParseRat(*window)
	if err != nil {
		return err
	}
	if *ascii {
		if *buffers {
			fmt.Print(bwc.GanttASCIIWithBuffers(run.Trace, bwc.RatInt(0), end, bwc.RatInt(1)))
		} else {
			fmt.Print(bwc.GanttASCII(run.Trace, bwc.RatInt(0), end, bwc.RatInt(1)))
		}
	}
	if *ganttSVG != "" {
		if err := os.WriteFile(*ganttSVG, []byte(bwc.GanttSVG(run.Trace, bwc.RatInt(0), end, 9)), 0o644); err != nil {
			return err
		}
		fmt.Printf("gantt:        %s\n", *ganttSVG)
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	thr, err := bwc.Verify(t)
	if err != nil {
		return err
	}
	if !t.HasResultReturn() {
		fmt.Printf("OK: BW-First, bottom-up reduction, exact LP and the distributed\n")
		fmt.Printf("protocol all agree: throughput %s tasks/unit\n", thr)
		return nil
	}
	// The bottom-up reduction has no result-return model, and BW-First
	// is a feasible greedy there: Verify returned the LP optimum.
	if greedy := sess.Solve(t).Throughput; !greedy.Equal(thr) {
		fmt.Printf("OK: BW-First and the distributed protocol agree on this result-return\n")
		fmt.Printf("platform: greedy throughput %s tasks/unit, exact LP optimum %s\n", greedy, thr)
		return nil
	}
	fmt.Printf("OK: BW-First, the distributed protocol and the exact LP all agree\n")
	fmt.Printf("on this result-return platform: throughput %s tasks/unit\n", thr)
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	stop := fs.String("stop", "120", "stop time")
	target := fs.Int("target", 2, "demand-driven per-node buffer target")
	interruptible := fs.Bool("interruptible", false, "demand-driven protocol may preempt slow transmissions")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	stopAt, err := bwc.ParseRat(*stop)
	if err != nil {
		return err
	}
	res := sess.Solve(t)
	s, err := sess.BuildSchedule(t)
	if err != nil {
		return err
	}
	ev, err := bwc.Simulate(s, bwc.WithStop(stopAt), bwc.WithSkipIntervals())
	if err != nil {
		return err
	}
	dd, err := bwc.SimulateDemandDriven(t, bwc.DemandOptions{Stop: stopAt, BufferTarget: *target, Interruptible: *interruptible, SkipIntervals: true})
	if err != nil {
		return err
	}
	fmt.Printf("optimal rate: %s tasks/unit; stop at %s\n", res.Throughput, stopAt)
	fmt.Printf("%-14s %10s %14s %12s\n", "protocol", "tasks", "max-buffered", "wind-down")
	fmt.Printf("%-14s %10d %14d %12s\n", "event-driven", ev.Stats.Completed, ev.Stats.MaxHeld, ev.Stats.WindDown)
	fmt.Printf("%-14s %10d %14d %12s\n", "demand-driven", dd.Stats.Completed, dd.Stats.MaxHeld, dd.Stats.WindDown)
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "uniform", "platform family: uniform, bandwidth-limited, compute-limited, deep-chain, wide-star, switch-heavy, seti")
	n := fs.Int("n", 20, "number of nodes")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	var k bwc.PlatformKind
	found := false
	for _, cand := range []bwc.PlatformKind{bwc.Uniform, bwc.BandwidthLimited, bwc.ComputeLimited, bwc.DeepChain, bwc.WideStar, bwc.SwitchHeavy, bwc.SETI} {
		if cand.String() == *kind {
			k, found = cand, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if *n < 1 {
		return fmt.Errorf("n must be >= 1")
	}
	fmt.Print(bwc.FormatPlatform(bwc.GeneratePlatform(k, *n, *seed)))
	return nil
}

func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	used := fs.Bool("used", false, "highlight the nodes used by the optimal schedule")
	rates := fs.Bool("rates", false, "annotate nodes with α and edges with c / η")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	if *rates {
		fmt.Print(bwc.DOTWithSchedule(sess.Solve(t)))
		return nil
	}
	var highlight func(bwc.NodeID) bool
	if *used {
		highlight = sess.Solve(t).Visited
	}
	fmt.Print(bwc.DOT(t, highlight))
	return nil
}

func cmdMakespan(args []string) error {
	fs := flag.NewFlagSet("makespan", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	n := fs.Int("n", 500, "batch size (tasks)")
	demand := fs.Bool("demand", false, "also run the demand-driven comparator")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	res, err := bwc.BatchMakespan(t, *n)
	if err != nil {
		return err
	}
	fmt.Printf("batch:         %d tasks\n", res.N)
	fmt.Printf("lower bound:   %s (N / optimal rate)\n", res.LowerBound)
	fmt.Printf("event-driven:  makespan %s, ratio %.4f, overhead %s\n", res.Makespan, res.Ratio, res.Overhead)
	if *demand {
		dd, err := bwc.BatchMakespanDemandDriven(t, *n)
		if err != nil {
			return err
		}
		fmt.Printf("demand-driven: makespan %s, ratio %.4f, overhead %s\n", dd.Makespan, dd.Ratio, dd.Overhead)
	}
	return nil
}

func cmdInfinite(args []string) error {
	fs := flag.NewFlagSet("infinite", flag.ExitOnError)
	k := fs.Int("k", 2, "fanout of the infinite tree")
	w := fs.String("w", "2", "processing time per task (rational)")
	c := fs.String("c", "1", "communication time per task (rational)")
	depth := fs.Int("depth", 8, "show truncations up to this depth")
	fs.Parse(args)
	wr, err := bwc.ParseRat(*w)
	if err != nil {
		return err
	}
	cr, err := bwc.ParseRat(*c)
	if err != nil {
		return err
	}
	spec := bwc.InfiniteSpec{Fanout: *k, Proc: wr, Comm: cr}
	limit, err := bwc.InfiniteRate(spec)
	if err != nil {
		return err
	}
	fmt.Printf("infinite %d-ary tree (w=%s, c=%s): rate = 1/w + 1/c = %s tasks/unit\n", *k, wr, cr, limit)
	fmt.Printf("%-6s %-12s %s\n", "depth", "rate", "fraction of infinite")
	for d := 0; d <= *depth; d++ {
		x, err := bwc.TruncatedRate(spec, d)
		if err != nil {
			return err
		}
		fmt.Printf("%-6d %-12s %6.2f%%\n", d, x, 100*x.Float64()/limit.Float64())
	}
	return nil
}

func cmdOverlay(args []string) error {
	fs := flag.NewFlagSet("overlay", flag.ExitOnError)
	file := fs.String("f", "-", "graph file ('-' = stdin; directives: node/switch/link/master)")
	emit := fs.String("emit", "", "print the chosen overlay platform (bfs, dfs or greedy) instead of the report")
	fs.Parse(args)
	var r io.Reader
	if *file == "" || *file == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	g, err := bwc.ParseGraph(r)
	if err != nil {
		return err
	}
	if *emit != "" {
		for _, k := range []bwc.OverlayKind{bwc.OverlayBFS, bwc.OverlayDFS, bwc.OverlayGreedy} {
			if k.String() == *emit {
				tr, err := g.SpanningTree(k)
				if err != nil {
					return err
				}
				fmt.Print(bwc.FormatPlatform(tr))
				return nil
			}
		}
		return fmt.Errorf("unknown overlay %q (want bfs, dfs or greedy)", *emit)
	}
	opt, err := bwc.GraphThroughput(g)
	if err != nil {
		return err
	}
	fmt.Printf("graph:        %d nodes, %d links\n", g.Len(), g.EdgeCount())
	fmt.Printf("graph optimum: %s tasks/unit (LP upper bound)\n", opt)
	fmt.Printf("%-8s %14s %12s\n", "overlay", "tasks/unit", "of optimum")
	for _, k := range []bwc.OverlayKind{bwc.OverlayGreedy, bwc.OverlayBFS, bwc.OverlayDFS} {
		tr, err := g.SpanningTree(k)
		if err != nil {
			return err
		}
		thr := sess.Solve(tr).Throughput
		fmt.Printf("%-8s %14s %11.1f%%\n", k, thr, 100*thr.Float64()/opt.Float64())
	}
	return nil
}

func cmdDynamic(args []string) error {
	fs := flag.NewFlagSet("dynamic", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	degrade := fs.String("degrade", "", "link change as node=newComm (e.g. P1=4)")
	at := fs.String("at", "120", "time of the platform change")
	lag := fs.String("lag", "40", "detection lag before the schedules switch")
	stop := fs.String("stop", "400", "stop releasing tasks at this time")
	logOut := fs.String("log-out", "", "write span JSONL evidence for 'bwsched analyze' to this file ('-' = stdout)")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	name, commS, ok := strings.Cut(*degrade, "=")
	if !ok {
		return fmt.Errorf("need -degrade node=newComm")
	}
	id, found := t.Lookup(name)
	if !found {
		return fmt.Errorf("unknown node %q", name)
	}
	newComm, err := bwc.ParseRat(commS)
	if err != nil {
		return err
	}
	atR, err := bwc.ParseRat(*at)
	if err != nil {
		return err
	}
	lagR, err := bwc.ParseRat(*lag)
	if err != nil {
		return err
	}
	stopR, err := bwc.ParseRat(*stop)
	if err != nil {
		return err
	}
	after, err := t.WithCommTime(id, newComm)
	if err != nil {
		return err
	}
	resBefore, resAfter := sess.Solve(t), sess.Solve(after)
	sBefore, err := sess.BuildSchedule(t)
	if err != nil {
		return err
	}
	sAfter, err := sess.BuildSchedule(after)
	if err != nil {
		return err
	}
	var ob *bwc.Observer
	if *logOut != "" {
		ob = bwc.NewObserver()
	}
	// A switch at t = 0 is no switch: the re-solved schedule runs from
	// the start.
	start, phases := sBefore, []bwc.DynPhase{{At: atR.Add(lagR), Schedule: sAfter}}
	if phases[0].At.IsZero() {
		start, phases = sAfter, nil
	}
	run, err := bwc.Simulate(start, bwc.WithStop(stopR), bwc.WithSimOptions(bwc.SimOptions{
		Phases:  phases,
		Physics: []bwc.DynPhysics{{At: atR, Tree: after}},
		// Interval recording feeds the exported spans; skip it only when
		// nothing will be exported.
		SkipIntervals: ob == nil,
		Obs:           ob,
	}))
	if err != nil {
		return err
	}
	if ob != nil {
		w, err := openOut(*logOut)
		if err != nil {
			return err
		}
		if err := ob.WriteSpansJSONL(w); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("rates:        %s before, %s after the change\n", resBefore.Throughput, resAfter.Throughput)
	fmt.Printf("change at:    %s; schedules switch at %s (lag %s)\n", atR, atR.Add(lagR), lagR)
	st := run.Stats
	fmt.Printf("tasks:        %d generated, %d completed, %d dropped\n", st.Generated, st.Completed, st.Dropped)
	fmt.Printf("wind-down:    %s; max buffered %d\n", st.WindDown, st.MaxHeld)
	return nil
}

func cmdUpgrade(args []string) error {
	fs := flag.NewFlagSet("upgrade", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	speedup := fs.String("speedup", "2", "speedup factor applied to each resource in turn")
	top := fs.Int("top", 5, "show this many upgrades")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	f, err := bwc.ParseRat(*speedup)
	if err != nil {
		return err
	}
	base := sess.Solve(t).Throughput
	ups, err := bwc.AnalyzeUpgrades(t, f)
	if err != nil {
		return err
	}
	fmt.Printf("current throughput: %s tasks/unit\n", base)
	fmt.Printf("top upgrades at %sx speedup:\n", f)
	fmt.Printf("%-8s %-6s %14s %14s\n", "node", "kind", "gain", "new rate")
	for i, u := range ups {
		if i >= *top {
			break
		}
		fmt.Printf("%-8s %-6s %14s %14s\n", t.Name(u.Node), u.Kind, u.Gain, base.Add(u.Gain))
	}
	return nil
}

// openOut opens path for writing; "-" means stdout (with a no-op close).
func openOut(path string) (io.WriteCloser, error) {
	if path == "-" {
		return nopCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// cmdObs runs the full pipeline — distributed protocol, reference solver,
// schedule reconstruction, simulation — under one Observer and exports
// what it collected: Prometheus text (-metrics), Chrome trace-event JSON
// loadable in Perfetto (-trace-out), streaming JSONL events (-log-out).
func cmdObs(args []string) error {
	fs := flag.NewFlagSet("obs", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	periods := fs.Int("periods", 3, "simulate this many root periods")
	stop := fs.String("stop", "", "alternatively: stop delegating at this time (rational)")
	metrics := fs.String("metrics", "", "write Prometheus metrics to this file ('-' = stdout)")
	traceOut := fs.String("trace-out", "", "write Chrome trace-event JSON to this file (chrome://tracing, Perfetto)")
	logOut := fs.String("log-out", "", "stream JSONL events to this file ('-' = stdout)")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	ob := bwc.NewObserver()
	var logW io.WriteCloser
	if *logOut != "" {
		logW, err = openOut(*logOut)
		if err != nil {
			return err
		}
		defer logW.Close()
		ob.AttachJSONL(logW)
	}

	dres := bwc.SolveDistributed(t, bwc.WithObserver(ob))
	res := sess.Solve(t, bwc.WithObserver(ob))
	s, err := sess.BuildSchedule(t)
	if err != nil {
		return err
	}
	opt := []bwc.Option{bwc.WithPeriods(*periods), bwc.WithObserver(ob)}
	if *stop != "" {
		v, err := bwc.ParseRat(*stop)
		if err != nil {
			return err
		}
		opt = []bwc.Option{bwc.WithStop(v), bwc.WithObserver(ob)}
	}
	simRun, err := bwc.Simulate(s, opt...)
	if err != nil {
		return err
	}
	ob.Close() // flush the JSONL stream before exporting
	if logW != nil {
		// Append the span records so the event log is self-sufficient
		// evidence for `bwsched analyze`.
		if err := ob.WriteSpansJSONL(logW); err != nil {
			return err
		}
	}

	fmt.Printf("throughput:  %s tasks/unit\n", res.Throughput)
	fmt.Printf("protocol:    %d messages, %d nodes visited\n", dres.Messages, dres.VisitedCount)
	fmt.Printf("simulated:   %d tasks over %s time units\n", simRun.Stats.Completed, simRun.Stats.StopAt)
	fmt.Printf("spans:       %d recorded\n", len(ob.Spans()))

	if *metrics != "" {
		w, err := openOut(*metrics)
		if err != nil {
			return err
		}
		if err := ob.WritePrometheus(w); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		if *metrics != "-" {
			fmt.Printf("metrics:     %s\n", *metrics)
		}
	}
	if *traceOut != "" {
		w, err := openOut(*traceOut)
		if err != nil {
			return err
		}
		if err := ob.WriteChromeTrace(w); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		fmt.Printf("trace:       %s (load in Perfetto or chrome://tracing)\n", *traceOut)
	}
	if *logOut != "" && *logOut != "-" {
		fmt.Printf("events:      %s\n", *logOut)
	}
	return nil
}

// cmdAnalyze replays recorded telemetry against the paper's theory: it
// reads the spans an observed run exported (obs -log-out JSONL or
// -trace-out Chrome trace), re-derives the expected values from the
// platform, and prints one verdict per conformance check. A failing
// check makes the command exit nonzero, so it slots into CI.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("trace", "", "evidence file: span JSONL or Chrome trace JSON ('-' = stdin)")
	file := fs.String("f", "", "platform file; enables the schedule-dependent checks ('-' = stdin)")
	stop := fs.String("stop", "", "when the root stopped releasing tasks (rational); wind-down after it is ignored")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	ratio := fs.Float64("ratio", 0, "minimum achieved/η ratio (default 0.99)")
	slack := fs.Int("buffer-slack", 0, "tasks a buffer may exceed its χ bound by")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("analyze: -trace is required (a file written by 'obs -log-out' or 'obs -trace-out')")
	}
	var r io.Reader
	if *in == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	opt := bwc.AnalyzeOptions{MinRateRatio: *ratio, BufferSlack: *slack}
	if *file != "" {
		t, err := loadPlatform(*file)
		if err != nil {
			return err
		}
		s, err := sess.BuildSchedule(t)
		if err != nil {
			return err
		}
		opt.Schedule = s
	}
	if *stop != "" {
		v, err := bwc.ParseRat(*stop)
		if err != nil {
			return err
		}
		opt.Stop = v
	}

	rep, err := bwc.AnalyzeTrace(r, bwc.WithAnalyzeOptions(opt))
	if err != nil {
		return err
	}
	if *asJSON {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else if err := rep.WriteText(os.Stdout); err != nil {
		return err
	}
	if !rep.Healthy() {
		return fmt.Errorf("analyze: %d conformance check(s) failed", rep.Failed)
	}
	return nil
}

func cmdExecute(args []string) error {
	fs := flag.NewFlagSet("execute", flag.ExitOnError)
	file := fs.String("f", "-", "platform file ('-' = stdin)")
	n := fs.Int("n", 100, "batch size")
	scale := fs.Duration("scale", 2*time.Millisecond, "wall-clock duration per virtual time unit")
	metricsAddr := fs.String("metrics", "", "serve live /metrics and /debug/pprof/ on this address during the run")
	fs.Parse(args)
	t, err := loadPlatform(*file)
	if err != nil {
		return err
	}
	res := sess.Solve(t)
	s, err := sess.BuildSchedule(t)
	if err != nil {
		return err
	}
	var ob *bwc.Observer
	if *metricsAddr != "" {
		ob = bwc.NewObserver()
		ms, err := bwc.ServeObserverMetrics(ob, *metricsAddr)
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Printf("metrics:  http://%s/metrics (pprof under /debug/pprof/)\n", ms.Addr)
	}
	rep, err := bwc.Execute(s, bwc.WithTasks(*n), bwc.WithScale(*scale), bwc.WithObserver(ob))
	if err != nil {
		return err
	}
	fmt.Printf("executed %d tasks in %v (rate %s/unit analytic)\n", rep.Total, rep.Elapsed.Round(time.Millisecond), res.Throughput)
	for id := 0; id < t.Len(); id++ {
		if rep.Executed[id] > 0 {
			fmt.Printf("  %-8s %6d tasks\n", t.Name(bwc.NodeID(id)), rep.Executed[id])
		}
	}
	return nil
}
