package main

// The traced run: the workload's requests replayed in-process through
// the same public calls the daemon's handlers make, with a span around
// each call into a layer. Spans are kept in memory and written out when
// the replay ends. The replay runs in passes over a fresh session set:
// untraced, traced, untraced again (their difference is the tracing
// overhead), then once counting heap allocations per layer call, which
// is kept out of the timed passes because reading runtime.MemStats
// stops the world.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bwc"
	apiv1 "bwc/api/v1"
)

// span is one timed call in the traced replay.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a request
	Req    int    `json:"req"`
}

// tracer records spans, counts allocations per span name, or (nil) does
// nothing.
type tracer struct {
	allocs bool // count allocations instead of recording spans
	t0     time.Time
	spans  []span
	cur    int
	req    int
	ms     runtime.MemStats
	mark   []uint64 // Mallocs at each open span, innermost last
	calls  map[string]int
	malloc map[string]uint64
}

func newTracer(allocs bool, capacity int) *tracer {
	return &tracer{allocs: allocs, t0: time.Now(), cur: -1, spans: make([]span, 0, capacity),
		calls: map[string]int{}, malloc: map[string]uint64{}}
}

func (tr *tracer) begin(name string) int {
	if tr == nil {
		return 0
	}
	if tr.allocs {
		// Bookkeeping that may allocate comes before the reading.
		tr.calls[name]++
		tr.mark = append(tr.mark, 0)
		runtime.ReadMemStats(&tr.ms)
		tr.mark[len(tr.mark)-1] = tr.ms.Mallocs
		return 0
	}
	tr.spans = append(tr.spans, span{Name: name, Start: int64(time.Since(tr.t0)), Parent: tr.cur, Req: tr.req})
	tr.cur = len(tr.spans) - 1
	return tr.cur
}

func (tr *tracer) end(id int, name string) {
	if tr == nil {
		return
	}
	if tr.allocs {
		runtime.ReadMemStats(&tr.ms)
		top := len(tr.mark) - 1
		tr.malloc[name] += tr.ms.Mallocs - tr.mark[top]
		tr.mark = tr.mark[:top]
		return
	}
	tr.spans[id].End = int64(time.Since(tr.t0))
	tr.cur = tr.spans[id].Parent
}

// selfTimes is each span's duration minus the time its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// replayer plays requests against its own session set, one Session per
// platform fingerprint as the daemon's shard keeps them (without the
// LRU bound).
type replayer struct {
	tr       *tracer
	sessions map[string]*bwc.Session
	buf      bytes.Buffer
	facts    facts
}

// facts are per-pass counts the layer metrics are built from.
type facts struct {
	submits, nodes, visited int
	deployBytes, respBytes  int
	simRuns, tasks          int
	failed                  int
	firstErr                error
}

func (rp *replayer) session(fp string) *bwc.Session {
	s, ok := rp.sessions[fp]
	if !ok {
		s = bwc.NewSession()
		rp.sessions[fp] = s
	}
	return s
}

// encode renders v the way the daemon's writeJSON does.
func (rp *replayer) encode(v any) error {
	s := rp.tr.begin("api.encode")
	defer rp.tr.end(s, "api.encode")
	rp.buf.Reset()
	enc := json.NewEncoder(&rp.buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// front is the decode → parse → fingerprint prefix every handler shares.
func (rp *replayer) front(body []byte, req any, platform func() (string, string)) (*bwc.Tree, string, error) {
	s := rp.tr.begin("api.decode")
	err := json.NewDecoder(bytes.NewReader(body)).Decode(req)
	rp.tr.end(s, "api.decode")
	if err != nil {
		return nil, "", err
	}
	text, ret := platform()
	s = rp.tr.begin("treeio.parse")
	t, err := asReceived(text, ret)
	rp.tr.end(s, "treeio.parse")
	if err != nil {
		return nil, "", err
	}
	s = rp.tr.begin("fingerprint")
	fp := bwc.PlatformFingerprint(t)
	rp.tr.end(s, "fingerprint")
	return t, fp, nil
}

func (rp *replayer) serve(r *request) error {
	root := rp.tr.begin("request")
	defer rp.tr.end(root, "request")
	if r.op == opSubmit {
		return rp.submit(r)
	}
	return rp.simulate(r)
}

func (rp *replayer) submit(r *request) error {
	var req apiv1.SubmitRequest
	t, fp, err := rp.front(r.body, &req, func() (string, string) { return req.Platform, req.UniformReturn })
	if err != nil {
		return err
	}
	sess := rp.session(fp)
	name := "bwfirst.solve"
	if t.HasResultReturn() {
		name = "bwfirst.return_solve"
	}
	s := rp.tr.begin(name)
	res, cached := sess.SolveCached(t)
	folded := ""
	if t.HasResultReturn() {
		if ft, err := bwc.FoldedThroughput(t); err == nil {
			folded = ft.String()
		}
	}
	rp.tr.end(s, name)
	s = rp.tr.begin("sched.build")
	sch, err := sess.BuildSchedule(t)
	rp.tr.end(s, "sched.build")
	if err != nil {
		return err
	}
	s = rp.tr.begin("sched.deploy")
	dep, err := bwc.MarshalDeployment(sch)
	resp := apiv1.SubmitResponse{
		APIVersion: apiv1.Version, Fingerprint: fp, Cache: apiv1.CacheMiss,
		Throughput: res.Throughput.String(), ThroughputFloat: res.Throughput.Float64(),
		Nodes: t.Len(), Visited: res.VisitedCount,
		TreePeriod: sch.TreePeriod().String(), RootlessPeriod: sch.RootlessPeriod().String(),
		StartupBound: sch.MaxStartupBound().String(), Deployment: dep,
		ResultReturn: t.HasResultReturn(), FoldedThroughput: folded,
	}
	rp.tr.end(s, "sched.deploy")
	if err != nil {
		return err
	}
	if cached {
		resp.Cache = apiv1.CacheHit
	}
	if err := rp.encode(resp); err != nil {
		return err
	}
	rp.facts.submits++
	rp.facts.nodes += t.Len()
	if !cached {
		rp.facts.visited += res.VisitedCount
	}
	rp.facts.deployBytes += len(dep)
	rp.facts.respBytes += rp.buf.Len()
	if resp.Throughput != r.want.throughput {
		return fmt.Errorf("throughput %s, oracle %s", resp.Throughput, r.want.throughput)
	}
	return nil
}

func (rp *replayer) simulate(r *request) error {
	var req apiv1.SimulateRequest
	t, fp, err := rp.front(r.body, &req, func() (string, string) { return req.Platform, req.UniformReturn })
	if err != nil {
		return err
	}
	s := rp.tr.begin("sim.run")
	run, err := rp.session(fp).Simulate(t, bwc.WithTasks(req.Tasks), bwc.WithObserver(bwc.NewObserver()))
	rp.tr.end(s, "sim.run")
	if err != nil {
		return err
	}
	s = rp.tr.begin("analyze")
	rep := bwc.AnalyzeRun(run)
	rp.tr.end(s, "analyze")
	st := run.Stats
	resp := apiv1.SimulateResponse{
		APIVersion: apiv1.Version, Fingerprint: fp, Throughput: st.Throughput.String(),
		StopAt: st.StopAt.String(), Generated: st.Generated, Completed: st.Completed,
		SteadyOK: st.SteadyOK, WindDown: st.WindDown.String(), MaxBuffered: st.MaxHeld,
		Report: &apiv1.Report{Healthy: rep.Failed == 0, Passed: rep.Passed, Failed: rep.Failed, Skipped: rep.Skipped},
	}
	for _, c := range rep.Checks {
		resp.Report.Checks = append(resp.Report.Checks, apiv1.Verdict{Name: c.Name, Verdict: string(c.Verdict), Detail: c.Detail})
	}
	if err := rp.encode(resp); err != nil {
		return err
	}
	rp.facts.simRuns++
	rp.facts.tasks += st.Completed
	rp.facts.respBytes += rp.buf.Len()
	if st.Completed != r.want.completed {
		return fmt.Errorf("completed %d, oracle %d", st.Completed, r.want.completed)
	}
	return nil
}

// pass primes a fresh session set with the workload's prime requests
// (untraced), then plays reqs under tr. It returns the wall time of the
// played part.
func pass(in *inputs, reqs []request, tr *tracer) (time.Duration, *replayer) {
	rp := &replayer{sessions: map[string]*bwc.Session{}}
	for i := range in.prime {
		if err := rp.serve(&in.prime[i]); err != nil {
			rp.facts.fail(err)
		}
	}
	rp.facts = facts{failed: rp.facts.failed, firstErr: rp.facts.firstErr}
	rp.tr = tr
	runtime.GC() // start every pass from the same heap
	begin := time.Now()
	for i := range reqs {
		if tr != nil {
			tr.req = i
		}
		if err := rp.serve(&reqs[i]); err != nil {
			rp.facts.fail(err)
		}
	}
	return time.Since(begin), rp
}

func (f *facts) fail(err error) {
	f.failed++
	if f.firstErr == nil {
		f.firstErr = err
	}
}

// layerResult is what the traced run reports.
type layerResult struct {
	metrics           map[string]metric
	attempted, failed int
	// attributedMs is the median over requests of the time the request's
	// layer spans cover.
	attributedMs float64
}

// stageNames are the layer spans a request is made of, with the metric
// each one's median self time is reported as.
var stageNames = [][2]string{
	{"api.decode", "api.decode_ms"},
	{"api.encode", "api.encode_ms"},
	{"treeio.parse", "treeio.parse_ms"},
	{"fingerprint", "fingerprint.ms"},
	{"bwfirst.solve", "bwfirst.solve_ms"},
	{"bwfirst.return_solve", "bwfirst.return_solve_ms"},
	{"sched.build", "sched.build_ms"},
	{"sched.deploy", "sched.deploy_ms"},
	{"sim.run", "sim.run_ms"},
	{"analyze", "analyze.ms"},
}

// allocNames are the layer calls whose heap allocations are reported.
var allocNames = [][2]string{
	{"treeio.parse", "treeio.parse_allocs"},
	{"fingerprint", "fingerprint.allocs"},
	{"bwfirst.solve", "bwfirst.solve_allocs"},
	{"sched.build", "sched.build_allocs"},
	{"sim.run", "sim.run_allocs"},
}

// replay runs the traced run for w and returns the per-layer metrics.
func replay(w *workload, in *inputs, cfg config) (*layerResult, error) {
	reqs := in.timed[:min(w.replay, len(in.timed))]
	plainA, rpA := pass(in, reqs, nil)
	tr := newTracer(false, 8*len(reqs))
	traced, rp := pass(in, reqs, tr)
	plainB, rpB := pass(in, reqs, nil)
	atr := newTracer(true, 0)
	_, rpC := pass(in, reqs, atr)
	out := &layerResult{metrics: map[string]metric{}}
	for _, r := range []*replayer{rpA, rp, rpB, rpC} {
		out.attempted += len(reqs) + len(in.prime)
		out.failed += r.facts.failed
		if r.facts.firstErr != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: replay: %d failed, first: %v\n", r.facts.failed, r.facts.firstErr)
		}
	}
	if err := writeSpans(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed)), tr.spans); err != nil {
		return nil, err
	}

	// Median self time per layer, and per request the time its layer
	// spans cover.
	self := selfTimes(tr.spans)
	byName := map[string][]float64{}
	perReq := make([]float64, len(reqs))
	for i, s := range tr.spans {
		ms := float64(self[i]) / 1e6
		byName[s.Name] = append(byName[s.Name], ms)
		if s.Parent >= 0 {
			perReq[s.Req] += ms
		}
	}
	shares := []string{}
	for _, sn := range stageNames {
		v := 0.0
		if xs := byName[sn[0]]; len(xs) > 0 {
			v = median(xs)
			shares = append(shares, fmt.Sprintf("%s=%.4fms", sn[0], v))
		}
		out.metrics[sn[1]] = metric{v, "ms"}
	}
	out.attributedMs = median(perReq)
	fmt.Printf("trace: %d spans over %d requests; median self time %s; attributed %.4f ms per request\n",
		len(tr.spans), len(reqs), strings.Join(shares, " "), out.attributedMs)
	for _, an := range allocNames {
		v := 0.0
		if n := atr.calls[an[0]]; n > 0 {
			v = float64(atr.malloc[an[0]]) / float64(n)
		}
		out.metrics[an[1]] = metric{v, "count"}
	}
	plain := (plainA + plainB).Seconds() / 2
	out.metrics["trace.overhead_pct"] = metric{100 * (traced.Seconds() - plain) / plain, "%"}

	f := rp.facts
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out.metrics["api.response_kb"] = metric{ratio(f.respBytes, len(reqs)) / 1024, "KB"}
	out.metrics["bwfirst.visited_ratio"] = metric{ratio(f.visited, f.nodes), "ratio"}
	out.metrics["sched.deploy_kb"] = metric{ratio(f.deployBytes, f.submits) / 1024, "KB"}
	out.metrics["sched.max_psi"] = metric{float64(in.maxPsi), "count"}
	out.metrics["sim.tasks"] = metric{ratio(f.tasks, f.simRuns), "count"}

	obsPct, err := obsOverhead(in, reqs)
	if err != nil {
		return nil, err
	}
	out.metrics["obs.overhead_pct"] = metric{obsPct, "%"}
	if err := churnProbe(in, out.metrics); err != nil {
		return nil, err
	}
	return out, nil
}

// obsOverhead is the telemetry tax on the simulator: the same platforms
// run with and without an observer, alternating, as a percentage of the
// unobserved time. Zero for workloads without simulate requests.
func obsOverhead(in *inputs, reqs []request) (float64, error) {
	var trees []*bwc.Tree
	for _, r := range in.prime {
		if r.op != opSimulate {
			return 0, nil
		}
		var req apiv1.SimulateRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return 0, err
		}
		t, err := bwc.ParsePlatformString(req.Platform)
		if err != nil {
			return 0, err
		}
		trees = append(trees, t)
	}
	if len(trees) == 0 {
		return 0, nil
	}
	sess := bwc.NewSession()
	rounds := max(1, len(reqs)/len(trees)/2)
	var plain, observed time.Duration
	for range rounds {
		for _, t := range trees {
			for _, withObs := range []bool{false, true} {
				opts := []bwc.Option{bwc.WithTasks(simTasks)}
				if withObs {
					opts = append(opts, bwc.WithObserver(bwc.NewObserver()))
				}
				begin := time.Now()
				if _, err := sess.Simulate(t, opts...); err != nil {
					return 0, err
				}
				if withObs {
					observed += time.Since(begin)
				} else {
					plain += time.Since(begin)
				}
			}
		}
	}
	return 100 * (observed.Seconds() - plain.Seconds()) / plain.Seconds(), nil
}

// churnProbe measures the layers only churn reaches, on the workload's
// simulate tenants: Session.SimulateChurn (internal/adapt) per tenant,
// and Session.InvalidateDelta — the incremental spine re-solve
// (bwfirst.SolveIncremental) a churn cycle runs — on each tenant with
// one link's comm time doubled. A churn run that ends in a typed
// failure (adapt timeout, collapse) is left out of the figures and
// counted in the printed summary. It reports zeros for workloads without
// simulate tenants.
func churnProbe(in *inputs, m map[string]metric) error {
	var churnMs, incMs []float64
	cycles, failed := 0, 0
	for _, r := range in.prime {
		if r.op != opSimulate {
			break
		}
		var req apiv1.SimulateRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		base, err := bwc.ParsePlatformString(req.Platform)
		if err != nil {
			return err
		}
		sess := bwc.NewSession()
		sess.Solve(base)
		begin := time.Now()
		rep, err := sess.SimulateChurn(base, churnOptions(1000)...)
		if err != nil {
			failed++
		} else {
			churnMs = append(churnMs, float64(time.Since(begin).Nanoseconds())/1e6)
			cycles += len(rep.ReSolves)
		}
		drifted, err := driftOneLink(req.Platform)
		if err != nil {
			return err
		}
		for range 5 {
			sess := bwc.NewSession()
			sess.Solve(base)
			begin := time.Now()
			res := sess.InvalidateDelta(base, drifted)
			incMs = append(incMs, float64(time.Since(begin).Nanoseconds())/1e6)
			if res == nil {
				return errors.New("incremental re-solve carried nothing over")
			}
		}
	}
	if len(churnMs)+failed > 0 {
		fmt.Printf("churn probe: %d tenants churned, %d re-solve cycles, %d ended in a typed failure\n",
			len(churnMs), cycles, failed)
	}
	m["adapt.churn_ms"] = metric{0, "ms"}
	m["adapt.cycles"] = metric{0, "count"}
	m["bwfirst.incremental_ms"] = metric{0, "ms"}
	if len(churnMs) > 0 {
		m["adapt.churn_ms"] = metric{median(churnMs), "ms"}
		m["adapt.cycles"] = metric{float64(cycles) / float64(len(churnMs)), "count"}
	}
	if len(incMs) > 0 {
		m["bwfirst.incremental_ms"] = metric{median(incMs), "ms"}
	}
	return nil
}

func churnOptions(seed int64) []bwc.Option {
	dur, _ := bwc.ParseRat(churnHorizon) // a valid constant
	return []bwc.Option{
		bwc.WithChurn(bwc.ChurnConfig{Seed: seed, Rate: churnRate}),
		bwc.WithStop(dur),
		bwc.WithObserver(bwc.NewObserver()),
	}
}

// driftOneLink doubles the comm time of the last non-root node's link
// in a platform's text form.
func driftOneLink(text string) (*bwc.Tree, error) {
	lines := strings.Split(text, "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		f := strings.Fields(lines[i])
		if len(f) < 4 || strings.HasPrefix(f[0], "#") || f[1] == "-" {
			continue
		}
		c, err := bwc.ParseRat(f[2])
		if err != nil {
			return nil, err
		}
		f[2] = c.Mul(bwc.RatInt(2)).String()
		lines[i] = strings.Join(f, " ")
		return bwc.ParsePlatformString(strings.Join(lines, "\n"))
	}
	return nil, errors.New("platform has no link to drift")
}

// writeSpans dumps the traced pass's spans, one JSON object a line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
