package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"net"
	"net/http"
	"strconv"
	"time"

	"bwc"
	apiv1 "bwc/api/v1"
	"bwc/internal/obs"
)

// DefaultAddr is where bwsched serve listens when no -addr is given.
const DefaultAddr = "127.0.0.1:8377"

// Options configures a control-plane server.
type Options struct {
	// Addr is the listen address (DefaultAddr when empty; host:0 picks a
	// free port, see Server.Addr).
	Addr string
	// MaxSessions bounds the LRU session shard (default 64 tenants).
	MaxSessions int
	// History bounds the retained run records (default 256).
	History int
	// Scope receives the server's own metrics (cache hits, misses,
	// evictions per tenant). Nil creates a private scope.
	Scope *obs.Scope
}

// Server is bwschedd: the HTTP/JSON control plane over the session
// fleet. Create with New, mount Handler anywhere or call Start/Close.
type Server struct {
	opts  Options
	scope *obs.Scope
	shard *shard
	store *store
	hub   *hub
	mux   *http.ServeMux
	begin time.Time

	httpSrv *http.Server
	ln      net.Listener
}

// New builds a server (not yet listening).
func New(opts Options) *Server {
	if opts.Addr == "" {
		opts.Addr = DefaultAddr
	}
	scope := opts.Scope
	if scope == nil {
		scope = obs.New()
	}
	s := &Server{
		opts:  opts,
		scope: scope,
		shard: newShard(opts.MaxSessions, scope),
		store: newStore(opts.History),
		hub:   newHub(),
		begin: time.Now(),
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

func (s *Server) routes() {
	p := apiv1.PathPrefix
	s.mux.HandleFunc("POST "+p+"/platforms", s.handleSubmit)
	s.mux.HandleFunc("GET "+p+"/platforms", s.handlePlatforms)
	s.mux.HandleFunc("GET "+p+"/platforms/{fp}", s.handlePlatform)
	s.mux.HandleFunc("POST "+p+"/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST "+p+"/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST "+p+"/adaptive", s.handleAdaptive)
	s.mux.HandleFunc("POST "+p+"/churn", s.handleChurn)
	s.mux.HandleFunc("GET "+p+"/runs", s.handleRuns)
	s.mux.HandleFunc("GET "+p+"/runs/{id}", s.handleRun)
	s.mux.HandleFunc("GET "+p+"/events", s.handleEvents)
	s.mux.HandleFunc("GET "+p+"/stats", s.handleStats)
	s.mux.HandleFunc("GET "+p+"/version", s.handleVersion)
	s.mux.HandleFunc(p+"/", s.handleUnknown) // typed 404 inside the API prefix
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /{$}", s.handleDashboard)
}

// Handler returns the full route tree (api/v1, /metrics, /healthz,
// dashboard) for mounting in tests or a caller-owned http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on the configured address and serves in the background.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the listener down and detaches every event subscriber.
func (s *Server) Close() error {
	s.hub.Close()
	if s.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	return s.httpSrv.Shutdown(ctx)
}

// --- wire helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError sends the typed error envelope; the HTTP status comes from
// the error's code, which also fixes the CLI exit code.
func writeError(w http.ResponseWriter, e *apiv1.Error) {
	writeJSON(w, e.Code.HTTPStatus(), apiv1.Envelope{Error: e})
}

// maxBodyBytes caps a request body. A 100,000-node platform is about
// 2 MB of text, so no platform the daemon can serve comes near it.
const maxBodyBytes = 8 << 20

// decode reads the request's JSON body into v, refusing a body over
// maxBodyBytes.
func decode(w http.ResponseWriter, r *http.Request, v any) *apiv1.Error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return apiv1.Errorf(apiv1.CodeBadRequest, "request body exceeds the %d MiB limit", tooLarge.Limit>>20)
		}
		return apiv1.Errorf(apiv1.CodeBadRequest, "malformed request body: %v", err)
	}
	return nil
}

// parsePlatform turns the request's platform text into a tree, mapping
// parse failures (which wrap bwc.ErrNotATree) through the envelope.
func parsePlatform(platform string) (*bwc.Tree, *apiv1.Error) {
	if platform == "" {
		return nil, apiv1.Errorf(apiv1.CodeBadRequest, "missing required field %q", "platform")
	}
	t, err := bwc.ParsePlatformString(platform)
	if err != nil {
		return nil, apiv1.NewError(err)
	}
	return t, nil
}

// tenantRef is a request's platform once validated: the live tenant its
// exact text indexes, or else the tree parsed from that text.
type tenantRef struct {
	key  textKey
	live *shardEntry
	tree *bwc.Tree
}

// tenant validates a request's platform without admitting it. A
// byte-identical resubmission of a live tenant's (platform,
// uniform_return) text is a lookup in the shard's text index; any other
// text is parsed. Handlers resolve the platform first, so its error
// takes precedence over theirs, and admit only once every field is valid.
func (s *Server) tenant(platform, uniformReturn string) (tenantRef, *apiv1.Error) {
	key := textKey{platform, uniformReturn}
	if e, ok := s.shard.ByText(key); ok {
		return tenantRef{key: key, live: e}, nil
	}
	t, we := parsePlatform(platform)
	if we != nil {
		return tenantRef{}, we
	}
	if t, we = applyUniformReturn(t, uniformReturn); we != nil {
		return tenantRef{}, we
	}
	return tenantRef{key: key, tree: t}, nil
}

// admit returns ref's tenant, moving a live one to the LRU front and
// admitting a parsed one through the shard; the bool reports a warm
// re-admission from an evicted tenant's ghost.
func (s *Server) admit(ref tenantRef) (*shardEntry, bool) {
	if ref.live != nil {
		s.shard.Touch(ref.live)
		return ref.live, false
	}
	return s.shard.Get(ref.key, ref.tree)
}

func parseOptRat(field, s string) (bwc.Rational, *apiv1.Error) {
	if s == "" {
		return bwc.Rational{}, nil
	}
	v, err := bwc.ParseRat(s)
	if err != nil {
		return bwc.Rational{}, apiv1.Errorf(apiv1.CodeBadRequest, "field %q: %v", field, err)
	}
	return v, nil
}

// begin opens a run record and publishes its start event.
func (s *Server) beginRun(kind, fp string) string {
	id := s.store.Start(kind, fp)
	s.hub.Publish(id, "run.start", "kind", kind, "fingerprint", fpLabel(fp))
	return id
}

// endRun finishes the record and publishes run.done / run.failed.
func (s *Server) endRun(id, summary string, wireErr *apiv1.Error) {
	s.store.Finish(id, summary, wireErr)
	if wireErr != nil {
		s.hub.Publish(id, "run.failed", "code", string(wireErr.Code), "message", wireErr.Message)
		return
	}
	s.hub.Publish(id, "run.done", "summary", summary)
}

// runObserver builds the per-run Observer bridged onto the event hub: a
// request body's instrumentation flows to every SSE subscriber, tagged
// with the run ID.
func (s *Server) runObserver(runID string) *bwc.Observer {
	ob := bwc.NewObserver()
	ob.Attach(s.hub.Sink(runID))
	return ob
}

func wireReport(rep *bwc.HealthReport) *apiv1.Report {
	if rep == nil {
		return nil
	}
	out := &apiv1.Report{
		Healthy: rep.Failed == 0,
		Passed:  rep.Passed,
		Failed:  rep.Failed,
		Skipped: rep.Skipped,
		Checks:  make([]apiv1.Verdict, 0, len(rep.Checks)),
	}
	for _, c := range rep.Checks {
		out.Checks = append(out.Checks, apiv1.Verdict{
			Name:    c.Name,
			Verdict: string(c.Verdict),
			Detail:  c.Detail,
		})
	}
	return out
}

// publishVerdicts streams one analyze.verdict event per conformance
// check — the live view of a run's health report.
func (s *Server) publishVerdicts(runID string, rep *apiv1.Report) {
	for _, c := range rep.Checks {
		s.hub.Publish(runID, "analyze.verdict", "check", c.Name, "verdict", c.Verdict, "detail", c.Detail)
	}
}

// --- handlers ---

// wireFields are the submit-response fields derived from one schedule:
// pure functions of the platform, rendered once per schedule.
type wireFields struct {
	sched          *bwc.Schedule
	treePeriod     string
	rootlessPeriod string
	startupBound   string
	deployment     json.RawMessage // indented for its place in the answer
	folded         string          // FoldedThroughput; empty on forward-only platforms
}

func renderWire(sch *bwc.Schedule) *wireFields {
	w := &wireFields{
		sched:          sch,
		treePeriod:     sch.TreePeriod().String(),
		rootlessPeriod: sch.RootlessPeriod().String(),
		startupBound:   sch.MaxStartupBound().String(),
		deployment:     sch.AppendDeployment(nil, 1),
	}
	if sch.Tree.HasResultReturn() {
		if ft, err := bwc.FoldedThroughput(sch.Tree); err == nil {
			w.folded = ft.String()
		}
	}
	return w
}

// wireFor returns sch's rendered fields, rendering again only when the
// tenant's Session returned a different schedule than last time (a
// re-prime, an invalidation or the other Block setting).
func (e *shardEntry) wireFor(sch *bwc.Schedule) *wireFields {
	if w := e.wire.Load(); w != nil && w.sched == sch {
		return w
	}
	w := renderWire(sch)
	e.wire.Store(w)
	return w
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req apiv1.SubmitRequest
	if e := decode(w, r, &req); e != nil {
		writeError(w, e)
		return
	}
	ref, e := s.tenant(req.Platform, req.UniformReturn)
	if e != nil {
		writeError(w, e)
		return
	}
	ten, reprimed := s.admit(ref)
	t, sess, fp := ten.tree, ten.sess, ten.fp
	runID := s.beginRun("submit", fp)
	var opts []bwc.Option
	if req.Block {
		opts = append(opts, bwc.WithBlock())
	}
	res, cached := sess.SolveCached(t, opts...)
	marker := apiv1.CacheMiss
	switch {
	case reprimed && cached:
		marker = apiv1.CacheReprimed
	case cached:
		marker = apiv1.CacheHit
	}
	if cached {
		s.shard.CountHit(fp)
	} else {
		s.shard.CountMiss(fp)
	}
	fail := func(err error) {
		we := apiv1.NewError(err)
		s.endRun(runID, "", we)
		writeError(w, we)
	}
	sch, err := sess.BuildSchedule(t, opts...)
	if err != nil {
		fail(err)
		return
	}
	resp := apiv1.SubmitResponse{
		APIVersion:      apiv1.Version,
		Fingerprint:     fp,
		Cache:           marker,
		Throughput:      res.Throughput.String(),
		ThroughputFloat: res.Throughput.Float64(),
		Nodes:           t.Len(),
		Visited:         res.VisitedCount,
		ResultReturn:    t.HasResultReturn(),
	}
	var wire *wireFields
	if req.Quantize > 0 {
		var qr bwc.Rational
		if sch, qr, err = bwc.QuantizeSchedule(res, req.Quantize, opts...); err != nil {
			fail(err)
			return
		}
		resp.Quantized = qr.String()
		wire = renderWire(sch)
	} else {
		wire = ten.wireFor(sch)
	}
	resp.TreePeriod = wire.treePeriod
	resp.RootlessPeriod = wire.rootlessPeriod
	resp.StartupBound = wire.startupBound
	resp.Deployment = wire.deployment
	resp.FoldedThroughput = wire.folded
	s.endRun(runID, fmt.Sprintf("throughput %s (%s)", resp.Throughput, marker), nil)
	s.hub.Publish(runID, "submit.solved", "throughput", resp.Throughput, "cache", marker, "fingerprint", fpLabel(fp))
	writeAnswer(w, AppendSubmit(nil, &resp))
}

func (s *Server) handlePlatforms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		APIVersion   string   `json:"api_version"`
		Fingerprints []string `json:"fingerprints"`
	}{apiv1.Version, s.shard.Fingerprints()})
}

func (s *Server) handlePlatform(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	ts, ok := s.shard.Tenant(fp)
	if !ok {
		writeError(w, apiv1.Errorf(apiv1.CodeNotFound, "no live session for fingerprint %q", fp))
		return
	}
	writeJSON(w, http.StatusOK, ts)
}

// applyUniformReturn applies a request's uniform_return field (rational
// string, empty = forward-only) to the parsed platform.
func applyUniformReturn(t *bwc.Tree, uniform string) (*bwc.Tree, *apiv1.Error) {
	if uniform == "" {
		return t, nil
	}
	d, e := parseOptRat("uniform_return", uniform)
	if e != nil {
		return nil, e
	}
	u, err := bwc.PlatformWithUniformResultReturn(t, d)
	if err != nil {
		return nil, apiv1.NewError(err)
	}
	return u, nil
}

// horizonOptions maps a request's stop/periods/tasks onto facade
// options, defaulting to a 3-period run.
func horizonOptions(field, stop string, periods, tasks int) ([]bwc.Option, *apiv1.Error) {
	var opts []bwc.Option
	st, e := parseOptRat(field, stop)
	if e != nil {
		return nil, e
	}
	switch {
	case st.IsPos():
		opts = append(opts, bwc.WithStop(st))
	case tasks > 0:
		opts = append(opts, bwc.WithTasks(tasks))
	case periods > 0:
		opts = append(opts, bwc.WithPeriods(periods))
	default:
		opts = append(opts, bwc.WithPeriods(3))
	}
	return opts, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req apiv1.SimulateRequest
	if e := decode(w, r, &req); e != nil {
		writeError(w, e)
		return
	}
	ref, e := s.tenant(req.Platform, req.UniformReturn)
	if e != nil {
		writeError(w, e)
		return
	}
	opts, e := horizonOptions("stop", req.Stop, req.Periods, req.Tasks)
	if e != nil {
		writeError(w, e)
		return
	}
	if req.Block {
		opts = append(opts, bwc.WithBlock())
	}
	ten, _ := s.admit(ref)
	fp := ten.fp
	runID := s.beginRun("simulate", fp)
	opts = append(opts, bwc.WithObserver(s.runObserver(runID)))
	run, err := ten.sess.Simulate(ten.tree, opts...)
	if err != nil {
		we := apiv1.NewError(err)
		s.endRun(runID, "", we)
		writeError(w, we)
		return
	}
	st := run.Stats
	resp := apiv1.SimulateResponse{
		APIVersion:      apiv1.Version,
		Fingerprint:     fp,
		RunID:           runID,
		Throughput:      st.Throughput.String(),
		StopAt:          st.StopAt.String(),
		Generated:       st.Generated,
		Completed:       st.Completed,
		SteadyOK:        st.SteadyOK,
		WindDown:        st.WindDown.String(),
		MaxBuffered:     st.MaxHeld,
		ResultsReturned: st.ResultsReturned,
	}
	if st.SteadyOK {
		resp.SteadyStart = st.SteadyStart.String()
	}
	if req.Analyze {
		resp.Report = wireReport(bwc.AnalyzeRun(run))
		s.publishVerdicts(runID, resp.Report)
	}
	s.endRun(runID, fmt.Sprintf("completed %d tasks to %s", st.Completed, st.StopAt), nil)
	writeAnswer(w, AppendSimulate(nil, &resp))
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req apiv1.AnalyzeRequest
	if e := decode(w, r, &req); e != nil {
		writeError(w, e)
		return
	}
	ref, e := s.tenant(req.Platform, "")
	if e != nil {
		writeError(w, e)
		return
	}
	// The steady-state checks need a horizon long enough to observe
	// onset; a bare analyze request gets the same stop the conformance
	// tests use rather than the short simulate default.
	if req.Stop == "" && req.Periods == 0 {
		req.Stop = "200"
	}
	opts, e := horizonOptions("stop", req.Stop, req.Periods, 0)
	if e != nil {
		writeError(w, e)
		return
	}
	if req.Block {
		opts = append(opts, bwc.WithBlock())
	}
	ten, _ := s.admit(ref)
	fp := ten.fp
	runID := s.beginRun("analyze", fp)
	opts = append(opts, bwc.WithObserver(s.runObserver(runID)))
	rep, err := ten.sess.Analyze(ten.tree, opts...)
	if err != nil {
		we := apiv1.NewError(err)
		s.endRun(runID, "", we)
		writeError(w, we)
		return
	}
	wire := wireReport(rep)
	s.publishVerdicts(runID, wire)
	s.endRun(runID, fmt.Sprintf("%d pass / %d fail / %d skip", wire.Passed, wire.Failed, wire.Skipped), nil)
	writeAnswer(w, AppendAnalyze(nil, &apiv1.AnalyzeResponse{
		APIVersion:  apiv1.Version,
		Fingerprint: fp,
		RunID:       runID,
		Report:      *wire,
	}))
}

// wireFaults compiles the request's fault script into facade faults.
func wireFaults(specs []apiv1.FaultSpec) ([]bwc.Fault, *apiv1.Error) {
	var faults []bwc.Fault
	for i, f := range specs {
		at, e := parseOptRat(fmt.Sprintf("faults[%d].at", i), f.At)
		if e != nil {
			return nil, e
		}
		val := bwc.Rational{}
		if f.Value != "" {
			if val, e = parseOptRat(fmt.Sprintf("faults[%d].value", i), f.Value); e != nil {
				return nil, e
			}
		}
		switch f.Kind {
		case "degrade-link":
			faults = append(faults, bwc.DegradeLink(at, f.Node, val))
		case "slow-node":
			faults = append(faults, bwc.SlowNode(at, f.Node, val))
		case "restore-link":
			faults = append(faults, bwc.RestoreLink(at, f.Node))
		case "restore-node":
			faults = append(faults, bwc.RestoreNode(at, f.Node))
		case "crash":
			faults = append(faults, bwc.CrashNode(at, f.Node))
		default:
			return nil, apiv1.Errorf(apiv1.CodeBadRequest,
				"faults[%d].kind: unknown kind %q (want degrade-link, slow-node, restore-link, restore-node or crash)", i, f.Kind)
		}
	}
	return faults, nil
}

func (s *Server) handleAdaptive(w http.ResponseWriter, r *http.Request) {
	var req apiv1.AdaptiveRequest
	if e := decode(w, r, &req); e != nil {
		writeError(w, e)
		return
	}
	ref, e := s.tenant(req.Platform, "")
	if e != nil {
		writeError(w, e)
		return
	}
	faults, e := wireFaults(req.Faults)
	if e != nil {
		writeError(w, e)
		return
	}
	stop, e := parseOptRat("stop", req.Stop)
	if e != nil {
		writeError(w, e)
		return
	}
	if !stop.IsPos() {
		stop = bwc.RatInt(400)
	}
	ten, _ := s.admit(ref)
	t, sess, fp := ten.tree, ten.sess, ten.fp
	runID := s.beginRun("adaptive", fp)
	opts := []bwc.Option{
		bwc.WithStop(stop),
		bwc.WithObserver(s.runObserver(runID)),
	}
	if len(faults) > 0 {
		opts = append(opts, bwc.WithFaults(faults...))
	}
	if req.Threshold > 0 {
		opts = append(opts, bwc.WithDriftThreshold(req.Threshold))
	}
	if req.MaxAdapts > 0 {
		opts = append(opts, bwc.WithMaxAdapts(req.MaxAdapts))
	}
	if req.DetectOnly {
		opts = append(opts, bwc.WithDetectOnly())
	}
	rep, err := sess.SimulateAdaptive(t, opts...)
	if err != nil {
		we := apiv1.NewError(err)
		s.endRun(runID, "", we)
		writeError(w, we)
		return
	}
	final := sess.Solve(t).Throughput
	if n := len(rep.Adaptations); n > 0 {
		final = rep.Adaptations[n-1].Throughput
	}
	resp := apiv1.AdaptiveResponse{
		APIVersion:      apiv1.Version,
		Fingerprint:     fp,
		RunID:           runID,
		Adaptations:     len(rep.Adaptations),
		Healed:          rep.Healed,
		FinalThroughput: final.String(),
		Pre:             wireReport(rep.Pre),
		Post:            wireReport(rep.Post),
	}
	s.endRun(runID, fmt.Sprintf("%d adaptations, healed=%v", resp.Adaptations, resp.Healed), nil)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleChurn(w http.ResponseWriter, r *http.Request) {
	var req apiv1.ChurnRequest
	if e := decode(w, r, &req); e != nil {
		writeError(w, e)
		return
	}
	ref, e := s.tenant(req.Platform, "")
	if e != nil {
		writeError(w, e)
		return
	}
	dur, e := parseOptRat("duration", req.Duration)
	if e != nil {
		writeError(w, e)
		return
	}
	if !dur.IsPos() {
		dur = bwc.RatInt(600)
	}
	ten, _ := s.admit(ref)
	fp := ten.fp
	runID := s.beginRun("churn", fp)
	cfg := bwc.ChurnConfig{Seed: req.Seed, Rate: req.Rate, CrashFraction: req.CrashFraction}
	opts := []bwc.Option{
		bwc.WithChurn(cfg),
		bwc.WithStop(dur),
		bwc.WithObserver(s.runObserver(runID)),
	}
	if req.RetentionFloor > 0 {
		opts = append(opts, bwc.WithRetentionFloor(req.RetentionFloor))
	}
	rep, err := ten.sess.SimulateChurn(ten.tree, opts...)
	if err != nil {
		we := apiv1.NewError(err)
		s.endRun(runID, "", we)
		writeError(w, we)
		return
	}
	resp := apiv1.ChurnResponse{
		APIVersion:  apiv1.Version,
		Fingerprint: fp,
		RunID:       runID,
		Baseline:    rep.Baseline.String(),
		Oracle:      rep.Oracle.String(),
		Final:       rep.Final.String(),
		Retention:   rep.Retention,
		Cycles:      len(rep.ReSolves),
		Quarantined: rep.Quarantined,
		Collapsed:   rep.Collapsed,
		Healed:      rep.Healed,
	}
	s.endRun(runID, fmt.Sprintf("retention %.2f over %d cycles", rep.Retention, resp.Cycles), nil)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, apiv1.RunsResponse{
		APIVersion: apiv1.Version,
		Runs:       s.store.List(),
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.store.Get(id)
	if !ok {
		writeError(w, apiv1.Errorf(apiv1.CodeNotFound, "no such run %q", id))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, apiv1.Errorf(apiv1.CodeInternal, "streaming unsupported by this connection"))
		return
	}
	n := 0 // 0 = unbounded
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, apiv1.Errorf(apiv1.CodeBadRequest, "query %q: want a non-negative integer", "n"))
			return
		}
		n = v
	}
	ch, cancel := s.hub.Subscribe(r.URL.Query().Get("run"), r.URL.Query().Get("name"), 256)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// The comment line tells the client its subscription is live before
	// any event fires — the handshake scripts sequence on.
	fmt.Fprint(w, ": subscribed\n\n")
	fl.Flush()
	sent := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name, data)
			fl.Flush()
			sent++
			if n > 0 && sent >= n {
				return
			}
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, apiv1.StatsResponse{
		APIVersion: apiv1.Version,
		Sessions:   s.shard.Len(),
		Capacity:   s.shard.Cap(),
		Evicted:    s.shard.Evicted(),
		Runs:       s.store.Len(),
		Tenants:    s.shard.Tenants(),
	})
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, apiv1.VersionResponse{
		APIVersion: apiv1.Version,
		Server:     "bwschedd",
	})
}

func (s *Server) handleUnknown(w http.ResponseWriter, r *http.Request) {
	writeError(w, apiv1.Errorf(apiv1.CodeNotFound, "no such endpoint %s %s", r.Method, r.URL.Path))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.scope.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, apiv1.HealthResponse{
		Status:         "ok",
		APIVersion:     apiv1.Version,
		UptimeSeconds:  time.Since(s.begin).Seconds(),
		Sessions:       s.shard.Len(),
		Runs:           s.store.Len(),
		RunsFailed:     s.store.Failed(),
		EventsStreamed: s.hub.Streamed(),
	})
}

var dashboardTmpl = template.Must(template.New("dash").Parse(`<!doctype html>
<html><head><title>bwschedd</title><style>
body{font-family:system-ui,sans-serif;margin:2rem;max-width:60rem}
table{border-collapse:collapse;margin:1rem 0}
td,th{border:1px solid #ccc;padding:.3rem .6rem;text-align:left;font-size:.9rem}
code{background:#f4f4f4;padding:.1rem .3rem}
</style></head><body>
<h1>bwschedd</h1>
<p>sessions {{.Sessions}}/{{.Capacity}} &middot; {{.Evicted}} evicted &middot; {{.Runs}} runs retained
&middot; <a href="/metrics">metrics</a> &middot; <a href="/healthz">healthz</a>
&middot; <a href="/api/v1/stats">stats</a> &middot; <a href="/api/v1/runs">runs</a></p>
<h2>Tenants</h2>
<table><tr><th>fingerprint</th><th>throughput</th><th>hits</th><th>misses</th><th>evictions</th></tr>
{{range .Tenants}}<tr><td><code>{{printf "%.12s" .Fingerprint}}</code></td><td>{{.Throughput}}</td>
<td>{{.Hits}}</td><td>{{.Misses}}</td><td>{{.Evictions}}</td></tr>{{end}}
</table>
<h2>Recent runs</h2>
<table><tr><th>id</th><th>kind</th><th>status</th><th>summary</th></tr>
{{range .Recent}}<tr><td><code>{{.ID}}</code></td><td>{{.Kind}}</td><td>{{.Status}}</td><td>{{.Summary}}</td></tr>{{end}}
</table>
</body></html>`))

func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	runs := s.store.List()
	if len(runs) > 20 {
		runs = runs[:20]
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = dashboardTmpl.Execute(w, struct {
		Sessions, Capacity, Evicted, Runs int
		Tenants                           []apiv1.TenantStats
		Recent                            []apiv1.RunRecord
	}{s.shard.Len(), s.shard.Cap(), s.shard.Evicted(), s.store.Len(), s.shard.Tenants(), runs})
}
