package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bwc"
	apiv1 "bwc/api/v1"
	"bwc/internal/bwcerr"
)

func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func post(t *testing.T, url string, req, resp any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, r.Body)
	}
	return r
}

// TestSubmitColdThenHit: first submit of the Section 8 platform solves
// cold, the second is flagged as a cache hit, and both agree on the
// paper's exact throughput 10/9.
func TestSubmitColdThenHit(t *testing.T) {
	ts := newTestServer(t, Options{})
	paper := bwc.FormatPlatform(bwc.PaperExampleTree())

	var first, second apiv1.SubmitResponse
	r := post(t, ts.URL+"/api/v1/platforms", apiv1.SubmitRequest{Platform: paper}, &first)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	post(t, ts.URL+"/api/v1/platforms", apiv1.SubmitRequest{Platform: paper}, &second)

	if first.Cache != apiv1.CacheMiss {
		t.Errorf("first submit cache = %q, want miss", first.Cache)
	}
	if second.Cache != apiv1.CacheHit {
		t.Errorf("second submit cache = %q, want hit", second.Cache)
	}
	if first.Throughput != "10/9" || second.Throughput != "10/9" {
		t.Errorf("throughputs %q/%q, want 10/9", first.Throughput, second.Throughput)
	}
	if first.Fingerprint == "" || first.Fingerprint != second.Fingerprint {
		t.Errorf("fingerprints diverge: %q vs %q", first.Fingerprint, second.Fingerprint)
	}
	if len(first.Deployment) == 0 {
		t.Error("submit response carries no deployment document")
	}
	if first.APIVersion != apiv1.Version {
		t.Errorf("api_version = %q", first.APIVersion)
	}
}

// TestSubmitMalformed422: a platform violating the tree model yields the
// typed envelope — HTTP 422, code not_a_tree, exit_code 4 — and the
// decoded error unwraps to the facade sentinel.
func TestSubmitMalformed422(t *testing.T) {
	ts := newTestServer(t, Options{})
	var env apiv1.Envelope
	r := post(t, ts.URL+"/api/v1/platforms",
		apiv1.SubmitRequest{Platform: "P0 - - 9\nP1 NOPE 1 2\n"}, &env)
	if r.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", r.StatusCode)
	}
	if env.Error == nil {
		t.Fatal("no error envelope")
	}
	if env.Error.Code != apiv1.CodeNotATree || env.Error.ExitCode != 4 {
		t.Errorf("envelope = %+v, want not_a_tree / exit 4", env.Error)
	}
	if !errors.Is(env.Error, bwcerr.ErrNotATree) {
		t.Error("decoded envelope does not unwrap to ErrNotATree")
	}
}

// TestSubmitLongLine: a platform line longer than 64 KiB (here a
// 70,000-byte node name) is served, or refused as not_a_tree, and is
// never an internal error. A line reader with a token limit once
// answered it with HTTP 500.
func TestSubmitLongLine(t *testing.T) {
	ts := newTestServer(t, Options{})
	long := strings.Repeat("n", 70000)
	for _, c := range []struct {
		platform string
		status   int
	}{
		{"P0 - - 2\n" + long + " P0 1 1\n", http.StatusOK},
		{"P0 - - 2\n" + long + " NOPE 1 1\n", http.StatusUnprocessableEntity},
	} {
		var out struct {
			apiv1.SubmitResponse
			Error *apiv1.Error `json:"error"`
		}
		r := post(t, ts.URL+"/api/v1/platforms", apiv1.SubmitRequest{Platform: c.platform}, &out)
		if r.StatusCode != c.status {
			t.Fatalf("status %d, error %+v; want %d", r.StatusCode, out.Error, c.status)
		}
		if c.status == http.StatusOK && (out.Nodes != 2 || out.Throughput != "3/2") {
			t.Errorf("served %d nodes at %q, want 2 at 3/2", out.Nodes, out.Throughput)
		}
		if c.status != http.StatusOK && (out.Error == nil || out.Error.Code != apiv1.CodeNotATree) {
			t.Errorf("error %+v, want not_a_tree", out.Error)
		}
	}
}

// TestSubmitMissingPlatform400 and unknown endpoints use the same
// envelope shape with the request-level codes.
func TestSubmitBadRequests(t *testing.T) {
	ts := newTestServer(t, Options{})
	var env apiv1.Envelope
	if r := post(t, ts.URL+"/api/v1/platforms", apiv1.SubmitRequest{}, &env); r.StatusCode != http.StatusBadRequest {
		t.Errorf("empty platform: status %d, want 400", r.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/api/v1/definitely-not-an-endpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown endpoint: status %d, want 404", resp.StatusCode)
	}
	env = apiv1.Envelope{}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil || env.Error.Code != apiv1.CodeNotFound {
		t.Errorf("unknown endpoint must carry a typed not_found envelope (err=%v, env=%+v)", err, env.Error)
	}
}

// TestConcurrentSubmitsOneMiss: two (and more) clients racing the same
// cold platform observe exactly one cold solve; everyone else is served
// the coalesced result flagged as a hit.
func TestConcurrentSubmitsOneMiss(t *testing.T) {
	ts := newTestServer(t, Options{})
	paper := bwc.FormatPlatform(bwc.PaperExampleTree())
	const clients = 8
	markers := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp apiv1.SubmitResponse
			post(t, ts.URL+"/api/v1/platforms", apiv1.SubmitRequest{Platform: paper}, &resp)
			markers[i] = resp.Cache
		}(i)
	}
	wg.Wait()
	misses := 0
	for _, m := range markers {
		if m == apiv1.CacheMiss {
			misses++
		} else if m != apiv1.CacheHit {
			t.Errorf("unexpected cache marker %q", m)
		}
	}
	if misses != 1 {
		t.Fatalf("%d cold solves across %d concurrent submits, want exactly 1 (markers %v)", misses, clients, markers)
	}
}

// TestEvictionReprime: with a one-tenant shard, submitting a second
// platform evicts the first; re-submitting the first is flagged
// "reprimed" — served from the ghost, not a cold solve.
func TestEvictionReprime(t *testing.T) {
	ts := newTestServer(t, Options{MaxSessions: 1})
	paper := bwc.FormatPlatform(bwc.PaperExampleTree())
	other := "Q0 - - 4\nQ1 Q0 1 2\n"

	var first, evictor, back apiv1.SubmitResponse
	post(t, ts.URL+"/api/v1/platforms", apiv1.SubmitRequest{Platform: paper}, &first)
	post(t, ts.URL+"/api/v1/platforms", apiv1.SubmitRequest{Platform: other}, &evictor)
	post(t, ts.URL+"/api/v1/platforms", apiv1.SubmitRequest{Platform: paper}, &back)
	if first.Cache != apiv1.CacheMiss || evictor.Cache != apiv1.CacheMiss {
		t.Fatalf("setup markers %q/%q, want miss/miss", first.Cache, evictor.Cache)
	}
	if back.Cache != apiv1.CacheReprimed {
		t.Errorf("re-submitted evicted platform cache = %q, want reprimed", back.Cache)
	}
	if back.Throughput != first.Throughput {
		t.Errorf("re-primed throughput %q, want %q", back.Throughput, first.Throughput)
	}

	var stats apiv1.StatsResponse
	resp, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Evicted < 2 {
		t.Errorf("stats.evicted = %d, want >= 2", stats.Evicted)
	}
	if stats.Sessions != 1 || stats.Capacity != 1 {
		t.Errorf("stats sessions=%d capacity=%d, want 1/1", stats.Sessions, stats.Capacity)
	}
}

// TestSSEAnalyzeVerdicts: an SSE subscriber receives the analyzer's
// verdict events emitted by a run that starts after it subscribed.
func TestSSEAnalyzeVerdicts(t *testing.T) {
	ts := newTestServer(t, Options{})
	paper := bwc.FormatPlatform(bwc.PaperExampleTree())

	req, err := http.NewRequest("GET", ts.URL+"/api/v1/events?name=analyze.verdict&n=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)

	// The ": subscribed" comment confirms the subscription is live
	// before the analyze run starts — no race with event production.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ": subscribed") {
		t.Fatalf("expected subscription handshake, got %q", sc.Text())
	}

	var analyzeResp apiv1.AnalyzeResponse
	post(t, ts.URL+"/api/v1/analyze", apiv1.AnalyzeRequest{Platform: paper, Periods: 2}, &analyzeResp)
	if len(analyzeResp.Report.Checks) == 0 {
		t.Fatal("analyze returned no checks")
	}

	deadline := time.After(10 * time.Second)
	got := make(chan apiv1.Event, 1)
	go func() {
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var ev apiv1.Event
				if json.Unmarshal([]byte(data), &ev) == nil {
					got <- ev
					return
				}
			}
		}
	}()
	select {
	case ev := <-got:
		if ev.Name != "analyze.verdict" {
			t.Errorf("event name %q, want analyze.verdict", ev.Name)
		}
		if ev.Run != analyzeResp.RunID {
			t.Errorf("event run %q, want %q", ev.Run, analyzeResp.RunID)
		}
		if ev.Attrs["check"] == "" || ev.Attrs["verdict"] == "" {
			t.Errorf("verdict event missing attrs: %v", ev.Attrs)
		}
	case <-deadline:
		t.Fatal("no analyze.verdict event within deadline")
	}
}

// TestRunsAndTenantEndpoints: run history, per-run lookup, per-tenant
// lookup, version, healthz and metrics all answer.
func TestRunsAndTenantEndpoints(t *testing.T) {
	ts := newTestServer(t, Options{})
	paper := bwc.FormatPlatform(bwc.PaperExampleTree())
	var sub apiv1.SubmitResponse
	post(t, ts.URL+"/api/v1/platforms", apiv1.SubmitRequest{Platform: paper}, &sub)

	var runs apiv1.RunsResponse
	getJSON(t, ts.URL+"/api/v1/runs", &runs)
	if len(runs.Runs) != 1 || runs.Runs[0].Kind != "submit" || runs.Runs[0].Status != apiv1.RunDone {
		t.Fatalf("runs = %+v, want one finished submit", runs.Runs)
	}
	var rec apiv1.RunRecord
	getJSON(t, ts.URL+"/api/v1/runs/"+runs.Runs[0].ID, &rec)
	if rec.Fingerprint != sub.Fingerprint {
		t.Errorf("run fingerprint %q, want %q", rec.Fingerprint, sub.Fingerprint)
	}
	resp, err := http.Get(ts.URL + "/api/v1/runs/r999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run: status %d, want 404", resp.StatusCode)
	}

	// A cold submit runs the solver and schedule layers at least once.
	var tenant apiv1.TenantStats
	getJSON(t, ts.URL+"/api/v1/platforms/"+sub.Fingerprint, &tenant)
	if tenant.Misses == 0 {
		t.Errorf("tenant stats misses = 0, want > 0 after a cold submit")
	}
	var ver apiv1.VersionResponse
	getJSON(t, ts.URL+"/api/v1/version", &ver)
	if ver.APIVersion != apiv1.Version || ver.Server != "bwschedd" {
		t.Errorf("version = %+v", ver)
	}
	var health apiv1.HealthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" || health.Sessions != 1 {
		t.Errorf("healthz = %+v", health)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(body), "bwschedd_cache_misses_total") {
		t.Errorf("metrics exposition missing cache counters:\n%s", body)
	}
	dresp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	dbody, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if !strings.Contains(string(dbody), "bwschedd") {
		t.Error("dashboard does not render")
	}
}

// TestSimulateAndAdaptiveEndpoints drives the simulation and adaptive
// wire surfaces end to end on a small platform.
func TestSimulateAndAdaptiveEndpoints(t *testing.T) {
	ts := newTestServer(t, Options{})
	paper := bwc.FormatPlatform(bwc.PaperExampleTree())

	var sim apiv1.SimulateResponse
	r := post(t, ts.URL+"/api/v1/simulate",
		apiv1.SimulateRequest{Platform: paper, Periods: 2, Analyze: true}, &sim)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d", r.StatusCode)
	}
	if sim.Completed == 0 || sim.Throughput != "10/9" {
		t.Errorf("simulate = %+v", sim)
	}
	if sim.Report == nil || len(sim.Report.Checks) == 0 {
		t.Error("simulate with analyze carries no report")
	}

	var ad apiv1.AdaptiveResponse
	r = post(t, ts.URL+"/api/v1/adaptive", apiv1.AdaptiveRequest{
		Platform: paper,
		Stop:     "400",
		Faults:   []apiv1.FaultSpec{{At: "120", Kind: "degrade-link", Node: "P1", Value: "4"}},
	}, &ad)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("adaptive status %d", r.StatusCode)
	}
	if ad.Adaptations < 1 || !ad.Healed {
		t.Errorf("adaptive = %+v, want >=1 adaptation and healed", ad)
	}

	var env apiv1.Envelope
	r = post(t, ts.URL+"/api/v1/adaptive", apiv1.AdaptiveRequest{
		Platform: paper,
		Faults:   []apiv1.FaultSpec{{At: "120", Kind: "meteor-strike", Node: "P1"}},
	}, &env)
	if r.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != apiv1.CodeBadRequest {
		t.Errorf("unknown fault kind: status %d env %+v, want 400 bad_request", r.StatusCode, env.Error)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}
