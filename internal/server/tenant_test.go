package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bwc"
	apiv1 "bwc/api/v1"
	"bwc/internal/benchfix"
)

// serve runs one JSON request through h in process and returns the
// status and raw response body.
func serve(t testing.TB, h http.Handler, path string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", apiv1.PathPrefix+path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// submit sends a submit request and decodes the 200 response.
func submit(t testing.TB, h http.Handler, req apiv1.SubmitRequest) (apiv1.SubmitResponse, []byte) {
	t.Helper()
	code, body := serve(t, h, "/platforms", req)
	if code != http.StatusOK {
		t.Fatalf("submit status %d: %s", code, body)
	}
	var resp apiv1.SubmitResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestGhostReprimeDeterministic: one submit sequence mixing same-size
// star and chain platforms, sent to several fresh servers, yields one
// cache-marker sequence. Two-node platforms in between evict without
// consuming a ghost, so star and chain ghosts of the same size pile up;
// which one a cold miss tries decides whether it re-primes, and the
// most-recent-first walk makes that choice a function of the sequence
// alone.
func TestGhostReprimeDeterministic(t *testing.T) {
	var seq []string
	for c := 1; c <= 6; c++ {
		seq = append(seq,
			fmt.Sprintf("S0 - - 5\nS1 S0 %d 3\nS2 S0 2 4\nS3 S0 3 2\n", c),
			fmt.Sprintf("C0 - - 5\nC1 C0 %d 3\nC2 C1 2 4\nC3 C2 3 2\n", c),
			fmt.Sprintf("T0 - - 4\nT1 T0 %d 2\n", 2*c),
			fmt.Sprintf("T0 - - 4\nT1 T0 %d 2\n", 2*c+1))
	}
	var first []string
	for run := 0; run < 8; run++ {
		h := New(Options{MaxSessions: 2}).Handler()
		var markers []string
		for _, p := range seq {
			resp, _ := submit(t, h, apiv1.SubmitRequest{Platform: p})
			markers = append(markers, resp.Cache)
		}
		if run == 0 {
			first = markers
			continue
		}
		if strings.Join(markers, " ") != strings.Join(first, " ") {
			t.Fatalf("server %d markers %v, server 0 %v", run, markers, first)
		}
	}
}

// TestReturnPlatformHitBody: on a result-return platform a hit costs
// what a forward hit costs (the folded throughput is rendered once per
// schedule), and its body equals the miss body except for the cache
// marker.
func TestReturnPlatformHitBody(t *testing.T) {
	h := New(Options{}).Handler()
	req := apiv1.SubmitRequest{Platform: bwc.FormatPlatform(bwc.PaperExampleTree()), UniformReturn: "1/2"}
	miss, missBody := submit(t, h, req)
	hit, hitBody := submit(t, h, req)
	if miss.Cache != apiv1.CacheMiss || hit.Cache != apiv1.CacheHit {
		t.Fatalf("markers %q/%q, want miss/hit", miss.Cache, hit.Cache)
	}
	if !hit.ResultReturn || hit.FoldedThroughput == "" {
		t.Fatalf("return platform hit lacks result_return/folded_throughput: %s", hitBody)
	}
	asHit := bytes.Replace(missBody, []byte(`"cache": "miss"`), []byte(`"cache": "hit"`), 1)
	if !bytes.Equal(asHit, hitBody) {
		t.Fatalf("hit body differs from miss body beyond the cache marker:\nmiss %s\nhit  %s", missBody, hitBody)
	}
}

// TestTextIndex: a byte-identical resubmission resolves through the text
// index; the same platform with different whitespace takes the parse
// path and returns the identical body; the index never holds more keys
// than there are live tenants; an evicted tenant's text is dropped, so
// its resubmission re-primes from the ghost instead of hitting.
func TestTextIndex(t *testing.T) {
	srv := New(Options{MaxSessions: 2})
	h := srv.Handler()
	checkBound := func() {
		t.Helper()
		srv.shard.mu.Lock()
		defer srv.shard.mu.Unlock()
		if len(srv.shard.texts) > len(srv.shard.entries) {
			t.Fatalf("%d text keys for %d live tenants", len(srv.shard.texts), len(srv.shard.entries))
		}
		for key, e := range srv.shard.texts {
			if srv.shard.entries[e.fp] != e || e.text != key {
				t.Fatalf("text key for %s does not point at its live tenant", fpLabel(e.fp))
			}
		}
	}
	spaced := strings.ReplaceAll(platA, " ", "  ")
	if _, body := submit(t, h, apiv1.SubmitRequest{Platform: platA}); !bytes.Contains(body, []byte(`"cache": "miss"`)) {
		t.Fatalf("first submit not a miss: %s", body)
	}
	checkBound()
	textHit, textBody := submit(t, h, apiv1.SubmitRequest{Platform: platA})
	parsed, parsedBody := submit(t, h, apiv1.SubmitRequest{Platform: spaced})
	if textHit.Cache != apiv1.CacheHit || !bytes.Equal(textBody, parsedBody) {
		t.Fatalf("text hit and parse path differ:\ntext  %s\nparse %s", textBody, parsedBody)
	}
	if _, ok := srv.shard.ByText(textKey{spaced, ""}); ok {
		t.Fatal("a second text for a live tenant was indexed")
	}
	checkBound()

	for _, p := range []string{platB, platC, platB + "\n", platC} {
		submit(t, h, apiv1.SubmitRequest{Platform: p})
		checkBound()
	}
	if _, ok := srv.shard.ByText(textKey{platA, ""}); ok {
		t.Fatal("evicted tenant's text still indexed")
	}
	back, _ := submit(t, h, apiv1.SubmitRequest{Platform: platA})
	if back.Cache != apiv1.CacheReprimed || back.Fingerprint != parsed.Fingerprint {
		t.Fatalf("resubmitted evicted text: cache %q fp %s, want reprimed %s", back.Cache, back.Fingerprint, parsed.Fingerprint)
	}
	checkBound()
}

// TestPlatformErrorFirst: every handler that takes a platform reports a
// malformed platform before any malformed field (not_a_tree, exit 4),
// and a valid platform with a malformed field gets the field's
// bad_request without admitting or touching a tenant, so the rejected
// request leaves the LRU order as it was.
func TestPlatformErrorFirst(t *testing.T) {
	const bad = "P0 - - 9\nP1 NOPE 1 2\n"
	reqs := []struct {
		path string
		req  func(platform string) any
	}{
		{"/simulate", func(p string) any { return apiv1.SimulateRequest{Platform: p, Stop: "x"} }},
		{"/analyze", func(p string) any { return apiv1.AnalyzeRequest{Platform: p, Stop: "x"} }},
		{"/adaptive", func(p string) any { return apiv1.AdaptiveRequest{Platform: p, Stop: "x"} }},
		{"/churn", func(p string) any { return apiv1.ChurnRequest{Platform: p, Duration: "x"} }},
	}
	code := func(body []byte) apiv1.ErrorCode {
		var env apiv1.Envelope
		if json.Unmarshal(body, &env) != nil || env.Error == nil {
			t.Fatalf("no error envelope: %s", body)
		}
		return env.Error.Code
	}
	for _, r := range reqs {
		srv := New(Options{MaxSessions: 2})
		h := srv.Handler()
		if status, body := serve(t, h, r.path, r.req(bad)); status != http.StatusUnprocessableEntity || code(body) != apiv1.CodeNotATree {
			t.Fatalf("%s bad platform and field: status %d %s, want 422 not_a_tree", r.path, status, body)
		}
		if status, body := serve(t, h, r.path, r.req(platC)); status != http.StatusBadRequest || code(body) != apiv1.CodeBadRequest {
			t.Fatalf("%s bad field: status %d %s, want 400 bad_request", r.path, status, body)
		}
		if n := srv.shard.Len(); n != 0 {
			t.Fatalf("%s: a rejected request admitted %d tenants", r.path, n)
		}
		// platA then platB are live, platA least recent. A rejected
		// request on platA's text must not make it most recent, so the
		// next admission still evicts platA.
		a, _ := submit(t, h, apiv1.SubmitRequest{Platform: platA})
		b, _ := submit(t, h, apiv1.SubmitRequest{Platform: platB})
		serve(t, h, r.path, r.req(platA))
		submit(t, h, apiv1.SubmitRequest{Platform: platC})
		if _, ok := srv.shard.Tenant(a.Fingerprint); ok {
			t.Fatalf("%s: a rejected request moved its tenant to the LRU front", r.path)
		}
		if _, ok := srv.shard.Tenant(b.Fingerprint); !ok {
			t.Fatalf("%s: the most recent tenant was evicted", r.path)
		}
	}
}

// TestTenantConcurrent drives submits and simulates of repeated and
// distinct texts from many goroutines at once (run under -race) through
// a shard too small for the working set: every answer matches a fresh
// solve or simulation of its platform.
func TestTenantConcurrent(t *testing.T) {
	h := New(Options{MaxSessions: 3}).Handler()
	texts := []string{platA, platB, platC, platAMut, strings.ReplaceAll(platC, " ", "\t")}
	type want struct {
		throughput string
		completed  int
	}
	wants := make([]want, len(texts))
	for i, text := range texts {
		tr := mustParse(t, text)
		run, err := bwc.NewSession().Simulate(tr, bwc.WithTasks(12))
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want{bwc.Solve(tr).Throughput.String(), run.Stats.Completed}
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(texts)
				if (g+i)%3 == 0 {
					code, body := serve(t, h, "/simulate", apiv1.SimulateRequest{Platform: texts[k], Tasks: 12})
					var resp apiv1.SimulateResponse
					if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || resp.Completed != wants[k].completed {
						t.Errorf("simulate %d: status %d body %s, want %d completed", k, code, body, wants[k].completed)
						return
					}
					continue
				}
				code, body := serve(t, h, "/platforms", apiv1.SubmitRequest{Platform: texts[k]})
				var resp apiv1.SubmitResponse
				if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || resp.Throughput != wants[k].throughput {
					t.Errorf("submit %d: status %d body %s, want throughput %s", k, code, body, wants[k].throughput)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSubmitHitAllocs bounds the heap allocations of one submit hit
// through the full handler. A hit resolves its tenant by text and reuses
// the rendered wire fields, so it must not parse, fingerprint, re-render
// the deployment or fold the platform: that path costs over a thousand
// allocations on this platform. The ceiling is the measured 60 plus
// slack.
func TestSubmitHitAllocs(t *testing.T) {
	h := New(Options{}).Handler()
	body, err := json.Marshal(apiv1.SubmitRequest{Platform: bwc.FormatPlatform(bwc.PaperExampleTree()), UniformReturn: "1/2"})
	if err != nil {
		t.Fatal(err)
	}
	hit := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", apiv1.PathPrefix+"/platforms", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	hit() // the miss that primes the tenant
	allocs := testing.AllocsPerRun(50, hit)
	t.Logf("%.0f allocs per submit hit", allocs)
	if allocs > 80 {
		t.Fatalf("%.0f allocs per submit hit", allocs)
	}
}

// TestSimulateAnalyzeAllocs bounds the heap allocations of one simulate
// request with analyze for a primed tenant through the full handler, on
// the Analyze stage fixture (16 nodes, 120 tasks). The analyzer indexes
// the run's trace by position and builds no span, the event heap holds
// pointer-free typed records, the engine's queues keep their storage and
// the schedule's periods are computed once, so an allocation per
// interval or per event would add hundreds. The ceiling is the measured
// 383 (1,295 before typed events) plus slack.
func TestSimulateAnalyzeAllocs(t *testing.T) {
	h := New(Options{}).Handler()
	body, err := json.Marshal(apiv1.SimulateRequest{
		Platform: bwc.FormatPlatform(benchfix.Analyze16()),
		Tasks:    benchfix.AnalyzeTasks,
		Analyze:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	simulate := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", apiv1.PathPrefix+"/simulate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	simulate() // the miss that primes the tenant
	allocs := testing.AllocsPerRun(10, simulate)
	t.Logf("%.0f allocs per simulate with analyze", allocs)
	if allocs > 450 {
		t.Fatalf("%.0f allocs per simulate with analyze", allocs)
	}
}
