package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bwc"
	apiv1 "bwc/api/v1"
)

// TestChurnKeepsTenantMemo: a /churn run simulates faults on a tenant's
// platform without changing it, so a byte-identical resubmission after
// the run is still a cache hit and the tenant saw no eviction.
func TestChurnKeepsTenantMemo(t *testing.T) {
	h := New(Options{}).Handler()
	paper := bwc.FormatPlatform(bwc.PaperExampleTree())
	first, _ := submit(t, h, apiv1.SubmitRequest{Platform: paper})
	if first.Cache != apiv1.CacheMiss {
		t.Fatalf("first submit cache = %q, want miss", first.Cache)
	}
	code, body := serve(t, h, "/churn", apiv1.ChurnRequest{Platform: paper, Seed: 6, Rate: 3, Duration: "600"})
	if code != http.StatusOK {
		t.Fatalf("churn status %d: %s", code, body)
	}
	var churn apiv1.ChurnResponse
	if err := json.Unmarshal(body, &churn); err != nil {
		t.Fatal(err)
	}
	if churn.Cycles == 0 {
		t.Fatal("churn run never re-solved, so it could not have touched the memo")
	}
	second, _ := submit(t, h, apiv1.SubmitRequest{Platform: paper})
	if second.Cache != apiv1.CacheHit {
		t.Fatalf("resubmit after /churn: cache = %q, want hit", second.Cache)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", apiv1.PathPrefix+"/stats", nil))
	var st apiv1.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	for _, ten := range st.Tenants {
		if ten.Fingerprint == first.Fingerprint && ten.Evictions != 0 {
			t.Fatalf("tenant stats %+v: simulated churn evicted the memo", ten)
		}
	}
}

// TestAdaptiveCrashRequests: repeated crash-fault /adaptive requests on
// one tenant each answer 200 with the exact pruned re-solve (BW-First on
// the paper's platform without P3's subtree).
func TestAdaptiveCrashRequests(t *testing.T) {
	h := New(Options{}).Handler()
	req := apiv1.AdaptiveRequest{
		Platform: bwc.FormatPlatform(bwc.PaperExampleTree()),
		Stop:     "600",
		Faults:   []apiv1.FaultSpec{{At: "100", Kind: "crash", Node: "P3"}},
	}
	for i := 0; i < 3; i++ {
		code, body := serve(t, h, "/adaptive", req)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, body)
		}
		var ad apiv1.AdaptiveResponse
		if err := json.Unmarshal(body, &ad); err != nil {
			t.Fatal(err)
		}
		if ad.Adaptations != 1 || ad.FinalThroughput != "13/12" || !ad.Healed {
			t.Fatalf("request %d: %+v, want 1 adaptation to 13/12, healed", i, ad)
		}
	}
}

// TestBodyCap: a request body over the 8 MiB cap is refused with the
// typed bad_request envelope naming the limit; a normal submit is
// unaffected.
func TestBodyCap(t *testing.T) {
	h := New(Options{}).Handler()
	valid, err := json.Marshal(apiv1.SubmitRequest{Platform: bwc.FormatPlatform(bwc.PaperExampleTree())})
	if err != nil {
		t.Fatal(err)
	}
	padded := append(bytes.Repeat([]byte(" "), 9<<20), valid...)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", apiv1.PathPrefix+"/platforms", bytes.NewReader(padded)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", rec.Code)
	}
	var env apiv1.Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != apiv1.CodeBadRequest || !strings.Contains(env.Error.Message, "8 MiB") {
		t.Fatalf("oversized body envelope %+v, want bad_request naming the 8 MiB limit", env.Error)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", apiv1.PathPrefix+"/platforms", bytes.NewReader(valid)))
	if rec.Code != http.StatusOK {
		t.Fatalf("normal submit: status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// TestChurnStreamsControllerEvents: a /churn run's SSE stream carries the
// controller's drift and swap events, tagged with the run's ID, between
// run.start and run.done.
func TestChurnStreamsControllerEvents(t *testing.T) {
	ts := newTestServer(t, Options{})
	const runID = "r000001" // a fresh server's first run
	resp, err := http.Get(ts.URL + apiv1.PathPrefix + "/events?run=" + runID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ": subscribed") {
		t.Fatalf("expected subscription handshake, got %q", sc.Text())
	}

	var churn apiv1.ChurnResponse
	post(t, ts.URL+apiv1.PathPrefix+"/churn", apiv1.ChurnRequest{
		Platform: bwc.FormatPlatform(bwc.PaperExampleTree()), Seed: 6, Rate: 3, Duration: "600",
	}, &churn)
	if churn.RunID != runID || churn.Cycles == 0 {
		t.Fatalf("churn run %q with %d cycles, want %s with at least one", churn.RunID, churn.Cycles, runID)
	}

	var names []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
			var ev apiv1.Event
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok && json.Unmarshal([]byte(data), &ev) == nil {
				names = append(names, ev.Name)
				if ev.Name == "run.done" {
					return
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("no run.done event within deadline")
	}
	count := map[string]int{}
	for _, n := range names {
		count[n]++
	}
	if count["drift"] == 0 || count["swap"] != churn.Cycles {
		t.Fatalf("stream %v: want drift events and one swap per cycle (%d)", names, churn.Cycles)
	}
}
