package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
