package main

import (
	"encoding/json"
	"strings"
	"testing"

	"bwc"
	apiv1 "bwc/api/v1"
)

func TestPercentileRule(t *testing.T) {
	if got := minSamplesFor(99, 10); got != 1000 {
		t.Fatalf("minSamplesFor(99, 10) = %d, want 1000", got)
	}
	if got := beyond(1000, 99); got != 10 {
		t.Fatalf("beyond(1000, 99) = %d, want 10", got)
	}
	if got := beyond(999, 99); got >= 10 {
		t.Fatalf("beyond(999, 99) = %d, want fewer than 10", got)
	}
	if beyond(roundSize, 99) < 10 {
		t.Fatalf("a round of %d leaves fewer than ten samples beyond p99", roundSize)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
	for _, w := range workloads {
		if w.timed%roundSize != 0 || w.timed == 0 {
			t.Errorf("%s: %d timed requests are not whole rounds of %d", w.name, w.timed, roundSize)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, 40)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, 40)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest || a.maxPsi != b.maxPsi {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a.digest, b.digest)
		}
		if a.maxPsi > w.psiBound {
			t.Errorf("%s: admitted Ψ %d above the bound %d", w.name, a.maxPsi, w.psiBound)
		}
		c, err := generate(w, 8, 40)
		if err != nil {
			t.Fatal(err)
		}
		if c.digest == a.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
	}
}

// respond renders the response a correct daemon gives to r, after mutate
// has had its way with it.
func respond(t *testing.T, r *request, mutate func(any)) []byte {
	t.Helper()
	var v any
	switch r.op {
	case opSubmit:
		resp := &apiv1.SubmitResponse{Throughput: r.want.throughput, Nodes: r.want.nodes,
			Cache: r.want.markers[0], Deployment: json.RawMessage(`{}`)}
		v = resp
	case opSimulate:
		resp := &apiv1.SimulateResponse{Throughput: r.want.throughput, Completed: r.want.completed,
			Generated: r.want.generated, Report: &apiv1.Report{Passed: r.want.passed, Failed: r.want.failed}}
		v = resp
	}
	if mutate != nil {
		mutate(v)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOracleRejectsTamperedResponses(t *testing.T) {
	hot, err := workloadByName("submit-hot")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := workloadByName("simulate-analyze")
	if err != nil {
		t.Fatal(err)
	}
	var reqs []request
	for _, w := range []*workload{hot, sim} {
		in, err := generate(w, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, in.timed[0])
	}
	submit, simulate := &reqs[0], &reqs[1]

	for _, r := range reqs {
		if err := check(&r, 200, respond(t, &r, nil)); err != nil {
			t.Fatalf("%s: a correct response was rejected: %v", opPaths[r.op], err)
		}
		if err := check(&r, 500, respond(t, &r, nil)); err == nil {
			t.Errorf("%s: an HTTP 500 was accepted", opPaths[r.op])
		}
	}
	tampered := map[string]struct {
		r      *request
		mutate func(any)
	}{
		"throughput":   {submit, func(v any) { v.(*apiv1.SubmitResponse).Throughput += "1" }},
		"cache marker": {submit, func(v any) { v.(*apiv1.SubmitResponse).Cache = apiv1.CacheMiss }},
		"node count":   {submit, func(v any) { v.(*apiv1.SubmitResponse).Nodes++ }},
		"deployment":   {submit, func(v any) { v.(*apiv1.SubmitResponse).Deployment = nil }},
		"completed":    {simulate, func(v any) { v.(*apiv1.SimulateResponse).Completed++ }},
		"zero tasks":   {simulate, func(v any) { v.(*apiv1.SimulateResponse).Completed = 0 }},
		"no report":    {simulate, func(v any) { v.(*apiv1.SimulateResponse).Report = nil }},
		"verdicts":     {simulate, func(v any) { v.(*apiv1.SimulateResponse).Report.Failed++ }},
	}
	for name, tc := range tampered {
		if err := check(tc.r, 200, respond(t, tc.r, tc.mutate)); err == nil {
			t.Errorf("tampered %s was accepted", name)
		}
	}
}

func TestDriftOneLinkDoublesTheLastLink(t *testing.T) {
	d, err := driftOneLink("# name parent comm proc\nP0 - - 9\nP1 P0 1/2 8\nP2 P0 3 inf\nP3 P1 1/3 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := bwc.FormatPlatform(d); !strings.Contains(got, "P3 P1 2/3 2") || d.Len() != 4 {
		t.Fatalf("drifted platform:\n%s", got)
	}
}
