package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"bwc"
	apiv1 "bwc/api/v1"
	"bwc/internal/treegen"
)

// encodeReflective is writeJSON's encoding of v: the oracle the
// appended answers are compared with.
func encodeReflective(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// answerTypes maps each appended answer's path to its response type.
var answerTypes = map[string]func() any{
	"/platforms": func() any { return new(apiv1.SubmitResponse) },
	"/simulate":  func() any { return new(apiv1.SimulateResponse) },
	"/analyze":   func() any { return new(apiv1.AnalyzeResponse) },
}

// checkAnswer checks one answer of the handler: a 2xx body is the
// reflective encoding of the value it decodes to, and any other body is
// a typed envelope whose code, status and exit code come from the one
// code table.
func checkAnswer(t testing.TB, path string, rec *httptest.ResponseRecorder) {
	t.Helper()
	body := rec.Body.Bytes()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q", path, ct)
	}
	if rec.Code/100 != 2 {
		var env apiv1.Envelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
			t.Fatalf("%s: HTTP %d without an envelope: %s", path, rec.Code, body)
		}
		e := env.Error
		known := false
		for _, c := range []apiv1.ErrorCode{
			apiv1.CodeBadRequest, apiv1.CodeNotFound, apiv1.CodeNotATree, apiv1.CodeInfeasible,
			apiv1.CodeScheduleStale, apiv1.CodeAdaptTimeout, apiv1.CodePerfRegression,
			apiv1.CodeChurnCollapse, apiv1.CodeDaemonUnreachable, apiv1.CodeInternal,
		} {
			known = known || e.Code == c
		}
		if !known || e.Code.HTTPStatus() != rec.Code || e.ExitCode != e.Code.ExitCode() {
			t.Fatalf("%s: HTTP %d carries %+v", path, rec.Code, e)
		}
		return
	}
	v := answerTypes[path]()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s: %v in\n%s", path, err, body)
	}
	if want := encodeReflective(t, v); !bytes.Equal(body, want) {
		t.Fatalf("%s: appended\n%s\nreflective\n%s", path, body, want)
	}
}

// TestAnswersMatchEncoder: over every treegen family at n ∈ {1, 2, 8,
// 33}, seeds 1–3, forward and uniform_return 1/2, the submit answers
// (interleaved and block, plain and quantized, miss and hit) and the
// simulate answers (with and without analyze), and analyze answers up
// to n = 8, are the reflective encoding of the values they decode to.
func TestAnswersMatchEncoder(t *testing.T) {
	h := New(Options{MaxSessions: 8}).Handler()
	n200 := 0
	send := func(path string, req any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", apiv1.PathPrefix+path, bytes.NewReader(body)))
		checkAnswer(t, path, rec)
		if rec.Code == http.StatusOK {
			n200++
		}
	}
	for _, k := range treegen.Kinds {
		for _, n := range []int{1, 2, 8, 33} {
			for seed := int64(1); seed <= 3; seed++ {
				text := bwc.FormatPlatform(treegen.Generate(k, n, seed))
				for _, ret := range []string{"", "1/2"} {
					for _, block := range []bool{false, true} {
						for _, q := range []int64{0, 0, 64} {
							send("/platforms", apiv1.SubmitRequest{Platform: text, Block: block, Quantize: q, UniformReturn: ret})
						}
					}
					for _, analyze := range []bool{false, true} {
						send("/simulate", apiv1.SimulateRequest{Platform: text, Tasks: 40, Analyze: analyze, UniformReturn: ret})
					}
				}
				if n <= 8 {
					send("/analyze", apiv1.AnalyzeRequest{Platform: text, Stop: "60"})
				}
			}
		}
	}
	if n200 < 1400 { // of 1,407 requests
		t.Fatalf("only %d answers were 200", n200)
	}
}

// TestAppendersEscapeLikeEncoder: strings the wire cannot deliver in a
// request, such as invalid UTF-8 and U+2028, are escaped by the
// appenders exactly as the reflective encoder escapes them.
func TestAppendersEscapeLikeEncoder(t *testing.T) {
	odd := "a<b>&\"c\\\x01\xff\xe2\x80\xa8α→χ\x7f"
	rep := apiv1.Report{Healthy: true, Passed: 1, Checks: []apiv1.Verdict{{Name: odd, Verdict: "PASS", Detail: odd}}}
	sim := apiv1.SimulateResponse{APIVersion: odd, Fingerprint: odd, RunID: odd, Throughput: odd, StopAt: odd,
		SteadyStart: odd, WindDown: odd, Report: &rep, ResultsReturned: 3}
	sub := apiv1.SubmitResponse{APIVersion: odd, Fingerprint: odd, Cache: odd, Throughput: odd, ThroughputFloat: 1e-7,
		Quantized: odd, TreePeriod: odd, RootlessPeriod: odd, StartupBound: odd, Deployment: json.RawMessage("null"),
		ResultReturn: true, FoldedThroughput: odd}
	for _, c := range []struct {
		got []byte
		v   any
	}{
		{AppendSimulate(nil, &sim), sim},
		{AppendSubmit(nil, &sub), sub},
		{AppendAnalyze(nil, &apiv1.AnalyzeResponse{RunID: odd, Report: apiv1.Report{Checks: []apiv1.Verdict{}}}),
			apiv1.AnalyzeResponse{RunID: odd, Report: apiv1.Report{Checks: []apiv1.Verdict{}}}},
	} {
		if want := encodeReflective(t, c.v); !bytes.Equal(c.got, want) {
			t.Fatalf("appended\n%s\nreflective\n%s", c.got, want)
		}
	}
}

// FuzzServe feeds POST bodies to the platforms, simulate and analyze
// endpoints of a fresh server, twice each. Nothing panics, every answer
// passes checkAnswer, and a submit hit's body is its miss's with only
// the cache value swapped. Simulate and analyze bodies that ask for a
// run beyond 32 nodes or 1,000 tasks are skipped: their cost grows with
// the run, not the answer.
func FuzzServe(f *testing.F) {
	paper := bwc.FormatPlatform(bwc.PaperExampleTree())
	seti := bwc.FormatPlatform(treegen.Generate(treegen.SETI, 16, 7))
	star := "M - - inf\nP1 M 1/2 1 1/2\nP2 M 1/2 1 1/2\n"
	odd := "r<&> - - 1\nh\xffi r<&> 1/8 1\né r<&> 1/4 2\nN&2 r<&> 1/3 1\n"
	js := func(v any) string {
		b, _ := json.Marshal(v)
		return string(b)
	}
	for _, s := range []struct {
		path byte
		body string
	}{
		{0, js(apiv1.SubmitRequest{Platform: seti})},
		{0, js(apiv1.SubmitRequest{Platform: seti, UniformReturn: "1/2"})},
		{0, js(apiv1.SubmitRequest{Platform: paper, Block: true, Quantize: 16})},
		{0, js(apiv1.SubmitRequest{Platform: star})},
		{0, js(apiv1.SubmitRequest{Platform: odd})},
		{0, `{"platform": "` + "r<&> - - 1\\nh\xffi r<&> 1/8 1\\n" + `"}`},
		{0, `{"PLATFORM": "P0 - - 2\nP1 P0 1 1\n", "Block": true, "Uniform_Return": "1/4", "quantize": 8, "extra": {"a": [1]}}`},
		{0, `{"platform": "P0 - - 1p10000000\n"}`},
		{0, `{"platform": "P0 - - 1e-320\n"}`},
		{0, `{"platform": "P0 - - 1\nP1 P0 1 1\n", "uniform_return": "1e999999"}`},
		{0, `{"platform": 7}`},
		{0, `{"platform": "P0 - - 1\n"} trailing`},
		{1, js(apiv1.SimulateRequest{Platform: seti, Tasks: 120, Analyze: true})},
		{1, js(apiv1.SimulateRequest{Platform: paper, Stop: "200", Analyze: true})},
		{1, js(apiv1.SimulateRequest{Platform: star, Tasks: 40, Analyze: true})},
		{1, js(apiv1.SimulateRequest{Platform: paper, UniformReturn: "1/2", Periods: 1})},
		{1, js(apiv1.SimulateRequest{Platform: odd, Tasks: 30, Analyze: true, Block: true})},
		{1, `{"Platform": "P0 - - 1\nP1 P0 1 1\n", "STOP": "12", "Analyze": true, "unknown": null}`},
		{1, `{"platform": "P0 - - 1\n", "stop": "1e999999"}`},
		{2, js(apiv1.AnalyzeRequest{Platform: paper})},
		{2, js(apiv1.AnalyzeRequest{Platform: odd, Block: true, Stop: "40"})},
		{2, `{"platform": "P0 - - 1\nP1 NOPE 1 2\n"}`},
	} {
		f.Add(s.path, []byte(s.body))
	}
	paths := []string{"/platforms", "/simulate", "/analyze"}
	f.Fuzz(func(t *testing.T, sel byte, body []byte) {
		path := paths[int(sel)%len(paths)]
		if !smallRun(path, body) {
			return
		}
		h := New(Options{}).Handler()
		var first []byte
		for i := 0; i < 2; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", apiv1.PathPrefix+path, bytes.NewReader(body)))
			checkAnswer(t, path, rec)
			if path != "/platforms" || rec.Code != http.StatusOK {
				continue
			}
			if i == 0 {
				first = rec.Body.Bytes()
			} else if want := bytes.Replace(first, []byte(`"cache": "miss"`), []byte(`"cache": "hit"`), 1); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("hit answer\n%s\nmiss answer\n%s", rec.Body.Bytes(), first)
			}
		}
	})
}

// smallRun reports whether a body for path asks for no run, for a run
// the handler refuses, or for a run of at most 32 nodes and 1,000
// tasks, reading its horizon as horizonOptions does.
func smallRun(path string, body []byte) bool {
	if path == "/platforms" {
		return true
	}
	var req apiv1.SimulateRequest
	if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
		return true
	}
	if path == "/analyze" {
		req = apiv1.SimulateRequest{Platform: req.Platform, Block: req.Block, Stop: req.Stop, Periods: req.Periods}
		if req.Stop == "" && req.Periods == 0 {
			req.Stop = "200"
		}
	}
	t, err := bwc.ParsePlatformString(req.Platform)
	if err != nil {
		return true
	}
	if t.Len() > 32 {
		return false
	}
	if req.UniformReturn != "" {
		d, err := bwc.ParseRat(req.UniformReturn)
		if err != nil {
			return true
		}
		if t, err = bwc.PlatformWithUniformResultReturn(t, d); err != nil {
			return true
		}
	}
	var opts []bwc.Option
	if req.Block {
		opts = append(opts, bwc.WithBlock())
	}
	res := bwc.Solve(t)
	s, err := bwc.BuildSchedule(res, opts...)
	if err != nil {
		return true
	}
	stop := bwc.RatInt(0)
	if req.Stop != "" {
		if stop, err = bwc.ParseRat(req.Stop); err != nil {
			return true
		}
	}
	periods := req.Periods
	switch {
	case stop.IsPos():
	case req.Tasks > 0:
		return req.Tasks <= 1000
	case periods <= 0:
		periods = 3
	}
	if !stop.IsPos() {
		stop = s.Nodes[t.Root()].TW.Mul(bwc.RatInt(int64(periods)))
	}
	return stop.Mul(res.Throughput).Float64() <= 1000
}
