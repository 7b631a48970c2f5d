package server

import (
	"net/http"
	"slices"
	"strconv"

	apiv1 "bwc/api/v1"
	"bwc/internal/jsonw"
)

// writeAnswer sends an answer appended by AppendSubmit, AppendSimulate
// or AppendAnalyze: the bytes writeJSON's encoder writes for the same
// value (field order, omitempty, HTML-safe strings, the final newline),
// in one Write and, like writeJSON, with no Content-Length.
func writeAnswer(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// AppendSubmit appends the submit answer r. Its Deployment must already
// be indented one level deep (Schedule.AppendDeployment at depth 1). Its
// ThroughputFloat is finite: the root's bunch Ψ is at least the
// throughput, and Build refuses a Ψ beyond int64.
func AppendSubmit(b []byte, r *apiv1.SubmitResponse) []byte {
	b = slices.Grow(b, 512+len(r.Deployment))
	b = jsonw.String(append(b, "{\n  \"api_version\": "...), r.APIVersion)
	b = jsonw.String(append(b, ",\n  \"fingerprint\": "...), r.Fingerprint)
	b = jsonw.String(append(b, ",\n  \"cache\": "...), r.Cache)
	b = jsonw.String(append(b, ",\n  \"throughput\": "...), r.Throughput)
	b = jsonw.Float(append(b, ",\n  \"throughput_float\": "...), r.ThroughputFloat)
	if r.Quantized != "" {
		b = jsonw.String(append(b, ",\n  \"quantized\": "...), r.Quantized)
	}
	b = strconv.AppendInt(append(b, ",\n  \"nodes\": "...), int64(r.Nodes), 10)
	b = strconv.AppendInt(append(b, ",\n  \"visited\": "...), int64(r.Visited), 10)
	b = jsonw.String(append(b, ",\n  \"tree_period\": "...), r.TreePeriod)
	b = jsonw.String(append(b, ",\n  \"rootless_period\": "...), r.RootlessPeriod)
	b = jsonw.String(append(b, ",\n  \"startup_bound\": "...), r.StartupBound)
	b = append(append(b, ",\n  \"deployment\": "...), r.Deployment...)
	if r.ResultReturn {
		b = append(b, ",\n  \"result_return\": true"...)
	}
	if r.FoldedThroughput != "" {
		b = jsonw.String(append(b, ",\n  \"folded_throughput\": "...), r.FoldedThroughput)
	}
	return append(b, "\n}\n"...)
}

// AppendSimulate appends the simulate answer r.
func AppendSimulate(b []byte, r *apiv1.SimulateResponse) []byte {
	n := 0
	if r.Report != nil {
		n = len(r.Report.Checks)
	}
	b = jsonw.String(append(slices.Grow(b, 768+256*n), "{\n  \"api_version\": "...), r.APIVersion)
	b = jsonw.String(append(b, ",\n  \"fingerprint\": "...), r.Fingerprint)
	b = jsonw.String(append(b, ",\n  \"run_id\": "...), r.RunID)
	b = jsonw.String(append(b, ",\n  \"throughput\": "...), r.Throughput)
	b = jsonw.String(append(b, ",\n  \"stop_at\": "...), r.StopAt)
	b = strconv.AppendInt(append(b, ",\n  \"generated\": "...), int64(r.Generated), 10)
	b = strconv.AppendInt(append(b, ",\n  \"completed\": "...), int64(r.Completed), 10)
	if r.SteadyStart != "" {
		b = jsonw.String(append(b, ",\n  \"steady_start\": "...), r.SteadyStart)
	}
	b = strconv.AppendBool(append(b, ",\n  \"steady_ok\": "...), r.SteadyOK)
	b = jsonw.String(append(b, ",\n  \"wind_down\": "...), r.WindDown)
	b = strconv.AppendInt(append(b, ",\n  \"max_buffered\": "...), int64(r.MaxBuffered), 10)
	if r.Report != nil {
		b = appendReport(b, r.Report)
	}
	if r.ResultsReturned != 0 {
		b = strconv.AppendInt(append(b, ",\n  \"results_returned\": "...), int64(r.ResultsReturned), 10)
	}
	return append(b, "\n}\n"...)
}

// AppendAnalyze appends the analyze answer r.
func AppendAnalyze(b []byte, r *apiv1.AnalyzeResponse) []byte {
	b = jsonw.String(append(slices.Grow(b, 512+256*len(r.Report.Checks)), "{\n  \"api_version\": "...), r.APIVersion)
	b = jsonw.String(append(b, ",\n  \"fingerprint\": "...), r.Fingerprint)
	b = jsonw.String(append(b, ",\n  \"run_id\": "...), r.RunID)
	return append(appendReport(b, &r.Report), "\n}\n"...)
}

// appendReport appends the "report" member of a top-level answer.
func appendReport(b []byte, r *apiv1.Report) []byte {
	b = strconv.AppendBool(append(b, ",\n  \"report\": {\n    \"healthy\": "...), r.Healthy)
	b = strconv.AppendInt(append(b, ",\n    \"passed\": "...), int64(r.Passed), 10)
	b = strconv.AppendInt(append(b, ",\n    \"failed\": "...), int64(r.Failed), 10)
	b = strconv.AppendInt(append(b, ",\n    \"skipped\": "...), int64(r.Skipped), 10)
	b = append(b, ",\n    \"checks\": ["...)
	for i := range r.Checks {
		c := &r.Checks[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonw.String(append(b, "\n      {\n        \"name\": "...), c.Name)
		b = jsonw.String(append(b, ",\n        \"verdict\": "...), c.Verdict)
		b = jsonw.String(append(b, ",\n        \"detail\": "...), c.Detail)
		b = append(b, "\n      }"...)
	}
	if len(r.Checks) > 0 { // never nil: wireReport makes the slice, so empty is "[]"
		b = append(b, "\n    "...)
	}
	return append(b, "]\n  }"...)
}
