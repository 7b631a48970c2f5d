package analyze

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"bwc/internal/obs"
	"bwc/internal/trace"
)

// Evidence is the raw material of an analysis: what a run did and, when
// analyzing a live run, its metric snapshot. What the run did is either
// the simulator's record of it (FromRun), read in place, or spans: those
// of a live scope (FromScope) or of an exporter's file (ReadEvidence,
// which has no metrics).
type Evidence struct {
	Spans   []obs.Span
	Metrics []obs.Metric
	// rec is the record of FromRun evidence (or a clip of it); Spans is
	// then empty.
	rec *trace.Trace
}

// FromScope snapshots a live scope. A nil/disabled scope yields empty
// evidence (every check will SKIP).
func FromScope(sc *obs.Scope) *Evidence {
	if !sc.Enabled() {
		return &Evidence{}
	}
	return &Evidence{Spans: sc.Spans(), Metrics: sc.Registry().Snapshot()}
}

// FromRun reads a simulated run's record in place, building no span;
// its report equals FromScope's on the same observed run. sc, the scope
// the run was observed with, supplies the metrics; without it the
// counter-based checks SKIP.
func FromRun(tr *trace.Trace, sc *obs.Scope) *Evidence {
	ev := &Evidence{rec: tr}
	if sc.Enabled() {
		ev.Metrics = sc.Registry().Snapshot()
	}
	return ev
}

// ReadEvidence reads offline evidence from r, accepting either of the two
// formats the exporters write: a Chrome trace-event JSON document
// (Scope.WriteChromeTrace) or span-tagged JSONL (Scope.WriteSpansJSONL,
// possibly interleaved with streaming event lines). The format is sniffed
// from the content: a single JSON object with a traceEvents member is a
// Chrome trace, anything else is treated as JSONL.
func ReadEvidence(r io.Reader) (*Evidence, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if isChromeTrace(data) {
		spans, err := obs.ReadChromeTraceSpans(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return &Evidence{Spans: spans}, nil
	}
	spans, err := obs.ReadSpansJSONL(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("analyze: no spans found (expected a Chrome trace or span-tagged JSONL)")
	}
	return &Evidence{Spans: spans}, nil
}

// isChromeTrace reports whether data is one JSON object with a
// traceEvents member. JSONL files also start with '{', but each line is a
// small object without that member, so decoding the first value settles
// it.
func isChromeTrace(data []byte) bool {
	var probe struct {
		TraceEvents *json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&probe); err != nil {
		return false
	}
	return probe.TraceEvents != nil
}
