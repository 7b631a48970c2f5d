package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bwc"
)

// captureStderr redirects stderr while fn runs and returns what was
// printed together with fn's return value.
func captureStderr(t *testing.T, fn func() int) (string, int) {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	outCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 1<<20)
		n := 0
		for {
			m, err := r.Read(buf[n:])
			n += m
			if err != nil {
				break
			}
		}
		outCh <- string(buf[:n])
	}()
	code := fn()
	w.Close()
	os.Stderr = old
	return <-outCh, code
}

// TestRunStructuredErrors: malformed input must produce a structured
// "bwsched: error:" line and a non-zero exit status — never a panic.
func TestRunStructuredErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("P0 - - 9\nP1 P0 nonsense 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr, code := captureStderr(t, func() int {
		return run([]string{"throughput", "-f", bad})
	})
	if code != 4 {
		t.Fatalf("exit code %d, want 4 (ErrNotATree)", code)
	}
	if !strings.HasPrefix(stderr, "bwsched: error: ") {
		t.Fatalf("stderr not structured: %q", stderr)
	}

	stderr, code = captureStderr(t, func() int {
		return run([]string{"no-such-command"})
	})
	if code != 2 {
		t.Fatalf("unknown command: exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `bwsched: error: unknown command "no-such-command"`) {
		t.Fatalf("unknown-command stderr: %q", stderr)
	}

	if _, code := captureStderr(t, func() int { return run(nil) }); code != 2 {
		t.Fatalf("no args: exit code %d, want 2", code)
	}

	// A missing file is an environment error, still structured.
	stderr, code = captureStderr(t, func() int {
		return run([]string{"verify", "-f", filepath.Join(t.TempDir(), "absent.txt")})
	})
	if code != 1 || !strings.HasPrefix(stderr, "bwsched: error: ") {
		t.Fatalf("missing file: code %d, stderr %q", code, stderr)
	}
}

// chromeTraceDoc mirrors the exported Chrome trace-event JSON.
type chromeTraceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Tid  int            `json:"tid"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestCmdObs runs the full observability pipeline on the paper's 12-node
// platform and cross-checks the exports against an independent solve.
func TestCmdObs(t *testing.T) {
	f := platformFile(t)
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.prom")
	traceOut := filepath.Join(dir, "t.json")
	logOut := filepath.Join(dir, "e.jsonl")

	out := capture(t, func() error {
		return cmdObs([]string{"-f", f, "-periods", "2",
			"-metrics", metrics, "-trace-out", traceOut, "-log-out", logOut})
	})
	if !strings.Contains(out, "throughput:  10/9") {
		t.Fatalf("summary missing throughput:\n%s", out)
	}

	// Independent ground truth.
	res := bwc.Solve(bwc.PaperExampleTree())
	dres := bwc.SolveDistributed(bwc.PaperExampleTree())

	// Prometheus export: the E9 counters must match the protocol result.
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"bwc_protocol_messages_total 16",
		"bwc_visited_nodes 8",
		`bwc_node_buffer_tasks{node="P0"}`,
		`bwc_node_buffer_max_tasks{node="P1"}`,
	} {
		if !strings.Contains(string(prom), frag) {
			t.Errorf("metrics missing %q:\n%s", frag, prom)
		}
	}
	if dres.Messages != 16 || dres.VisitedCount != 8 || 2*dres.VisitedCount != dres.Messages {
		t.Fatalf("ground truth drifted: %d messages, %d visited", dres.Messages, dres.VisitedCount)
	}

	// Chrome trace: valid JSON, one proto span per visited node, and
	// S/C/R tracks for nodes the schedule uses.
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeTraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	tracks := map[string]bool{}
	protoTx := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				tracks[ev.Args["name"].(string)] = true
			}
		case "X":
			if ev.Dur < 0 {
				t.Fatalf("negative duration on %q", ev.Name)
			}
		}
	}
	if !tracks["proto"] {
		t.Fatal("trace has no proto track")
	}
	for _, want := range []string{"P0/C", "P0/S", "P1/C", "P1/R", "des"} {
		if !tracks[want] {
			t.Errorf("trace missing track %q (have %v)", want, tracks)
		}
	}
	// Count proto transaction spans by re-walking the events (they all
	// live on the proto track's tid).
	protoTid := -1
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Args["name"] == "proto" {
			protoTid = ev.Tid
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Tid == protoTid {
			protoTx++
		}
	}
	if protoTx != res.VisitedCount {
		t.Errorf("%d proto spans, want one per visited node (%d)", protoTx, res.VisitedCount)
	}

	// JSONL event log: every line parses; the negotiate event is there.
	lines := strings.Split(strings.TrimSpace(string(mustRead(t, logOut))), "\n")
	sawNegotiate := false
	for _, ln := range lines {
		var ev struct {
			Name  string `json:"name"`
			Attrs []struct{ Key, Value string }
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		if ev.Name == "negotiate" {
			sawNegotiate = true
		}
	}
	if !sawNegotiate {
		t.Error("event log missing the negotiate event")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCmdObsMetricsStdout: "-metrics -" streams to stdout.
func TestCmdObsMetricsStdout(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error {
		return cmdObs([]string{"-f", f, "-periods", "1", "-metrics", "-"})
	})
	if !strings.Contains(out, "# TYPE bwc_protocol_messages_total counter") {
		t.Fatalf("stdout metrics missing exposition header:\n%s", out)
	}
}

// TestCmdExecuteWithMetrics exercises the live endpoint flag end to end.
func TestCmdExecuteWithMetrics(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error {
		return cmdExecute([]string{"-f", f, "-n", "10", "-scale", "50us", "-metrics", "127.0.0.1:0"})
	})
	if !strings.Contains(out, "metrics:  http://127.0.0.1:") {
		t.Fatalf("no live endpoint line:\n%s", out)
	}
	if !strings.Contains(out, "executed 10 tasks") {
		t.Fatalf("run did not complete:\n%s", out)
	}
}
