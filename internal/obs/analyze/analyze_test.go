package analyze

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/obs"
	"bwc/internal/paperexample"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/sim"
	"bwc/internal/trace"
	"bwc/internal/tree"
)

// paperRun solves and simulates the paper's example tree under
// observation, returning the schedule and the live scope.
func paperRun(t testing.TB, stop rat.R) (*sched.Schedule, *obs.Scope) {
	t.Helper()
	tr := paperexample.Tree()
	s, err := sched.Build(bwfirst.Solve(tr), sched.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sc := obs.New()
	if _, err := sim.Simulate(s, sim.Options{Stop: stop, Obs: sc}); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return s, sc
}

// TestPaperExampleConforms is the positive acceptance gate: a clean run
// of the paper's own example must pass every check, with no FAILs and
// the throughput estimator at ≥ 99% of η for every node.
func TestPaperExampleConforms(t *testing.T) {
	s, sc := paperRun(t, rat.FromInt(200))
	rep := Analyze(FromScope(sc), Options{Schedule: s, Stop: rat.FromInt(200)})

	if !rep.Healthy() {
		var buf bytes.Buffer
		rep.WriteText(&buf)
		t.Fatalf("clean paper run failed conformance:\n%s", buf.String())
	}
	if rep.Failed != 0 {
		t.Fatalf("Failed = %d, want 0", rep.Failed)
	}
	// Every substantive check must actually run (PASS, not SKIP) on a
	// fully observed simulator run with a schedule in hand.
	for _, name := range []string{
		"single-port", "throughput-conformance", "link-utilization",
		"buffer-watermark", "steady-state-onset", "startup-useful-work",
		"idle-while-backlogged", "compute-latency", "task-conservation",
	} {
		c := rep.Check(name)
		if c == nil {
			t.Fatalf("check %q missing from report", name)
		}
		if c.Verdict != Pass {
			t.Errorf("check %q: %s (%s), want PASS", name, c.Verdict, c.Detail)
		}
	}
	// The result-return check is the only legitimate SKIP on a
	// forward-only run; everything else must PASS.
	if c := rep.Check("result-return"); c == nil || c.Verdict != Skip {
		t.Errorf("result-return on a forward run: %+v, want SKIP", c)
	}
	if rep.Passed != len(rep.Checks)-1 {
		t.Errorf("Passed = %d of %d checks", rep.Passed, len(rep.Checks))
	}
}

// TestSeededFaultDetected is the negative acceptance gate: run the paper
// schedule, unchanged, against a platform where the P1→P4 link has
// doubled its communication time (3 → 6). The stale schedule keeps
// pushing η_{P1→P4} = 1/4 into a link that can now carry at most 1/6, so
// P1's send queue grows without bound (buffer-watermark must FAIL) and
// P4 — and P8 behind it — fall below their solver rate
// (throughput-conformance must FAIL).
func TestSeededFaultDetected(t *testing.T) {
	tr := paperexample.Tree()
	s, err := sched.Build(bwfirst.Solve(tr), sched.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p4 := tr.MustLookup("P4")
	slow, err := tr.WithCommTime(p4, rat.FromInt(6))
	if err != nil {
		t.Fatalf("WithCommTime: %v", err)
	}

	sc := obs.New()
	stop := rat.FromInt(360)
	_, err = sim.Simulate(s, sim.Options{Stop: stop, Physics: []sim.PhysicsChange{{Tree: slow}}, Obs: sc})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}

	rep := Analyze(FromScope(sc), Options{Schedule: s, Stop: stop})
	if rep.Healthy() {
		var buf bytes.Buffer
		rep.WriteText(&buf)
		t.Fatalf("degraded link went undetected:\n%s", buf.String())
	}
	for _, name := range []string{"throughput-conformance", "buffer-watermark"} {
		c := rep.Check(name)
		if c == nil || c.Verdict != Fail {
			t.Errorf("check %q: got %+v, want FAIL", name, c)
		}
	}
	// The failing throughput evidence must name the starved subtree.
	tc := rep.Check("throughput-conformance")
	joined := strings.Join(tc.Evidence, "\n")
	if !strings.Contains(joined, "P4") {
		t.Errorf("throughput evidence does not mention P4:\n%s", joined)
	}
}

// TestOfflineRoundTrip: verdicts must survive the JSONL and Chrome-trace
// exports — the offline `bwsched analyze` path sees the same spans the
// live scope held (metrics-only checks degrade to SKIP).
func TestOfflineRoundTrip(t *testing.T) {
	s, sc := paperRun(t, rat.FromInt(200))
	live := Analyze(FromScope(sc), Options{Schedule: s, Stop: rat.FromInt(200)})

	exports := map[string]func(*bytes.Buffer) error{
		"jsonl":  func(b *bytes.Buffer) error { return sc.WriteSpansJSONL(b) },
		"chrome": func(b *bytes.Buffer) error { return sc.WriteChromeTrace(b) },
	}
	for name, export := range exports {
		var buf bytes.Buffer
		if err := export(&buf); err != nil {
			t.Fatalf("%s export: %v", name, err)
		}
		ev, err := ReadEvidence(&buf)
		if err != nil {
			t.Fatalf("%s ReadEvidence: %v", name, err)
		}
		if len(ev.Spans) != sc.SpanCount() {
			t.Fatalf("%s: %d spans read, scope has %d", name, len(ev.Spans), sc.SpanCount())
		}
		rep := Analyze(ev, Options{Schedule: s, Stop: rat.FromInt(200)})
		if rep.Failed != 0 {
			var b bytes.Buffer
			rep.WriteText(&b)
			t.Fatalf("%s round-trip failed checks:\n%s", name, b.String())
		}
		for _, c := range live.Checks {
			got := rep.Check(c.Name)
			if c.Name == "task-conservation" {
				// Files carry no metrics; the counter check must SKIP
				// rather than guess.
				if got.Verdict != Skip {
					t.Errorf("%s: task-conservation = %s, want SKIP offline", name, got.Verdict)
				}
				continue
			}
			if got.Verdict != c.Verdict {
				t.Errorf("%s: %s = %s offline, %s live", name, c.Name, got.Verdict, c.Verdict)
			}
		}
	}
}

// TestOutOfOrderEvidence: a JSONL file whose span lines are permuted
// (and renumbered in their new order, since the reader orders spans by
// ID) must give the report the ordered file gives. One injected compute
// span overlaps a recorded one, so the fallback sort runs on both files
// and the single-port check fails. The analysis must leave the
// evidence's span order and contents untouched.
func TestOutOfOrderEvidence(t *testing.T) {
	s, sc := paperRun(t, rat.FromInt(200))
	var buf bytes.Buffer
	if err := sc.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var first obs.Span
	for _, sp := range sc.Spans() {
		if strings.HasSuffix(sp.Track, "/C") {
			first = sp
			break
		}
	}
	half := first.End.Sub(first.Start).Div(rat.Two)
	extra := obs.New()
	extra.AddSpan(obs.Span{Name: "compute", Track: first.Track, Start: first.Start.Add(half), End: first.End.Add(half)})
	var xb bytes.Buffer
	if err := extra.WriteSpansJSONL(&xb); err != nil {
		t.Fatal(err)
	}
	lines = append(lines, strings.TrimSpace(xb.String()))
	renumber := func(lines []string) string {
		var b strings.Builder
		for i, line := range lines {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			rec["id"] = i + 1
			out, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(out)
			b.WriteByte('\n')
		}
		return b.String()
	}
	opt := Options{Schedule: s, Stop: rat.FromInt(200)}
	report := func(text string) ([]byte, *Evidence) {
		ev, err := ReadEvidence(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		before := slices.Clone(ev.Spans)
		rep := Analyze(ev, opt)
		WindowStats(ev, WindowOptions{Schedule: s, Window: rat.FromInt(40), End: rat.FromInt(200)})
		if !reflect.DeepEqual(ev.Spans, before) {
			t.Fatal("Analyze or WindowStats changed the evidence's spans")
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b, ev
	}

	want, _ := report(renumber(lines))
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		perm := slices.Clone(lines)
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got, ev := report(renumber(perm))
		if startOrdered(ev) {
			t.Fatalf("trial %d: permuted evidence is still in start order per track", trial)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: permuted report\n%s\nordered report\n%s", trial, got, want)
		}
	}
	var rep HealthReport
	if err := json.Unmarshal(want, &rep); err != nil {
		t.Fatal(err)
	}
	if c := rep.Check("single-port"); c.Verdict != Fail || !strings.Contains(strings.Join(c.Evidence, "\n"), first.Track) {
		t.Fatalf("single-port = %+v, want a FAIL on %s", c, first.Track)
	}
}

// startOrdered reports whether every track's spans appear in ev in
// start order.
func startOrdered(ev *Evidence) bool {
	last := map[string]rat.R{}
	for _, sp := range ev.Spans {
		if prev, ok := last[sp.Track]; ok && sp.Start.Less(prev) {
			return false
		}
		last[sp.Track] = sp.Start
	}
	return true
}

// TestAnalyzeWithoutSchedule: schedule-free evidence still gets the
// single-port verdict; everything needing expected values skips.
func TestAnalyzeWithoutSchedule(t *testing.T) {
	_, sc := paperRun(t, rat.FromInt(40))
	rep := Analyze(FromScope(sc), Options{})
	if c := rep.Check("single-port"); c.Verdict != Pass {
		t.Errorf("single-port = %s (%s), want PASS", c.Verdict, c.Detail)
	}
	if c := rep.Check("throughput-conformance"); c.Verdict != Skip {
		t.Errorf("throughput-conformance = %s, want SKIP without a schedule", c.Verdict)
	}
	if rep.Failed != 0 {
		t.Errorf("Failed = %d without a schedule", rep.Failed)
	}
}

// TestSinglePortViolation: synthetic overlapping sends on one port track
// must fail the check, with the overlap in evidence, read from spans or
// from a run's record.
func TestSinglePortViolation(t *testing.T) {
	ev := &Evidence{Spans: []obs.Span{
		{Name: "send P1", Track: "P0/S", Start: rat.Zero, End: rat.FromInt(2)},
		{Name: "send P2", Track: "P0/S", Start: rat.One, End: rat.FromInt(3)},
		{Name: "send P3", Track: "P0/S", Start: rat.FromInt(3), End: rat.FromInt(4)}, // touching is fine
	}}
	rep := Analyze(ev, Options{})
	c := rep.Check("single-port")
	if c.Verdict != Fail {
		t.Fatalf("single-port = %s, want FAIL", c.Verdict)
	}
	if len(c.Evidence) != 1 || !strings.Contains(c.Evidence[0], "send P2") {
		t.Errorf("evidence = %v, want exactly the P2 overlap", c.Evidence)
	}

	// The same kind of activity as a run's record must read as its
	// spans do: tracks in name order ("P/C" before "Q/C", though Q is
	// node 1 and P node 2) and the simulator's span names.
	tr := tree.NewBuilder().
		Root("R", rat.One).
		Child("R", "Q", rat.One, rat.One).
		Child("R", "P", rat.One, rat.One).
		MustBuild()
	rec := &trace.Trace{Tree: tr, End: rat.FromInt(3)}
	var spans []obs.Span
	add := func(node tree.NodeID, kind trace.Kind, peer tree.NodeID, start int64, name string) {
		iv := trace.Interval{Node: node, Kind: kind, Start: rat.FromInt(start), End: rat.FromInt(start + 2), Peer: peer}
		rec.AddInterval(iv)
		spans = append(spans, obs.Span{Name: name, Track: tr.Name(node) + "/" + kind.String(), Start: iv.Start, End: iv.End})
	}
	for _, id := range []tree.NodeID{1, 2} {
		add(id, trace.Compute, tree.None, 0, "compute")
		add(id, trace.Compute, tree.None, 1, "compute")
	}
	add(0, trace.Send, 1, 0, "send Q")
	add(0, trace.Send, 2, 1, "send P")
	want := Analyze(&Evidence{Spans: spans}, Options{}).Check("single-port")
	got := Analyze(FromRun(rec, nil), Options{}).Check("single-port")
	if !reflect.DeepEqual(got, want) || len(got.Evidence) != 3 || !strings.HasPrefix(got.Evidence[0], "P/C") ||
		!strings.Contains(got.Evidence[2], `"send P"`) {
		t.Errorf("record evidence %+v, span evidence %+v", got, want)
	}
}

// nodeAnalysis indexes hand-built spans as the evidence of node 0: an
// analysis over exactly these receive, compute and send spans, each
// list given in start order.
func nodeAnalysis(recv, compute, send []obs.Span) *analysis {
	ev := &Evidence{}
	add := func(sps []obs.Span) []int32 {
		var pos []int32
		for _, sp := range sps {
			pos = append(pos, int32(len(ev.Spans)))
			ev.Spans = append(ev.Spans, sp)
		}
		return pos
	}
	ne := nodeEvid{recv: add(recv), compute: add(compute), send: add(send)}
	return &analysis{ev: ev, nodes: []nodeEvid{ne}}
}

// span is a bare [start, end] span.
func span(start, end int64) obs.Span {
	return obs.Span{Start: rat.FromInt(start), End: rat.FromInt(end)}
}

func TestWindowCounts(t *testing.T) {
	times := []rat.R{
		rat.MustParse("1/2"), rat.One, rat.MustParse("3/2"), // window 0: [0,2)
		rat.FromInt(2),                   // window 1
		rat.FromInt(5),                   // window 2
		rat.FromInt(6), rat.FromInt(100), // out of range
	}
	var sps []obs.Span
	for _, at := range times {
		sps = append(sps, obs.Span{Start: rat.Zero, End: at})
	}
	a := nodeAnalysis(nil, sps, nil)
	got := make([]int64, 3)
	a.windowCounts(got, a.nodes[0].compute, spanEnd, rat.FromInt(2))
	want := []int64{3, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowCounts = %v, want %v", got, want)
		}
	}
	// Starts are all 0: every span lands in window 0.
	got = make([]int64, 3)
	a.windowCounts(got, a.nodes[0].compute, spanStart, rat.FromInt(2))
	if got[0] != int64(len(times)) || got[1] != 0 || got[2] != 0 {
		t.Fatalf("start counts = %v, want [%d 0 0]", got, len(times))
	}
}

func TestSteadyOnset(t *testing.T) {
	cases := []struct {
		counts []int64
		quota  int64
		onset  int64
		ok     bool
	}{
		{[]int64{0, 2, 5, 5, 5}, 5, 2, true},
		{[]int64{5, 5, 5}, 5, 0, true},
		{[]int64{5, 5, 4}, 5, 3, false},
		{[]int64{0, 5, 0, 5}, 5, 3, true}, // relapse restarts the suffix
		{nil, 5, 0, false},
	}
	for i, c := range cases {
		onset, ok := steadyOnset(c.counts, c.quota)
		if onset != c.onset || ok != c.ok {
			t.Errorf("case %d: steadyOnset(%v, %d) = (%d, %v), want (%d, %v)",
				i, c.counts, c.quota, onset, ok, c.onset, c.ok)
		}
	}
}

func TestMaxHeld(t *testing.T) {
	// Two receives land before the first compute starts; the second
	// compute starts the instant its input arrives (never buffered).
	a := nodeAnalysis(
		[]obs.Span{span(0, 1), span(1, 2), span(4, 5)},
		[]obs.Span{span(3, 4), span(4, 5), span(5, 6)},
		nil)
	if got := maxHeld(a.held(0)); got != 2 {
		t.Fatalf("maxHeld = %d, want 2", got)
	}
}

// idleOf runs the idle sweep over node 0 of a.
func idleOf(a *analysis) rat.R {
	return backloggedIdleTime(a.held(0), a.busyCover(nil, &a.nodes[0]))
}

func TestBackloggedIdleTime(t *testing.T) {
	// A task arrives at t=1 and nothing runs until t=3: two units of
	// backlogged idleness.
	recv := []obs.Span{span(0, 1)}
	compute := []obs.Span{span(3, 4)}
	if got := idleOf(nodeAnalysis(recv, compute, nil)); !got.Equal(rat.FromInt(2)) {
		t.Fatalf("backloggedIdleTime = %s, want 2", got)
	}
	// Busy the whole while: no idleness.
	if got := idleOf(nodeAnalysis(recv, compute, []obs.Span{span(1, 3)})); !got.IsZero() {
		t.Fatalf("backloggedIdleTime = %s, want 0", got)
	}

	// Overlapping compute and send spans fuse into one cover interval
	// [3,7]. Held: 1 on [1,2), 2 on [2,3), 1 on [3,4), 0 on [4,6), 1 on
	// [6,8). Idle: [1,3) and [7,8).
	a := nodeAnalysis(
		[]obs.Span{span(0, 1), span(1, 2), span(5, 6)},
		[]obs.Span{span(3, 5), span(8, 9)},
		[]obs.Span{span(4, 7)})
	if got := idleOf(a); !got.Equal(rat.FromInt(3)) {
		t.Fatalf("overlapping compute/send: idle %s, want 3", got)
	}
}

// TestUncoveredSweep drives the sweep with buffer segments and covers
// that consistent span evidence cannot produce on its own, and checks it
// against the quadratic scan it replaced on random inputs.
func TestUncoveredSweep(t *testing.T) {
	at := func(v int64, d int) heldDelta { return heldDelta{rat.FromInt(v), d} }
	iv := func(s, e int64) interval { return interval{rat.FromInt(s), rat.FromInt(e)} }
	cases := []struct {
		name  string
		ds    []heldDelta
		cover []interval
		want  int64
	}{
		// One backlogged segment [0,10) holding three cover intervals.
		{"several covers in one segment", []heldDelta{at(0, 1), at(10, -1)},
			[]interval{iv(1, 2), iv(3, 4), iv(5, 6)}, 7},
		// One cover interval [1,7] across the segments [0,2), [2,4),
		// [4,6) and the idle gap [6,8); [8,9) is uncovered.
		{"one cover across segments",
			[]heldDelta{at(0, 1), at(2, 1), at(4, -1), at(6, -1), at(8, 1), at(9, -1)},
			[]interval{iv(1, 7)}, 2},
		// Cover before, between and after the backlog.
		{"cover outside the backlog", []heldDelta{at(5, 1), at(6, -1)},
			[]interval{iv(0, 1), iv(2, 5), iv(6, 9)}, 1},
	}
	for _, c := range cases {
		if got := backloggedIdleTime(c.ds, c.cover); !got.Equal(rat.FromInt(c.want)) {
			t.Errorf("%s: idle %s, want %d", c.name, got, c.want)
		}
		if ref := quadraticIdle(c.ds, c.cover); !ref.Equal(rat.FromInt(c.want)) {
			t.Errorf("%s: reference idle %s, want %d", c.name, ref, c.want)
		}
	}

	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		var ds []heldDelta
		held := 0
		for v := int64(0); v < 40; v++ {
			if r.Intn(3) == 0 {
				d := 1
				if held > 0 && r.Intn(2) == 0 {
					d = -1
				}
				held += d
				ds = append(ds, heldDelta{rat.New(v, 2), d})
			}
		}
		var cover []interval
		for v := int64(0); v < 20; {
			lo := v + int64(r.Intn(4))
			hi := lo + 1 + int64(r.Intn(4))
			cover = append(cover, interval{rat.New(lo, 1), rat.New(hi, 1)})
			v = hi + 1
		}
		if got, want := backloggedIdleTime(ds, cover), quadraticIdle(ds, cover); !got.Equal(want) {
			t.Fatalf("trial %d: sweep %s, quadratic scan %s", trial, got, want)
		}
	}
}

// quadraticIdle is the idle computation the sweep replaced: each
// backlogged segment scans the whole cover.
func quadraticIdle(ds []heldDelta, cover []interval) rat.R {
	idle := rat.Zero
	held := 0
	var segStart rat.R
	for i := 0; i < len(ds); {
		at := ds[i].at
		if held > 0 {
			gap := at.Sub(segStart)
			for _, iv := range cover {
				lo, hi := rat.Max(segStart, iv.start), rat.Min(at, iv.end)
				if lo.Less(hi) {
					gap = gap.Sub(hi.Sub(lo))
				}
			}
			idle = idle.Add(gap)
		}
		for i < len(ds) && ds[i].at.Equal(at) {
			held += ds[i].d
			i++
		}
		segStart = at
	}
	return idle
}

// TestReportRendering pins the text format the CLI prints and the JSON
// round-trip.
func TestReportRendering(t *testing.T) {
	rep := &HealthReport{}
	rep.add(Check{Name: "alpha", Verdict: Pass, Detail: "fine"})
	rep.add(Check{Name: "beta", Verdict: Fail, Detail: "broken", Evidence: []string{"P4: starved"}})
	rep.add(Check{Name: "gamma", Verdict: Skip, Detail: "no data"})

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"conformance: 1 passed, 1 failed, 1 skipped",
		"PASS alpha",
		"FAIL beta",
		"P4: starved",
		"SKIP gamma",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
	if rep.Healthy() {
		t.Error("Healthy() with a failed check")
	}

	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"verdict": "FAIL"`) {
		t.Errorf("JSON report missing verdict:\n%s", buf.String())
	}
}

// TestEvidenceSniffing: the reader must reject span-free input rather
// than return an empty evidence set that silently skips every check.
func TestEvidenceSniffing(t *testing.T) {
	if _, err := ReadEvidence(strings.NewReader(`{"type":"metric","name":"x"}` + "\n")); err == nil {
		t.Error("ReadEvidence accepted JSONL without spans")
	}
	if _, err := ReadEvidence(strings.NewReader("not json at all")); err == nil {
		t.Error("ReadEvidence accepted garbage")
	}
}

// TestFromScopeNil: a nil scope yields empty evidence and an all-SKIP
// report, not a panic.
func TestFromScopeNil(t *testing.T) {
	rep := Analyze(FromScope(nil), Options{})
	if rep.Failed != 0 || rep.Passed != 0 {
		t.Fatalf("nil-scope report: %+v", rep)
	}
}
