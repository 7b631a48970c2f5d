package bwc_test

import (
	"strings"
	"testing"

	"bwc"
	"bwc/internal/treegen"
)

// counterExamplePlatform is Section 9's counter-example: a switch root
// with two c = 1/2, w = 1 workers, each returning results at d = 1/2.
const counterExamplePlatform = `
M  -  -   inf
P1 M  1/2 1   1/2
P2 M  1/2 1   1/2
`

// TestE10ResultReturnEndToEnd is the E10 regression pinned through the
// whole pipeline, not just the LP demo: the counter-example platform
// must sustain 2 tasks/unit with separate result flows where the folded
// model predicts 1, and an actual engine run must realize the separate
// flows — every result drained to the root, the conformance analyzer's
// result-return verdict PASS (its folded-model detector asserts the
// measured rate exceeds the folded bound). internal/graphlp's tests
// cross-check the tree LP on this star against the graph layer's own
// separate-flows LP.
func TestE10ResultReturnEndToEnd(t *testing.T) {
	tr, err := bwc.ParsePlatformString(counterExamplePlatform)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.HasResultReturn() {
		t.Fatal("5th-column return costs did not reach the tree")
	}

	// Solver layer: greedy = LP exact = 2, folded baseline = 1.
	exact, err := bwc.Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	sess := bwc.NewSession()
	res := sess.Solve(tr)
	folded, err := bwc.FoldedThroughput(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Throughput.Equal(bwc.RatInt(2)) || !exact.Equal(bwc.RatInt(2)) {
		t.Fatalf("separate flows: greedy %s, LP %s, want 2", res.Throughput, exact)
	}
	if !folded.Equal(bwc.RatInt(1)) {
		t.Fatalf("folded baseline %s, want 1", folded)
	}

	// Engine layer: run a batch, require full drain and the analyzer's
	// result-return PASS. 2-vs-1 shows up as the makespan: 40 tasks at
	// the separate-flows rate finish in ~20 + startup; the folded model
	// cannot beat 40.
	const tasks = 40
	ob := bwc.NewObserver()
	run, err := sess.Simulate(tr, bwc.WithTasks(tasks), bwc.WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	if err := run.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if run.Stats.ResultsReturned != tasks {
		t.Fatalf("%d results home, want %d", run.Stats.ResultsReturned, tasks)
	}
	if !run.Stats.Makespan.Less(bwc.RatInt(tasks)) {
		t.Fatalf("makespan %s did not beat the folded model's %d-unit bound", run.Stats.Makespan, tasks)
	}
	rep := bwc.AnalyzeRun(run)
	check := rep.Check("result-return")
	if check == nil {
		t.Fatal("analyzer produced no result-return verdict")
	}
	if check.Verdict != bwc.HealthPass {
		t.Fatalf("result-return verdict %s (%s), want PASS", check.Verdict, check.Detail)
	}
	if !strings.Contains(check.Detail, "folded") {
		t.Fatalf("verdict detail %q does not mention the folded-model comparison", check.Detail)
	}
}

// TestVerifyRunsProtocolOnReturnPlatform: Verify cross-checks the
// distributed protocol on result-return platforms too. On the two-worker
// return star (d = 1) the optimum is 1 and the protocol exchanges 4
// messages: the virtual parent's pair and one transaction with P1,
// whose results fill the root's receive port so P2 is offered nothing.
func TestVerifyRunsProtocolOnReturnPlatform(t *testing.T) {
	tr, err := bwc.ParsePlatformString("P0 - - inf -\nP1 P0 1/2 1 1\nP2 P0 1/2 1 1\n")
	if err != nil {
		t.Fatal(err)
	}
	ob := bwc.NewObserver()
	thr, err := bwc.Verify(tr, bwc.WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	if !thr.Equal(bwc.RatInt(1)) {
		t.Fatalf("Verify = %s, want 1", thr)
	}
	if m := ob.Registry().Counter("bwc_protocol_messages_total", "").Value(); m != 4 {
		t.Fatalf("protocol messages = %d, want 4", m)
	}
}

// TestE10FoldedRegressionFails pins the negative side of E10: a folded
// platform (d merged into c, no separate flows) runs at the folded rate,
// so its batch takes about twice as long. This is the behavior the
// separate-flows model exists to beat.
func TestE10FoldedRegressionFails(t *testing.T) {
	foldedPlatform, err := bwc.ParsePlatformString(`
M  -  -  inf
P1 M  1  1
P2 M  1  1
`)
	if err != nil {
		t.Fatal(err)
	}
	sess := bwc.NewSession()
	res := sess.Solve(foldedPlatform)
	if !res.Throughput.Equal(bwc.RatInt(1)) {
		t.Fatalf("folded platform rate %s, want 1", res.Throughput)
	}
	const tasks = 40
	run, err := sess.Simulate(foldedPlatform, bwc.WithTasks(tasks))
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.Makespan.Less(bwc.RatInt(tasks)) {
		t.Fatalf("folded makespan %s beat the folded bound %d — model error inverted", run.Stats.Makespan, tasks)
	}
}

// chainedFold is the folded platform built one link at a time, each
// step a WithCommTime clone, then every return time cleared: the
// reference for Tree.WithFoldedReturns.
func chainedFold(t *testing.T, tr *bwc.Tree) *bwc.Tree {
	t.Helper()
	folded := tr
	for i := 0; i < tr.Len(); i++ {
		id := bwc.NodeID(i)
		d := tr.ReturnTime(id)
		if id == tr.Root() || d.IsZero() {
			continue
		}
		var err error
		if folded, err = folded.WithCommTime(id, tr.CommTime(id).Add(d)); err != nil {
			t.Fatal(err)
		}
	}
	folded, err := folded.WithUniformReturnTime(bwc.RatInt(0))
	if err != nil {
		t.Fatal(err)
	}
	return folded
}

// TestFoldedReturnsMatchesChained: on every treegen family, forward,
// with a uniform return time and with per-link return times (some
// zero), the one-clone fold renders the same platform text as the
// chained construction, FoldedThroughput equals the chained platform's
// BW-First throughput, and the fold's fingerprint is computed afresh
// even after its parent's was memoized.
func TestFoldedReturnsMatchesChained(t *testing.T) {
	for _, kind := range treegen.Kinds {
		fwd := bwc.GeneratePlatform(kind, 40, 9)
		uniform, err := bwc.PlatformWithUniformResultReturn(fwd, bwc.Rat(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]bwc.Rational, fwd.Len())
		for i := 1; i < len(ds); i++ {
			ds[i] = bwc.Rat(int64(i%4), int64(1+i%5)) // every fourth link returns for free
		}
		perLink, err := fwd.WithReturnTimes(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			tr   *bwc.Tree
		}{{"forward", fwd}, {"uniform", uniform}, {"per-link", perLink}} {
			name := kind.String() + "/" + c.name
			bwc.PlatformFingerprint(c.tr)
			got, want := c.tr.WithFoldedReturns(), chainedFold(t, c.tr)
			if got.HasResultReturn() {
				t.Fatalf("%s: folded platform still carries return times", name)
			}
			if g, w := bwc.FormatPlatform(got), bwc.FormatPlatform(want); g != w {
				t.Fatalf("%s: fold renders\n%s\nchained fold renders\n%s", name, g, w)
			}
			if bwc.PlatformFingerprint(got) != textSHA(got) {
				t.Fatalf("%s: fold inherited a fingerprint", name)
			}
			folded, err := bwc.FoldedThroughput(c.tr)
			if err != nil {
				t.Fatal(err)
			}
			if chained := bwc.Solve(want).Throughput; !folded.Equal(chained) {
				t.Fatalf("%s: FoldedThroughput %s, chained fold solves to %s", name, folded, chained)
			}
		}
	}
}
