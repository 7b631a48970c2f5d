package sim

import (
	"runtime"
	"testing"
	"time"

	"bwc/internal/obs"
	"bwc/internal/rat"
	"bwc/internal/tree"
)

// obsTree is the two-worker platform used throughout sim_test.go:
// throughput 19/18, T = 18 — enough activity to exercise every track.
func obsTree() *tree.Tree {
	return tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		Child("P0", "P2", rat.FromInt(3), rat.Two).
		MustBuild()
}

// TestObservedRunMatchesPlain: instrumentation must not perturb the
// simulation — identical Stats — and the exported metrics must agree
// exactly with the trace-derived numbers the experiments already report.
func TestObservedRunMatchesPlain(t *testing.T) {
	tr := obsTree()
	plain := simulate(t, tr, Options{Periods: 4})

	sc := obs.New()
	run := simulate(t, tr, Options{Periods: 4, Obs: sc})

	if run.Stats.Generated != plain.Stats.Generated ||
		run.Stats.Completed != plain.Stats.Completed ||
		!run.Stats.Makespan.Equal(plain.Stats.Makespan) ||
		run.Stats.MaxHeld != plain.Stats.MaxHeld ||
		!run.Stats.SteadyStart.Equal(plain.Stats.SteadyStart) {
		t.Fatalf("observed run diverged: %+v vs %+v", run.Stats, plain.Stats)
	}

	reg := sc.Registry()
	gen := reg.Counter("bwc_sim_tasks_generated_total", "").Value()
	done := reg.Counter("bwc_sim_tasks_completed_total", "").Value()
	if gen != int64(run.Stats.Generated) || done != int64(run.Stats.Completed) {
		t.Fatalf("counters gen=%d done=%d, stats gen=%d done=%d",
			gen, done, run.Stats.Generated, run.Stats.Completed)
	}
	if ev := reg.Counter("bwc_sim_events_total", "").Value(); ev <= 0 {
		t.Fatalf("bwc_sim_events_total = %d", ev)
	}

	// Per-node peak buffer gauges must equal the trace's MaxBufferHeld —
	// the acceptance tie to the E5 buffer-occupancy numbers.
	maxHeld := run.Trace.MaxBufferHeld()
	for id := 0; id < tr.Len(); id++ {
		name := tr.Name(tree.NodeID(id))
		g := reg.GaugeLabeled("bwc_node_buffer_max_tasks", "", "node", name).Value()
		if g != int64(maxHeld[id]) {
			t.Errorf("node %s: gauge max %d, trace max %d", name, g, maxHeld[id])
		}
		// After drain every queue is empty, so the live gauge reads 0.
		if live := reg.GaugeLabeled("bwc_node_buffer_tasks", "", "node", name).Value(); live != 0 {
			t.Errorf("node %s: live buffer gauge %d after drain", name, live)
		}
	}
}

// TestObservedSpans checks the span inventory: one compute span per
// completed task, matching send/recv spans, and same-instant DES batches.
func TestObservedSpans(t *testing.T) {
	tr := obsTree()
	sc := obs.New()
	run := simulate(t, tr, Options{Periods: 4, Obs: sc})

	byTrack := map[string]int{}
	for _, sp := range sc.Spans() {
		byTrack[sp.Track]++
	}
	computes := byTrack["P0/C"] + byTrack["P1/C"] + byTrack["P2/C"]
	if computes != run.Stats.Completed {
		t.Fatalf("%d compute spans, %d completions", computes, run.Stats.Completed)
	}
	if byTrack["P0/S"] == 0 {
		t.Fatal("root sent tasks but has no send spans")
	}
	if byTrack["P0/S"] != byTrack["P1/R"]+byTrack["P2/R"] {
		t.Fatalf("send spans %d != recv spans %d+%d",
			byTrack["P0/S"], byTrack["P1/R"], byTrack["P2/R"])
	}
	batches := sc.SpansOnTrack("des")
	if len(batches) == 0 {
		t.Fatal("no DES batch spans")
	}
	// Batches partition the run: starts strictly increase and each span
	// ends where the next begins (except the zero-width final batch).
	for i := 1; i < len(batches); i++ {
		if !batches[i-1].Start.Less(batches[i].Start) {
			t.Fatalf("batch %d start %s not after %s", i, batches[i].Start, batches[i-1].Start)
		}
		if !batches[i-1].End.Equal(batches[i].Start) {
			t.Fatalf("batch %d gap: prev end %s, start %s", i, batches[i-1].End, batches[i].Start)
		}
	}
}

// TestObservedRunReleasesItsTree: once the caller drops an observed run,
// its platform must become collectable. A long-lived process (bwschedd)
// simulates every platform it is sent; a package-level cache keyed by
// the tree would keep each one reachable forever.
func TestObservedRunReleasesItsTree(t *testing.T) {
	freed := make(chan struct{})
	func() {
		tr := obsTree()
		runtime.SetFinalizer(tr, func(*tree.Tree) { close(freed) })
		sc := obs.New()
		simulate(t, tr, Options{Periods: 2, Obs: sc})
		if sc.SpanCount() == 0 {
			t.Fatal("observed run exported no spans")
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the run's tree is still reachable 5 s after the run was dropped")
		}
	}
}
