package sim

import (
	"reflect"
	"strings"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/paperexample"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/tree"
)

func mustSchedule(t *testing.T, tr *tree.Tree) *sched.Schedule {
	t.Helper()
	s, err := sched.Build(bwfirst.Solve(tr), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDynamicSinglePhaseMatchesStatic: a timeline whose events change
// nothing replays the one-schedule run. A physics swap to identical
// weights leaves the trace unchanged, and re-installing the same
// schedule with an empty delta at a root-period boundary — its release
// chain anchored there — releases and completes what the one-schedule
// run does.
func TestDynamicSinglePhaseMatchesStatic(t *testing.T) {
	tr := paperexample.Tree()
	s := mustSchedule(t, tr)
	stop := rat.FromInt(115)
	static, err := Simulate(s, Options{Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	same, err := Simulate(s, Options{Stop: stop, Physics: []PhysicsChange{{At: rat.FromInt(40), Tree: tr}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(same.Trace, static.Trace) {
		t.Fatal("a physics swap to identical weights changed the trace")
	}
	if same.Stats.SteadyOK || same.Stats.PerPeriod != nil {
		t.Fatalf("a timeline reported steady-state statistics: %+v", same.Stats)
	}
	tw := s.Nodes[tr.Root()].TW
	dyn, err := Simulate(s, Options{Stop: stop, SkipIntervals: true,
		Phases: []Phase{{At: tw.Mul(rat.Two), Schedule: s, Changed: []tree.NodeID{}}}})
	if err != nil {
		t.Fatal(err)
	}
	d, st := dyn.Stats, static.Stats
	if d.Generated != st.Generated || d.Completed != st.Completed || d.Dropped != 0 {
		t.Fatalf("timeline %d/%d/%d vs one schedule %d/%d", d.Generated, d.Completed, d.Dropped, st.Generated, st.Completed)
	}
	if !d.WindDown.Equal(st.WindDown) || d.MaxHeld != st.MaxHeld {
		t.Fatalf("wind-down %s, max held %d vs %s, %d", d.WindDown, d.MaxHeld, st.WindDown, st.MaxHeld)
	}
}

// TestDynamicRenegotiation is the paper's future-work measurement: the
// platform degrades at t=120, the root renegotiates at t=160, and the
// stale-schedule window must not lose task conservation — only rate.
func TestDynamicRenegotiation(t *testing.T) {
	before := paperexample.Tree()
	after, err := before.WithCommTime(before.MustLookup("P1"), rat.FromInt(4))
	if err != nil {
		t.Fatal(err)
	}
	sBefore := mustSchedule(t, before)
	sAfter := mustSchedule(t, after)
	run, err := Simulate(sBefore, Options{
		Phases:        []Phase{{At: rat.FromInt(160), Schedule: sAfter}},
		Physics:       []PhysicsChange{{At: rat.FromInt(120), Tree: after}},
		Stop:          rat.FromInt(400),
		SkipIntervals: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := run.Stats; st.Generated != st.Completed+st.Dropped {
		t.Fatalf("conservation lost: %d generated, %d completed, %d dropped",
			st.Generated, st.Completed, st.Dropped)
	}
	if err := run.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	// Old regime: 10/9 per unit; new regime: bwfirst(after) per unit.
	newRate := bwfirst.Solve(after).Throughput
	if !newRate.Less(rat.New(10, 9)) {
		t.Fatal("degradation did not lower the optimum; weak test")
	}
	// After renegotiation the per-window rate recovers to ≈ the new
	// optimum: compare a late window against it.
	late := run.Trace.CompletedIn(rat.FromInt(280), rat.FromInt(380))
	wantLate := newRate.Mul(rat.FromInt(100))
	diff := rat.FromInt(int64(late)).Sub(wantLate).Abs()
	if rat.FromInt(6).Less(diff) {
		t.Fatalf("late window %d tasks, want ≈%s", late, wantLate)
	}
	// The stale window [120,160) runs the old schedule on degraded
	// physics: its rate must not exceed the old optimum.
	stale := run.Trace.CompletedIn(rat.FromInt(120), rat.FromInt(160))
	oldIdeal := rat.New(10, 9).Mul(rat.FromInt(40))
	if rat.FromInt(int64(stale)).Sub(oldIdeal).IsPos() {
		t.Fatalf("stale window %d beats the old optimum %s", stale, oldIdeal)
	}
}

// TestDynamicValidation: the one validation pass refuses a malformed
// timeline with an error, before anything runs.
func TestDynamicValidation(t *testing.T) {
	tr := paperexample.Tree()
	s := mustSchedule(t, tr)
	other := tree.NewBuilder().Root("x", rat.One).MustBuild()
	stop := rat.FromInt(10)
	cases := map[string]Options{
		"phase at 0":       {Stop: stop, Phases: []Phase{{At: rat.Zero, Schedule: s}}},
		"not increasing":   {Stop: stop, Phases: []Phase{{At: rat.Two, Schedule: s}, {At: rat.One, Schedule: s}}},
		"nil schedule":     {Stop: stop, Phases: []Phase{{At: rat.One}}},
		"no stop":          {Phases: []Phase{{At: rat.One, Schedule: s}}},
		"batch":            {Tasks: 5, Physics: []PhysicsChange{{At: rat.One, Tree: tr}}},
		"topology":         {Stop: stop, Phases: []Phase{{At: rat.One, Schedule: mustSchedule(t, other)}}},
		"physics shape":    {Stop: stop, Physics: []PhysicsChange{{At: rat.One, Tree: other}}},
		"physics before 0": {Stop: stop, Physics: []PhysicsChange{{At: rat.FromInt(-1), Tree: tr}}},
		"physics order":    {Stop: stop, Physics: []PhysicsChange{{At: rat.Two, Tree: tr}, {At: rat.Two, Tree: tr}}},
	}
	for name, opt := range cases {
		if _, err := Simulate(s, opt); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestChangedOutsideTreeRejected: a phase that lists a node the platform
// does not have is refused by validation instead of indexing out of
// range inside the run.
func TestChangedOutsideTreeRejected(t *testing.T) {
	tr := paperexample.Tree()
	s := mustSchedule(t, tr)
	for _, id := range []tree.NodeID{99, tree.NodeID(tr.Len()), -1} {
		_, err := Simulate(s, Options{Stop: rat.FromInt(200),
			Phases: []Phase{{At: rat.FromInt(100), Schedule: s, Changed: []tree.NodeID{id}}}})
		if err == nil || !strings.Contains(err.Error(), "not on the 12-node platform") {
			t.Errorf("Changed [%d]: err = %v", id, err)
		}
	}
}
