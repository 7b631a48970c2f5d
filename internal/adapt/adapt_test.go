package adapt

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"bwc/internal/bwcerr"
	"bwc/internal/bwfirst"
	"bwc/internal/obs"
	"bwc/internal/obs/analyze"
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

// TestSelfHeal pins the PR acceptance scenario: the P1 uplink of the
// Section 8 platform degrades mid-run (the PR 3 renegotiation scenario),
// the stale regime fails its health checks, and after the drift-triggered
// re-solve and hot-swap the post-swap regime passes every check.
func TestSelfHeal(t *testing.T) {
	tr := paperexample.Tree()
	s := mustSchedule(t, tr)
	rep, err := SimulateAdaptive(s, Options{
		Faults: []Fault{{At: rat.FromInt(120), Node: "P1", Kind: LinkSet, Value: rat.FromInt(4)}},
		Stop:   rat.FromInt(400),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adaptations) != 1 {
		t.Fatalf("adaptations = %d, want 1\n%+v", len(rep.Adaptations), rep.Adaptations)
	}
	ad := rep.Adaptations[0]
	if !rat.FromInt(120).Less(ad.Drift.At) {
		t.Fatalf("drift detected at %s, before the fault at 120", ad.Drift.At)
	}
	if !ad.Drift.At.LessEq(ad.SwapAt) {
		t.Fatalf("swap at %s before detection at %s", ad.SwapAt, ad.Drift.At)
	}
	want := bwfirst.Solve(physicsMust(t, tr)).Throughput
	if !ad.Throughput.Equal(want) {
		t.Fatalf("re-negotiated throughput %s, want %s", ad.Throughput, want)
	}
	if rep.Pre == nil || rep.Pre.Failed == 0 {
		t.Fatalf("pre-swap regime unexpectedly healthy: %+v", rep.Pre)
	}
	if !rep.Healed || !rep.Post.Healthy() {
		var failing []string
		for _, c := range rep.Post.Checks {
			if c.Verdict == analyze.Fail {
				failing = append(failing, c.Name+": "+c.Detail)
			}
		}
		t.Fatalf("post-swap regime not healthy: %v", failing)
	}
	if rep.Post.Passed == 0 {
		t.Fatal("post-swap report passed no checks at all")
	}
}

// TestControllerEventsCarryVirtualInstants: each controller event is
// stamped with the virtual instant of its step — the fault's time, the
// detection instant, the swap boundary and, for a churn run's final
// line, the horizon — so two identical runs emit identical events apart
// from their wall-clock stamps.
func TestControllerEventsCarryVirtualInstants(t *testing.T) {
	s := mustSchedule(t, paperexample.Tree())
	record := func(run func(sc *obs.Scope) (*SimReport, error)) ([]obs.Event, *SimReport) {
		t.Helper()
		var evs []obs.Event
		sc := obs.New()
		sc.Attach(obs.SinkFunc(func(e obs.Event) {
			e.Wall = time.Time{}
			evs = append(evs, e)
		}))
		rep, err := run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != len(rep.Log) {
			t.Fatalf("%d events for %d log lines", len(evs), len(rep.Log))
		}
		return evs, rep
	}
	adaptive := func(sc *obs.Scope) (*SimReport, error) {
		return SimulateAdaptive(s, Options{
			Faults: []Fault{{At: rat.FromInt(120), Node: "P1", Kind: LinkSet, Value: rat.FromInt(4)}},
			Stop:   rat.FromInt(400),
			Obs:    sc,
		})
	}
	a, rep := record(adaptive)
	b, _ := record(adaptive)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical runs emitted different events:\n%+v\n%+v", a, b)
	}
	want := map[string]string{"fault": "120", "drift": "200", "negotiate": "200", "swap": rep.Adaptations[0].SwapAt.String()}
	for _, e := range a {
		if w, ok := want[e.Name]; !ok || e.Virtual != w {
			t.Errorf("%s event at virtual %q, want %q", e.Name, e.Virtual, w)
		}
		delete(want, e.Name)
	}
	if len(want) != 0 {
		t.Errorf("missing events %v", want)
	}

	churn, _ := record(func(sc *obs.Scope) (*SimReport, error) {
		opt := churnPin()
		opt.Obs = sc
		rep, err := SimulateChurn(s, opt)
		if err != nil {
			return nil, err
		}
		return &rep.SimReport, nil
	})
	if last := churn[len(churn)-1]; last.Name != "final" || last.Virtual != "600" {
		t.Errorf("last churn event %s at virtual %q, want final at the horizon 600", last.Name, last.Virtual)
	}
}

func physicsMust(t *testing.T, tr *tree.Tree) *tree.Tree {
	t.Helper()
	after, err := tr.WithCommTime(tr.MustLookup("P1"), rat.FromInt(4))
	if err != nil {
		t.Fatal(err)
	}
	return after
}

// TestNoFaultNoAdapt: a clean run must not trigger any adaptation and
// must be healthy end to end.
func TestNoFaultNoAdapt(t *testing.T) {
	s := mustSchedule(t, paperexample.Tree())
	rep, err := SimulateAdaptive(s, Options{Stop: rat.FromInt(200)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adaptations) != 0 {
		t.Fatalf("clean run adapted %d times", len(rep.Adaptations))
	}
	if !rep.Healed {
		t.Fatal("clean run not healthy")
	}
}

// entryPoints runs one Options through both entry points of the loop:
// SimulateAdaptive, and SimulateChurn with an empty churn process, so
// the scripted faults are the only ones.
func entryPoints(s *sched.Schedule) []struct {
	name string
	run  func(Options) (*SimReport, error)
} {
	return []struct {
		name string
		run  func(Options) (*SimReport, error)
	}{
		{"adaptive", func(opt Options) (*SimReport, error) { return SimulateAdaptive(s, opt) }},
		{"churn", func(opt Options) (*SimReport, error) {
			rep, err := SimulateChurn(s, ChurnOptions{Options: opt, Churn: ChurnConfig{Rate: 1e-9, CrashFraction: -1}})
			if rep == nil {
				return nil, err
			}
			return &rep.SimReport, err
		}},
	}
}

// TestDetectOnly: with adaptation disabled the same drift surfaces as
// ErrScheduleStale through either entry point, and the report keeps it.
func TestDetectOnly(t *testing.T) {
	s := mustSchedule(t, paperexample.Tree())
	for _, ep := range entryPoints(s) {
		rep, err := ep.run(Options{
			Faults:    []Fault{{At: rat.FromInt(120), Node: "P1", Kind: LinkSet, Value: rat.FromInt(4)}},
			Stop:      rat.FromInt(400),
			MaxAdapts: -1,
		})
		if !errors.Is(err, bwcerr.ErrScheduleStale) {
			t.Fatalf("%s: err = %v, want ErrScheduleStale", ep.name, err)
		}
		if len(rep.Drifts) != 1 || len(rep.Adaptations) != 0 {
			t.Fatalf("%s: %d drifts and %d adaptations, want the one drift and none", ep.name, len(rep.Drifts), len(rep.Adaptations))
		}
		if _, err := ep.run(Options{Stop: rat.FromInt(200), MaxAdapts: -1}); err != nil {
			t.Fatalf("%s: clean run flagged stale: %v", ep.name, err)
		}
	}
}

// TestLateDriftVerifiedAsIs: a drift with no swap boundary left before
// the horizon ends the loop without an error; the report keeps the drift
// and the log names it, and the run is verified as it stands.
func TestLateDriftVerifiedAsIs(t *testing.T) {
	s := mustSchedule(t, paperexample.Tree())
	rep, err := SimulateAdaptive(s, Options{
		Faults: []Fault{{At: rat.FromInt(320), Node: "P1", Kind: LinkSet, Value: rat.FromInt(4)}},
		Stop:   rat.FromInt(400),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Drifts) != 1 || len(rep.Adaptations) != 0 {
		t.Fatalf("%d drifts and %d adaptations, want one late drift and none", len(rep.Drifts), len(rep.Adaptations))
	}
	if last := rep.Log[len(rep.Log)-1]; !strings.HasPrefix(last, "late drift t="+rep.Drifts[0].At.String()) {
		t.Fatalf("last log line %q does not name the late drift", last)
	}
	if rep.Post == nil || rep.Healed {
		t.Fatalf("late-drift run verified as healed: %+v", rep.Post)
	}
}

// TestCrashPrunesSubtree: a crashed child is pruned by the re-solve and
// the new schedule routes nothing to its subtree.
func TestCrashPrunesSubtree(t *testing.T) {
	tr := paperexample.Tree()
	s := mustSchedule(t, tr)
	rep, err := SimulateAdaptive(s, Options{
		Faults: []Fault{{At: rat.FromInt(100), Node: "P2", Kind: Crash}},
		Stop:   rat.FromInt(600),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adaptations) == 0 {
		t.Fatal("crash went undetected")
	}
	ad := rep.Adaptations[len(rep.Adaptations)-1]
	if len(ad.Pruned) == 0 {
		t.Fatalf("re-solve pruned nothing: %+v", ad)
	}
	final := rep.FinalSchedule()
	for _, name := range []string{"P2", "P6", "P7"} {
		id := final.Tree.MustLookup(name)
		if ns := &final.Nodes[id]; ns.Active {
			t.Fatalf("node %s still active after crash prune", name)
		}
	}
	if !rep.Healed {
		var failing []string
		for _, c := range rep.Post.Checks {
			if c.Verdict == analyze.Fail {
				failing = append(failing, c.Name+": "+c.Detail)
			}
		}
		t.Fatalf("post-crash regime not healthy: %v", failing)
	}
}

// TestCrashResolveIsExact: a crash is re-solved exactly and at once,
// through either entry point. Each case takes one adaptation whose
// throughput equals BW-First on the measured platform without the
// crashed node's subtree, with that node alone pruned, and a second run
// reports the same. A crashed root leaves nothing to schedule, and no
// retry brings it back.
func TestCrashResolveIsExact(t *testing.T) {
	tr := paperexample.Tree()
	s := mustSchedule(t, tr)
	crash := func(node string) Options {
		return Options{
			Faults: []Fault{{At: rat.FromInt(100), Node: node, Kind: Crash}},
			Stop:   rat.FromInt(600),
		}
	}
	summary := func(rep *SimReport) string {
		var b strings.Builder
		for _, ad := range rep.Adaptations {
			fmt.Fprintf(&b, "%s %s %s %s %d %d %v|", ad.Drift.At, ad.SwapAt, ad.ResumeAt, ad.Throughput, ad.Messages, ad.Visited, ad.Pruned)
		}
		fmt.Fprintf(&b, "%v %s %+v %+v", rep.Healed, rep.Stop, *rep.Pre, *rep.Post)
		return b.String()
	}
	for _, ep := range entryPoints(s) {
		for _, tc := range []struct{ node, want string }{
			{"P6", "10/9"},
			{"P3", "13/12"},
			{"P8", "97/90"},
		} {
			opt := crash(tc.node)
			rep, err := ep.run(opt)
			if err != nil {
				t.Fatalf("%s: crash %s: %v", ep.name, tc.node, err)
			}
			if len(rep.Adaptations) != 1 {
				t.Fatalf("%s: crash %s: %d adaptations, want 1", ep.name, tc.node, len(rep.Adaptations))
			}
			ad := rep.Adaptations[0]
			physics, err := Timeline(tr, opt.Faults, rat.FromInt(crashFactor))
			if err != nil {
				t.Fatal(err)
			}
			measured := physicsAt(tr, physics, ad.Drift.At)
			exact, err := bwfirst.SolvePruned(measured, []tree.NodeID{measured.MustLookup(tc.node)})
			if err != nil {
				t.Fatal(err)
			}
			if !ad.Throughput.Equal(exact.Throughput) || ad.Throughput.String() != tc.want {
				t.Fatalf("%s: crash %s: throughput %s, want %s (pruned solve %s)", ep.name, tc.node, ad.Throughput, tc.want, exact.Throughput)
			}
			if len(ad.Pruned) != 1 || ad.Pruned[0] != tc.node {
				t.Fatalf("%s: crash %s: pruned %v, want [%s]", ep.name, tc.node, ad.Pruned, tc.node)
			}
			again, err := ep.run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := summary(rep), summary(again); a != b {
				t.Fatalf("%s: crash %s: reports differ between runs:\n%s\n%s", ep.name, tc.node, a, b)
			}
		}
		rep, err := ep.run(crash("P0"))
		if !errors.Is(err, bwcerr.ErrInfeasible) {
			t.Fatalf("%s: root crash: err = %v, want ErrInfeasible", ep.name, err)
		}
		if len(rep.Drifts) != 1 {
			t.Fatalf("%s: root crash: %d drifts, want the run to end at the first", ep.name, len(rep.Drifts))
		}
	}
}

// TestDriftClassification: a confirmed drift surfaces as
// ErrScheduleStale when adaptation is disabled and as ErrAdaptTimeout
// once the adaptation budget is spent, with the detection instant.
func TestDriftClassification(t *testing.T) {
	err := staleDrift(rat.FromInt(120), "P1", 0.43)
	if !errors.Is(err, bwcerr.ErrScheduleStale) {
		t.Fatalf("staleDrift must wrap ErrScheduleStale: %v", err)
	}
	if want := "adapt: drift at t=120 (worst node P1 at 43% of α) with adaptation disabled"; !strings.Contains(err.Error(), want) {
		t.Fatalf("got %q, want substring %q", err, want)
	}
	err = adaptExhausted(rat.FromInt(300), 4)
	if !errors.Is(err, bwcerr.ErrAdaptTimeout) {
		t.Fatalf("adaptExhausted must wrap ErrAdaptTimeout: %v", err)
	}
	if want := "adapt: drift persists at t=300 after 4 adaptations"; !strings.Contains(err.Error(), want) {
		t.Fatalf("got %q, want substring %q", err, want)
	}
}

// TestTimelineValidation: bad fault scripts are rejected up front.
func TestTimelineValidation(t *testing.T) {
	tr := paperexample.Tree()
	bad := [][]Fault{
		{{At: rat.FromInt(-1), Node: "P1", Kind: LinkScale, Value: rat.FromInt(2)}},
		{{At: rat.FromInt(1), Node: "nope", Kind: LinkScale, Value: rat.FromInt(2)}},
		{{At: rat.FromInt(1), Node: "P1", Kind: LinkScale, Value: rat.Zero}},
		{{At: rat.FromInt(1), Node: "P0", Kind: LinkSet, Value: rat.FromInt(2)}}, // root has no uplink
	}
	for i, fs := range bad {
		if _, err := Timeline(tr, fs, rat.FromInt(16)); err == nil {
			t.Errorf("case %d: bad script accepted", i)
		}
	}
	// Cumulative same-instant merge: two scalings compose.
	id := tr.MustLookup("P1")
	pcs, err := Timeline(tr, []Fault{
		{At: rat.One, Node: "P1", Kind: LinkScale, Value: rat.FromInt(2)},
		{At: rat.One, Node: "P1", Kind: LinkScale, Value: rat.FromInt(3)},
	}, rat.FromInt(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 1 {
		t.Fatalf("same-instant faults produced %d changes", len(pcs))
	}
	if got, want := pcs[0].Tree.CommTime(id), tr.CommTime(id).Mul(rat.FromInt(6)); !got.Equal(want) {
		t.Fatalf("cumulative scale: got %s want %s", got, want)
	}
}

// TestRandomFaultsReproducible: same seed, same script; scripts are valid.
func TestRandomFaultsReproducible(t *testing.T) {
	tr := paperexample.Tree()
	a := RandomFaults(tr, 42, 5, rat.FromInt(400))
	b := RandomFaults(tr, 42, 5, rat.FromInt(400))
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if _, err := Timeline(tr, a, rat.FromInt(16)); err != nil {
		t.Fatalf("generated script invalid: %v", err)
	}
}
