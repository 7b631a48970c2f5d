package adapt

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"bwc/internal/bwcerr"
	"bwc/internal/bwfirst"
	"bwc/internal/obs/analyze"
	"bwc/internal/paperexample"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

// TestGenerateChurnReproducible: one seed, one script — byte for byte —
// and the script respects its contract (middle of the horizon, never the
// root, crash budget bounded).
func TestGenerateChurnReproducible(t *testing.T) {
	tr := paperexample.Tree()
	horizon := rat.FromInt(600)
	cfg := ChurnConfig{Seed: 14, Rate: 3}
	a := GenerateChurn(tr, horizon, cfg)
	b := GenerateChurn(tr, horizon, cfg)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("script lengths: %d vs %d", len(a), len(b))
	}
	onset := horizon.Mul(rat.New(1, 8))
	cooldown := horizon.Mul(rat.New(3, 4))
	crashes := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %v vs %v", i, a[i], b[i])
		}
		if a[i].Node == tr.Name(tr.Root()) {
			t.Fatalf("fault %v targets the root", a[i])
		}
		if a[i].At.Less(onset) || !a[i].At.Less(cooldown) {
			t.Fatalf("fault %v outside the churn window [%s, %s)", a[i], onset, cooldown)
		}
		if a[i].Kind == Crash {
			crashes++
		}
	}
	if budget := int(0.15 * float64(tr.Len()-1)); crashes > budget {
		t.Fatalf("%d crashes exceed the budget %d", crashes, budget)
	}
	if _, err := Timeline(tr, a, rat.FromInt(16)); err != nil {
		t.Fatalf("generated script invalid: %v", err)
	}
}

// churnPin is the seeded scenario the acceptance criteria pin: paper
// platform, seed 11, moderate churn over 600 time units.
func churnPin() ChurnOptions {
	return ChurnOptions{
		Options: Options{Stop: rat.FromInt(600)},
		Churn:   ChurnConfig{Seed: 11, Rate: 3},
	}
}

// TestChurnDeterministicLog: the same seed reproduces the event log byte
// for byte — fault script, drift instants, re-solve stats, and the final
// retention line included.
func TestChurnDeterministicLog(t *testing.T) {
	s := mustSchedule(t, paperexample.Tree())
	a, err := SimulateChurn(s, churnPin())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateChurn(s, churnPin())
	if err != nil {
		t.Fatal(err)
	}
	la, lb := strings.Join(a.Log, "\n"), strings.Join(b.Log, "\n")
	if la != lb {
		t.Fatalf("event logs differ:\n--- first ---\n%s\n--- second ---\n%s", la, lb)
	}
	if len(a.Log) == 0 {
		t.Fatal("empty event log")
	}
}

// TestChurnSelfStabilizes pins the positive acceptance scenario: under
// seeded churn the controller re-solves incrementally along the affected
// spine only, the run heals, and the retained steady-state throughput is
// at least 90% of an oracle full re-solve on the final platform.
func TestChurnSelfStabilizes(t *testing.T) {
	tr := paperexample.Tree()
	s := mustSchedule(t, tr)
	rep, err := SimulateChurn(s, churnPin())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healed {
		t.Fatalf("churn run did not heal; post report:\n%+v", rep.Post)
	}
	if len(rep.Adaptations) < 2 {
		t.Fatalf("adaptations = %d, want >= 2", len(rep.Adaptations))
	}
	if rep.Retention < 0.9 {
		t.Fatalf("retention %.3f below the 0.9 acceptance floor (final %s, oracle %s)",
			rep.Retention, rep.Final, rep.Oracle)
	}
	c := rep.Post.Check("churn-retention")
	if c == nil || c.Verdict != analyze.Pass {
		t.Fatalf("churn-retention check missing or failing: %+v", c)
	}
	// The re-solves must be genuinely incremental: every cycle recomputes
	// strictly less than the whole platform, and memoized subtree answers
	// are reused across the run.
	reused := 0
	for _, rs := range rep.ReSolves {
		if rs.Recomputed >= tr.Len() {
			t.Fatalf("cycle at t=%s recomputed %d of %d nodes — not spine-incremental", rs.At, rs.Recomputed, tr.Len())
		}
		reused += rs.Reused
	}
	if reused == 0 {
		t.Fatal("no subtree answers were reused across any cycle")
	}
}

// TestAdaptationMessagesTwicePerVisit: both loops report a re-solve's
// cost the protocol's way, two messages per visited node with the
// virtual parent's pair included (the E9 identity).
func TestAdaptationMessagesTwicePerVisit(t *testing.T) {
	s := mustSchedule(t, paperexample.Tree())
	churn, err := SimulateChurn(s, churnPin())
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := SimulateAdaptive(s, Options{
		Faults: []Fault{{At: rat.FromInt(120), Node: "P1", Kind: LinkSet, Value: rat.FromInt(4)}},
		Stop:   rat.FromInt(400),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(churn.Adaptations) == 0 || len(adaptive.Adaptations) == 0 {
		t.Fatalf("adaptations: churn %d, adaptive %d; want both > 0", len(churn.Adaptations), len(adaptive.Adaptations))
	}
	for _, ad := range append(churn.Adaptations, adaptive.Adaptations...) {
		if ad.Messages != 2*ad.Visited {
			t.Fatalf("re-solve at t=%s: %d messages for %d visited nodes", ad.Drift.At, ad.Messages, ad.Visited)
		}
	}
}

// TestChurnQuarantine: a node perturbed in enough consecutive cycles is
// quarantined — pruned from subsequent schedules instead of chased.
func TestChurnQuarantine(t *testing.T) {
	tr := paperexample.Tree()
	s := mustSchedule(t, tr)
	rep, err := SimulateChurn(s, ChurnOptions{
		Options: Options{
			Stop: rat.FromInt(2500),
			Faults: []Fault{
				{At: rat.FromInt(100), Node: "P1", Kind: LinkScale, Value: rat.FromInt(2)},
				{At: rat.FromInt(900), Node: "P1", Kind: LinkScale, Value: rat.FromInt(2)},
				{At: rat.FromInt(1700), Node: "P1", Kind: LinkScale, Value: rat.FromInt(2)},
			},
		},
		Churn:         ChurnConfig{Seed: 1, Rate: 0.0001, CrashFraction: -1},
		FlapThreshold: 2,
		FlapWindow:    rat.FromInt(2400),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "P1" {
		t.Fatalf("quarantined = %v, want [P1]", rep.Quarantined)
	}
	// The quarantined subtree is pruned from the final deployed schedule.
	fs := rep.FinalSchedule()
	if fs == nil {
		t.Fatal("no final schedule")
	}
	p1 := tr.MustLookup("P1")
	if fs.Nodes[p1].Active {
		t.Fatal("quarantined node still active in the final schedule")
	}
}

// TestChurnCollapse pins the negative acceptance scenario: crash-heavy
// churn drives every re-solve below the retention floor, the retry
// budget exhausts, and the run surfaces ErrChurnCollapse with the
// collapse recorded in the report.
func TestChurnCollapse(t *testing.T) {
	s := mustSchedule(t, paperexample.Tree())
	rep, err := SimulateChurn(s, ChurnOptions{
		Options: Options{Stop: rat.FromInt(600)},
		Churn:   ChurnConfig{Seed: 7, Rate: 40, CrashFraction: 0.9},
	})
	if !errors.Is(err, bwcerr.ErrChurnCollapse) {
		t.Fatalf("err = %v, want ErrChurnCollapse", err)
	}
	if rep == nil || !rep.Collapsed {
		t.Fatal("collapse not recorded in the report")
	}
	if rep.Healed {
		t.Fatal("collapsed run reported healed")
	}
	found := false
	for _, l := range rep.Log {
		if strings.HasPrefix(l, "collapse ") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no collapse line in the log:\n%s", strings.Join(rep.Log, "\n"))
	}
}

// TestIncrementalScheduleBytes is the cross-family property test: on a
// mutated platform, building a schedule from the incremental spine
// re-solve yields a deployment document byte-identical to one built from
// a full BW-First re-solve. Schedules are a pure function of the solved
// rates, so state equality must survive all the way to the wire.
func TestIncrementalScheduleBytes(t *testing.T) {
	for _, kind := range treegen.Kinds {
		for seed := int64(1); seed <= 3; seed++ {
			tr := treegen.Generate(kind, 40, seed)
			prev := bwfirst.Solve(tr)
			rng := rand.New(rand.NewSource(seed * 17))
			mutated := tr
			var dirty []tree.NodeID
			for k := 0; k < 4; k++ {
				id := tree.NodeID(1 + rng.Intn(tr.Len()-1))
				factor := rat.New(int64(1+rng.Intn(8)), 2)
				var err error
				if _, ok := mutated.ProcTime(id); ok && rng.Intn(2) == 0 {
					w, _ := mutated.ProcTime(id)
					mutated, err = mutated.WithProcTime(id, w.Mul(factor))
				} else {
					mutated, err = mutated.WithCommTime(id, mutated.CommTime(id).Mul(factor))
				}
				if err != nil {
					t.Fatal(err)
				}
				dirty = append(dirty, id)
			}
			inc, err := bwfirst.SolveIncremental(prev, mutated, dirty, nil)
			if err != nil {
				t.Fatalf("%v seed %d: incremental: %v", kind, seed, err)
			}
			full, err := bwfirst.SolvePruned(mutated, nil)
			if err != nil {
				t.Fatalf("%v seed %d: full: %v", kind, seed, err)
			}
			if !inc.Throughput.IsPos() {
				continue // nothing to deploy either way
			}
			si, err := sched.Build(inc, sched.Options{})
			if err != nil {
				t.Fatalf("%v seed %d: build incremental: %v", kind, seed, err)
			}
			sf, err := sched.Build(full, sched.Options{})
			if err != nil {
				t.Fatalf("%v seed %d: build full: %v", kind, seed, err)
			}
			bi, err := si.MarshalDeployment()
			if err != nil {
				t.Fatal(err)
			}
			bf, err := sf.MarshalDeployment()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bi, bf) {
				t.Fatalf("%v seed %d: deployments differ\n--- incremental ---\n%s\n--- full ---\n%s",
					kind, seed, bi, bf)
			}
		}
	}
}
