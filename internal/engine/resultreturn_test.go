package engine_test

import (
	"testing"
	"time"

	"bwc/internal/bwfirst"
	"bwc/internal/engine"
	"bwc/internal/rat"
	"bwc/internal/runtime"
	"bwc/internal/sched"
	"bwc/internal/sim"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

// counterExampleTree is Section 9's star: a root switch feeding two
// workers over c = 1/2 links with w = 1 and return cost d = 1/2.
// Separate flows sustain 2 tasks/unit; the folded model predicts 1.
func counterExampleTree(t *testing.T) *tree.Tree {
	t.Helper()
	tr, err := tree.NewBuilder().
		RootSwitch("M").
		Child("M", "P1", rat.New(1, 2), rat.One).
		Child("M", "P2", rat.New(1, 2), rat.One).
		Return("P1", rat.New(1, 2)).
		Return("P2", rat.New(1, 2)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDifferentialZeroReturn pins the tentpole invariant of the
// result-return generalization: a platform whose return costs are all
// explicitly zero must be indistinguishable, byte for byte, from the
// same platform in the forward-only model — same solver output, same
// deployment document, same engine decision streams. Any divergence
// means a "generalized" code path forked semantics instead of reducing
// to Algorithm 1 when d ≡ 0. The sweep covers every treegen family so
// the reduction holds across pruned, switch-heavy and degenerate
// shapes, not just the friendly cases.
func TestDifferentialZeroReturn(t *testing.T) {
	for _, kind := range treegen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			base := treegen.Generate(kind, 10, int64(kind)+1)
			zeroed, err := base.WithUniformReturnTime(rat.Zero)
			if err != nil {
				t.Fatal(err)
			}
			if zeroed.HasResultReturn() {
				t.Fatal("zero return costs must read as forward-only")
			}

			resA, resB := bwfirst.Solve(base), bwfirst.Solve(zeroed)
			if !resA.Throughput.Equal(resB.Throughput) {
				t.Fatalf("solver throughput diverged: %s vs %s", resA.Throughput, resB.Throughput)
			}
			sA, err := sched.Build(resA, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sB, err := sched.Build(resB, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			depA, err := sA.MarshalDeployment()
			if err != nil {
				t.Fatal(err)
			}
			depB, err := sB.MarshalDeployment()
			if err != nil {
				t.Fatal(err)
			}
			if string(depA) != string(depB) {
				t.Fatalf("deployment documents diverged:\nforward:\n%s\nzero-return:\n%s", depA, depB)
			}

			recA, recB := engine.NewRecorder(), engine.NewRecorder()
			if _, err := sim.Simulate(sA, sim.Options{Tasks: 30, SkipIntervals: true, Recorder: recA}); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Simulate(sB, sim.Options{Tasks: 30, SkipIntervals: true, Recorder: recB}); err != nil {
				t.Fatal(err)
			}
			fpA, fpB := recA.Fingerprint(), recB.Fingerprint()
			if fpA != fpB {
				t.Fatalf("engine fingerprints diverged:\nforward:\n%s\nzero-return:\n%s", fpA, fpB)
			}
			for n := 0; n < base.Len(); n++ {
				if recB.Results(tree.NodeID(n)) != 0 {
					t.Fatalf("zero-return run recorded an upward result at node %d", n)
				}
			}
		})
	}
}

// TestDifferentialReturnSimVsRuntime extends the backend-equivalence
// proof to the upward flow: on a genuine result-return platform the
// virtual-time simulator and the wall-clock runtime must produce
// byte-identical recorder fingerprints — including the per-node result
// counts — and both must drain every result to the root.
func TestDifferentialReturnSimVsRuntime(t *testing.T) {
	cases := []struct {
		name  string
		tree  func(t *testing.T) *tree.Tree
		tasks int
	}{
		{"counter-example", counterExampleTree, 24},
		{"uniform-10-returns", func(t *testing.T) *tree.Tree {
			t.Helper()
			tr, err := treegen.Generate(treegen.Uniform, 10, 3).WithUniformReturnTime(rat.New(1, 4))
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tree(t)
			s, err := sched.Build(bwfirst.Solve(tr), sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !s.ResultReturn {
				t.Fatal("schedule did not carry the result-return mark")
			}

			recSim := engine.NewRecorder()
			run, err := sim.Simulate(s, sim.Options{Tasks: tc.tasks, SkipIntervals: true, Recorder: recSim})
			if err != nil {
				t.Fatal(err)
			}
			if run.Stats.ResultsReturned != tc.tasks {
				t.Fatalf("sim drained %d results, want %d", run.Stats.ResultsReturned, tc.tasks)
			}

			recRun := engine.NewRecorder()
			rep, err := runtime.Execute(runtime.Config{
				Schedule: s,
				Tasks:    tc.tasks,
				Scale:    100 * time.Microsecond,
				Recorder: recRun,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.ResultsReturned != tc.tasks {
				t.Fatalf("runtime drained %d results, want %d", rep.ResultsReturned, tc.tasks)
			}

			a, b := recSim.Fingerprint(), recRun.Fingerprint()
			if a != b {
				t.Fatalf("backends diverged on a return platform:\nsim:\n%s\nruntime:\n%s", a, b)
			}
		})
	}
}

// TestZeroCostTeleportDrain forces the result-return machinery onto a
// schedule whose return costs are all zero: every result must teleport
// home without consuming port time, so the run drains completely and
// the forward decision streams stay identical to an unforced run.
func TestZeroCostTeleportDrain(t *testing.T) {
	tr := treegen.Generate(treegen.Uniform, 8, 2)
	s, err := sched.Build(bwfirst.Solve(tr), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := engine.NewRecorder()
	plain, err := sim.Simulate(s, sim.Options{Tasks: 16, SkipIntervals: true, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}

	forced := s.Clone()
	forced.ResultReturn = true
	recF := engine.NewRecorder()
	run, err := sim.Simulate(forced, sim.Options{Tasks: 16, SkipIntervals: true, Recorder: recF})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.ResultsReturned != 16 {
		t.Fatalf("teleport drain returned %d results, want 16", run.Stats.ResultsReturned)
	}
	if !run.Stats.Makespan.Equal(plain.Stats.Makespan) {
		t.Fatalf("zero-cost returns changed the makespan: %s vs %s", run.Stats.Makespan, plain.Stats.Makespan)
	}
}
