package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"bwc"
	"bwc/internal/perf"
)

// benchArgs returns fast bench-subcommand arguments: one cheap bench,
// a tiny benchtime, progress suppressed.
func benchArgs(extra ...string) []string {
	return append([]string{"-run", "^RatArith$", "-benchtime", "5ms", "-quiet"}, extra...)
}

func TestCmdBenchWritesTrajectory(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	stdout := capture(t, func() error {
		return cmdBench(benchArgs("-label", "test", "-out", out))
	})
	if !strings.Contains(stdout, "trajectory: "+out) {
		t.Errorf("output missing the trajectory path:\n%s", stdout)
	}
	tr, err := perf.ParseFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Label != "test" {
		t.Errorf("label %q", tr.Label)
	}
	r, ok := tr.Result("RatArith")
	if !ok || r.N == 0 || r.NsPerOp <= 0 {
		t.Fatalf("RatArith result %+v", r)
	}
	if tr.Env.GoVersion == "" || tr.Env.GOMAXPROCS == 0 {
		t.Fatalf("env fingerprint empty: %+v", tr.Env)
	}
}

func TestCmdBenchProfileCapture(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "profiles")
	capture(t, func() error { return cmdBench(benchArgs("-profile", dir)) })
	for _, f := range []string{"RatArith.cpu.pprof", "RatArith.heap.pprof"} {
		if m, err := filepath.Glob(filepath.Join(dir, f)); err != nil || len(m) != 1 {
			t.Errorf("profile %s missing (%v, %v)", f, m, err)
		}
	}
}

// TestCmdBenchCompareGate seeds a deterministic regression — the
// baseline claims SessionSolveCold used 10 allocs/op, far below what it
// actually takes — and checks the full run() path returns exit code 8.
// Allocation counts are machine-independent, so this cannot flake on a
// noisy runner. An honest baseline recorded moments before must pass;
// it is compared as if from another host, so only the deterministic
// gates (allocs/op and the derived floors) judge it, not the ns/op of
// two 5 ms runs.
func TestCmdBenchCompareGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_base.json")
	args := []string{"-run", "^SessionSolveCold$", "-benchtime", "5ms", "-quiet"}
	capture(t, func() error { return cmdBench(append(args, "-out", base)) })

	tr, err := perf.ParseFile(base)
	if err != nil {
		t.Fatal(err)
	}
	tr.Env.CPUModel = "another host"
	honest := filepath.Join(dir, "BENCH_honest.json")
	if err := tr.WriteFile(honest); err != nil {
		t.Fatal(err)
	}
	if code := run(append([]string{"bench"}, append(args, "-compare", honest)...)); code != 0 {
		t.Fatalf("honest baseline comparison exited %d, want 0", code)
	}

	tr, err = perf.ParseFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Results[0].AllocsPerOp <= 12 {
		t.Fatalf("fixture assumption broken: cold solve takes %d allocs/op", tr.Results[0].AllocsPerOp)
	}
	tr.Results[0].AllocsPerOp = 10
	doctored := filepath.Join(dir, "BENCH_doctored.json")
	if err := tr.WriteFile(doctored); err != nil {
		t.Fatal(err)
	}
	if code := run(append([]string{"bench"}, append(args, "-compare", doctored)...)); code != 8 {
		t.Fatalf("seeded regression exited %d, want 8", code)
	}
}

func TestCmdBenchList(t *testing.T) {
	out := capture(t, func() error { return cmdBench([]string{"-list"}) })
	for _, name := range []string{"DESHeap", "EngineRun", "ObsEnabled", "DistributedSolve"} {
		if !strings.Contains(out, name) {
			t.Errorf("bench -list missing %q:\n%s", name, out)
		}
	}
}

func TestCmdBenchErrors(t *testing.T) {
	if err := cmdBench(benchArgs("-compare", filepath.Join(t.TempDir(), "missing.json"))); err == nil {
		t.Error("missing baseline file not reported")
	}
	if err := cmdBench([]string{"-run", "matches-nothing", "-benchtime", "1ms", "-quiet"}); err == nil {
		t.Error("empty selection not reported")
	}
}

// TestExitCodes pins the sentinel-to-exit-code table the README
// documents, including this PR's perf-regression code 8.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{bwc.ErrNotATree, 4},
		{bwc.ErrInfeasible, 5},
		{bwc.ErrScheduleStale, 6},
		{bwc.ErrAdaptTimeout, 7},
		{bwc.ErrPerfRegression, 8},
		{bwc.ErrChurnCollapse, 9},
		{bwc.ErrDaemonUnreachable, 10},
		{fmt.Errorf("wrapped: %w", bwc.ErrPerfRegression), 8},
		{fmt.Errorf("wrapped: %w", bwc.ErrDaemonUnreachable), 10},
		{fmt.Errorf("anything else"), 1},
	} {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
