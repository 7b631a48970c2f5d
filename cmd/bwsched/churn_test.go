package main

import (
	"strings"
	"testing"
)

// TestCmdChurnStabilizes pins the positive churn-smoke contract: a
// seeded run over the paper platform that self-stabilizes prints the
// re-solve cycles and "stabilized:", and run() exits 0.
func TestCmdChurnStabilizes(t *testing.T) {
	f := platformFile(t)
	var code int
	out := capture(t, func() error {
		code = run([]string{"churn", "-f", f, "-seed", "6", "-rate", "3", "-duration", "600"})
		return nil
	})
	if code != 0 {
		t.Fatalf("exit code %d, want 0\n%s", code, out)
	}
	for _, frag := range []string{"churn:     seed 6", "cycle #1:", "spine", "reused", "stabilized:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

// TestCmdChurnCollapse pins the negative contract: crash-heavy churn
// that drives retained throughput below the retention floor exits with
// the dedicated collapse code 9.
func TestCmdChurnCollapse(t *testing.T) {
	f := platformFile(t)
	var code int
	capture(t, func() error {
		code = run([]string{"churn", "-f", f, "-seed", "3", "-rate", "40", "-crash-frac", "0.9", "-duration", "600"})
		return nil
	})
	if code != 9 {
		t.Fatalf("exit code %d, want 9 (ErrChurnCollapse)", code)
	}
}

// TestCmdChurnReproducible: the same seed replays a byte-identical
// report (the determinism half of the churn contract, at CLI level).
func TestCmdChurnReproducible(t *testing.T) {
	f := platformFile(t)
	args := []string{"churn", "-f", f, "-seed", "6", "-rate", "3", "-duration", "600", "-log"}
	out1 := capture(t, func() error { run(args); return nil })
	out2 := capture(t, func() error { run(args); return nil })
	if out1 != out2 {
		t.Fatalf("same seed produced different output:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
}

// TestCmdChurnCrashedRootExits5: a crashed root leaves nothing to
// schedule, under churn as in `adapt`: the run ends at its first drift
// with ErrInfeasible (exit 5) instead of retrying, and the no-drift line
// is not printed.
func TestCmdChurnCrashedRootExits5(t *testing.T) {
	f := platformFile(t)
	var out string
	stderr, code := captureStderr(t, func() int {
		var code int
		out, code = captureStdoutCode(t, func() int {
			return run([]string{"churn", "-f", f, "-seed", "6", "-rate", "3", "-duration", "600", "-log", "-fault", "100:crash:P0"})
		})
		return code
	})
	if code != 5 {
		t.Fatalf("exit code %d, want 5 (ErrInfeasible); stderr %q\n%s", code, stderr, out)
	}
	if n := strings.Count(out, "log: drift "); n != 1 {
		t.Errorf("%d drifts logged, want the run to end at the first:\n%s", n, out)
	}
	for _, frag := range []string{"no drift detected", "log: retry", "retention:"} {
		if strings.Contains(out, frag) {
			t.Errorf("output contains %q:\n%s", frag, out)
		}
	}
}
