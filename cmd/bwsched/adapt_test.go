package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdoutCode is capture for run-style functions: it redirects
// stdout while fn runs and returns what was printed with fn's exit code.
func captureStdoutCode(t *testing.T, fn func() int) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
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
	os.Stdout = old
	return <-outCh, code
}

// TestAdaptSelfHeals pins the PR's demo contract on the paper's dynamic
// scenario (P1's link degrades to c=4 at t=120): the stale regime must
// fail conformance, the adapted regime must pass it, and the command must
// exit 0 — the lines CI greps for.
func TestAdaptSelfHeals(t *testing.T) {
	plat := writePaperPlatform(t, t.TempDir())
	out, code := captureStdoutCode(t, func() int {
		return run([]string{"adapt", "-f", plat, "-degrade", "P1=4", "-at", "120", "-stop", "400"})
	})
	if code != 0 {
		t.Fatalf("adapt exit %d:\n%s", code, out)
	}
	for _, frag := range []string{
		"t=120 link-set P1 4",
		"pre-swap:  FAIL",
		"post-swap: PASS",
		"throughput 137/180",
		"healed:",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

// TestAdaptDetectOnlyExitsStale: with adaptation disabled the same drift
// must surface as ErrScheduleStale, exit code 6.
func TestAdaptDetectOnlyExitsStale(t *testing.T) {
	plat := writePaperPlatform(t, t.TempDir())
	stderr, code := captureStderr(t, func() int {
		return run([]string{"adapt", "-f", plat, "-degrade", "P1=4", "-at", "120", "-stop", "400", "-detect-only"})
	})
	if code != 6 {
		t.Fatalf("detect-only exit %d, want 6; stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "drift") {
		t.Errorf("stderr does not describe the drift: %q", stderr)
	}
}

// TestAdaptCleanRunNoDrift: without faults past the horizon nothing
// fires; the command reports a conforming schedule and exits 0.
func TestAdaptCleanRunNoDrift(t *testing.T) {
	plat := writePaperPlatform(t, t.TempDir())
	// A restore at t=0 is a no-op fault: the timeline is non-empty but
	// the platform never deviates from the baseline.
	out, code := captureStdoutCode(t, func() int {
		return run([]string{"adapt", "-f", plat, "-fault", "0:link-restore:P1", "-stop", "200"})
	})
	if code != 0 {
		t.Fatalf("clean adapt exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "no drift detected") {
		t.Errorf("output missing the no-drift line:\n%s", out)
	}
}

// TestAdaptLateDriftVerifiedAsIs: a drift with no swap boundary left
// before the horizon is named, and the run is verified as it stands —
// exit 1 for its failed checks, as when the same fault comes too late to
// be detected at all.
func TestAdaptLateDriftVerifiedAsIs(t *testing.T) {
	plat := writePaperPlatform(t, t.TempDir())
	for _, at := range []string{"320", "360"} {
		var out string
		_, code := captureStderr(t, func() int {
			var code int
			out, code = captureStdoutCode(t, func() int {
				return run([]string{"adapt", "-f", plat, "-degrade", "P1=4", "-at", at, "-stop", "400"})
			})
			return code
		})
		if code != 1 {
			t.Fatalf("-at %s: exit %d, want 1:\n%s", at, code, out)
		}
		if !strings.Contains(out, "post-swap: FAIL") {
			t.Errorf("-at %s: output missing the failed verification:\n%s", at, out)
		}
		late := strings.Contains(out, "late:      no swap boundary before the horizon 400")
		if drift := strings.Contains(out, "drift:     t=400"); late != drift || late != (at == "320") {
			t.Errorf("-at %s: late drift named %v, drift line %v:\n%s", at, late, drift, out)
		}
	}
}

// TestAdaptCrashPrunesSubtree: a crashed node must be pruned by the
// re-solve and named in the adapt log.
func TestAdaptCrashPrunesSubtree(t *testing.T) {
	plat := writePaperPlatform(t, t.TempDir())
	out, code := captureStdoutCode(t, func() int {
		return run([]string{"adapt", "-f", plat, "-fault", "100:crash:P2", "-stop", "600"})
	})
	if code != 0 {
		t.Fatalf("crash adapt exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "pruned P2") {
		t.Errorf("output missing the pruned subtree:\n%s", out)
	}
}

// TestExitCodeNotATree: a malformed platform maps to exit 4.
func TestExitCodeNotATree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("P0 - - 9\nP1 P0 0 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr, code := captureStderr(t, func() int {
		return run([]string{"throughput", "-f", path})
	})
	if code != 4 {
		t.Fatalf("malformed platform exit %d, want 4; stderr %q", code, stderr)
	}
}

// TestAdaptBadFaultSpec: malformed -fault specs are usage errors.
func TestAdaptBadFaultSpec(t *testing.T) {
	plat := writePaperPlatform(t, t.TempDir())
	for _, spec := range []string{"nonsense", "120:warp:P1", "120:crash:P2:3", "120:link-set:P1"} {
		if _, code := captureStderr(t, func() int {
			return run([]string{"adapt", "-f", plat, "-fault", spec})
		}); code == 0 {
			t.Errorf("fault spec %q accepted", spec)
		}
	}
}
