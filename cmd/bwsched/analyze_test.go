package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bwc"
)

// writePaperPlatform drops the paper's example platform into dir.
func writePaperPlatform(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "paper.txt")
	if err := os.WriteFile(path, []byte(bwc.FormatPlatform(bwc.PaperExampleTree())), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAnalyzeCleanRunExitsZero drives the documented offline loop: obs
// writes the JSONL evidence, analyze replays it and exits 0 with every
// check passing.
func TestAnalyzeCleanRunExitsZero(t *testing.T) {
	dir := t.TempDir()
	plat := writePaperPlatform(t, dir)
	log := filepath.Join(dir, "run.jsonl")

	if code := run([]string{"obs", "-f", plat, "-stop", "200", "-log-out", log}); code != 0 {
		t.Fatalf("obs exit %d", code)
	}
	stderr, code := captureStderr(t, func() int {
		return run([]string{"analyze", "-trace", log, "-f", plat, "-stop", "200"})
	})
	if code != 0 {
		t.Fatalf("analyze exit %d, stderr %q", code, stderr)
	}
}

// TestAnalyzeFaultExitsNonzero pins the CI contract: evidence from a run
// whose link degraded under a stale schedule must make analyze exit
// nonzero with a structured error naming the failed checks.
func TestAnalyzeFaultExitsNonzero(t *testing.T) {
	dir := t.TempDir()
	plat := writePaperPlatform(t, dir)

	tr := bwc.PaperExampleTree()
	s, err := bwc.BuildSchedule(bwc.Solve(tr))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := tr.WithCommTime(tr.MustLookup("P4"), bwc.RatInt(6))
	if err != nil {
		t.Fatal(err)
	}
	ob := bwc.NewObserver()
	_, err = bwc.Simulate(s, bwc.WithStop(bwc.RatInt(360)), bwc.WithObserver(ob),
		bwc.WithSimOptions(bwc.SimOptions{Physics: []bwc.DynPhysics{{Tree: slow}}}))
	if err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "fault.jsonl")
	f, err := os.Create(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := ob.WriteSpansJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	stderr, code := captureStderr(t, func() int {
		return run([]string{"analyze", "-trace", log, "-f", plat, "-stop", "360"})
	})
	if code != 1 {
		t.Fatalf("analyze exit %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "conformance check(s) failed") {
		t.Fatalf("stderr %q does not report failed checks", stderr)
	}
}

// TestDynamicLogOutFeedsAnalyze is the CI smoke, pinned as a test: the
// dynamic command's -log-out evidence of a stale schedule over a
// degraded link makes analyze exit 1.
func TestDynamicLogOutFeedsAnalyze(t *testing.T) {
	dir := t.TempDir()
	plat := writePaperPlatform(t, dir)
	log := filepath.Join(dir, "fault.jsonl")
	if code := run([]string{"dynamic", "-f", plat, "-degrade", "P4=6",
		"-at", "0", "-lag", "1000", "-stop", "360", "-log-out", log}); code != 0 {
		t.Fatalf("dynamic exit %d", code)
	}
	stderr, code := captureStderr(t, func() int {
		return run([]string{"analyze", "-trace", log, "-f", plat, "-stop", "360"})
	})
	if code != 1 || !strings.Contains(stderr, "conformance check(s) failed") {
		t.Fatalf("analyze exit %d, stderr %q", code, stderr)
	}
}

// TestAnalyzeRequiresTrace: missing -trace is a command error, not a
// silent empty report.
func TestAnalyzeRequiresTrace(t *testing.T) {
	stderr, code := captureStderr(t, func() int { return run([]string{"analyze"}) })
	if code != 1 || !strings.Contains(stderr, "-trace is required") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}
