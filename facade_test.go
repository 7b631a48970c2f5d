package bwc_test

import (
	"errors"
	"testing"

	"bwc"
)

// TestSimulateAdaptiveFacade: the one-call adaptive loop on the paper's
// degraded-link scenario heals via exactly one re-negotiation.
func TestSimulateAdaptiveFacade(t *testing.T) {
	res := bwc.Solve(bwc.PaperExampleTree())
	s, err := bwc.BuildSchedule(res)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bwc.SimulateAdaptive(s,
		bwc.WithFaults(bwc.DegradeLink(bwc.RatInt(120), "P1", bwc.RatInt(4))),
		bwc.WithStop(bwc.RatInt(400)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healed {
		t.Fatal("degraded-link run did not heal")
	}
	if len(rep.Adaptations) != 1 {
		t.Fatalf("%d adaptations, want 1", len(rep.Adaptations))
	}
	if rep.Pre == nil || rep.Pre.Healthy() {
		t.Error("pre-swap regime should fail conformance under the stale schedule")
	}
	if rep.Post == nil || !rep.Post.Healthy() {
		t.Error("post-swap regime should pass conformance")
	}
}

// TestDetectDriftSentinel: detect-only drift reports classify as
// ErrScheduleStale via errors.Is, from SimulateAdaptive and from a churn
// run with WithDetectOnly alike.
func TestDetectDriftSentinel(t *testing.T) {
	res := bwc.Solve(bwc.PaperExampleTree())
	s, err := bwc.BuildSchedule(res)
	if err != nil {
		t.Fatal(err)
	}
	_, err = bwc.SimulateAdaptive(s,
		bwc.WithFaults(bwc.DegradeLink(bwc.RatInt(120), "P1", bwc.RatInt(4))),
		bwc.WithStop(bwc.RatInt(400)),
		bwc.WithDetectOnly(),
	)
	if !errors.Is(err, bwc.ErrScheduleStale) {
		t.Fatalf("SimulateAdaptive with WithDetectOnly = %v, want ErrScheduleStale", err)
	}
	// A healthy run reports no drift.
	if _, err := bwc.SimulateAdaptive(s, bwc.WithStop(bwc.RatInt(200)), bwc.WithDetectOnly()); err != nil {
		t.Fatalf("clean run reported drift: %v", err)
	}
	_, err = bwc.SimulateChurn(s,
		bwc.WithChurn(bwc.ChurnConfig{Seed: 11, Rate: 3}),
		bwc.WithFaults(bwc.DegradeLink(bwc.RatInt(120), "P1", bwc.RatInt(4))),
		bwc.WithStop(bwc.RatInt(600)),
		bwc.WithDetectOnly(),
	)
	if !errors.Is(err, bwc.ErrScheduleStale) {
		t.Fatalf("SimulateChurn with WithDetectOnly = %v, want ErrScheduleStale", err)
	}
}

// TestErrNotATreeSentinel: structural platform errors — from the text
// parser and from the builder — classify as ErrNotATree.
func TestErrNotATreeSentinel(t *testing.T) {
	if _, err := bwc.ParsePlatformString("P0 - - 9\nP1 P0 0 8\n"); !errors.Is(err, bwc.ErrNotATree) {
		t.Fatalf("zero comm parse error = %v, want ErrNotATree", err)
	}
	b := bwc.NewBuilder()
	b.Root("A", bwc.RatInt(1))
	b.Child("missing", "B", bwc.RatInt(1), bwc.RatInt(1))
	if _, err := b.Build(); !errors.Is(err, bwc.ErrNotATree) {
		t.Fatalf("orphan child build error = %v, want ErrNotATree", err)
	}
}
