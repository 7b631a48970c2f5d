package proto

import (
	"fmt"
	"testing"

	"bwc/internal/obs"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

// TestE9InvariantAllFamilies: the protocol-cost claim of the paper's
// Section 5 experiment — exactly two messages per visited node (one
// proposal, one acknowledgment, the virtual parent's pair included) —
// must hold on every synthetic platform family, forward-only and with
// result returns, and the deduplicated counting path must keep the
// Result field and the exported metric in lockstep.
func TestE9InvariantAllFamilies(t *testing.T) {
	for _, kind := range treegen.Kinds {
		for _, n := range []int{1, 2, 7, 23} {
			for d, tr := range returnVariants(t, treegen.Generate(kind, n, 42)) {
				e9Invariant(t, fmt.Sprintf("%s/%d/variant %d", kind, n, d), tr)
			}
		}
	}
}

func e9Invariant(t *testing.T, label string, tr *tree.Tree) {
	t.Helper()
	sc := obs.New()
	res := SolveObserved(tr, sc)

	if res.Messages != 2*res.VisitedCount {
		t.Errorf("%s: %d messages for %d visited nodes (want 2x)", label, res.Messages, res.VisitedCount)
	}
	reg := sc.Registry()
	if m := reg.Counter("bwc_protocol_messages_total", "").Value(); m != int64(res.Messages) {
		t.Errorf("%s: metric %d != Result.Messages %d", label, m, res.Messages)
	}
	if v := reg.Gauge("bwc_visited_nodes", "").Value(); v != int64(res.VisitedCount) {
		t.Errorf("%s: gauge %d != VisitedCount %d", label, v, res.VisitedCount)
	}
	if tx := reg.Counter("bwc_protocol_transactions_total", "").Value(); tx != int64(res.VisitedCount) {
		t.Errorf("%s: %d transactions for %d visited nodes", label, tx, res.VisitedCount)
	}
	// One span per transaction, i.e. per visited node.
	if spans := sc.SpansOnTrack("proto"); len(spans) != res.VisitedCount {
		t.Errorf("%s: %d proto spans, want %d", label, len(spans), res.VisitedCount)
	}
}

// TestObservedAgreesWithPlain: instrumentation must not change the
// negotiated numbers.
func TestObservedAgreesWithPlain(t *testing.T) {
	for _, kind := range treegen.Kinds {
		tr := treegen.Generate(kind, 15, 7)
		plain := SolveObserved(tr, nil)
		watched := SolveObserved(tr, obs.New())
		if !plain.Throughput.Equal(watched.Throughput) || plain.Messages != watched.Messages {
			t.Fatalf("%s: observed run diverged: %s/%d vs %s/%d", kind,
				watched.Throughput, watched.Messages, plain.Throughput, plain.Messages)
		}
	}
}
