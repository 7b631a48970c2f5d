package bwfirst

import (
	"fmt"
	"testing"

	"bwc/internal/obs"
	"bwc/internal/rat"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

// TestObservedSolveSpans pins what an observed solve records, forward
// and with result returns: one "bwfirst" span for the virtual parent and
// one per transaction, each parented under the transaction that
// proposed to its parent, carrying that transaction's β and θ, plus the
// transaction counter and the visited-node gauge.
func TestObservedSolveSpans(t *testing.T) {
	for _, kind := range treegen.Kinds {
		for _, d := range []rat.R{rat.Zero, rat.New(1, 2)} {
			tr, err := treegen.Generate(kind, 23, 5).WithUniformReturnTime(d)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v/d=%s", kind, d)
			sc := obs.New()
			res := SolveObserved(tr, sc)

			spans := sc.SpansOnTrack("bwfirst")
			if len(spans) != len(res.Transactions)+1 {
				t.Fatalf("%s: %d spans for %d transactions", label, len(spans), len(res.Transactions))
			}
			root := spans[0]
			if root.Parent != 0 || root.Name != "negotiate "+tr.Name(tr.Root()) {
				t.Fatalf("%s: virtual parent span %+v", label, root)
			}
			proposer := map[tree.NodeID]obs.SpanID{tr.Root(): root.ID}
			for i, tx := range res.Transactions {
				sp := spans[i+1]
				if want := "tx " + tr.Name(tx.Parent) + "→" + tr.Name(tx.Child); sp.Name != want {
					t.Fatalf("%s: span %d named %q, want %q", label, i, sp.Name, want)
				}
				if sp.Parent != proposer[tx.Parent] {
					t.Fatalf("%s: span %q parented under %d, want %d", label, sp.Name, sp.Parent, proposer[tx.Parent])
				}
				proposer[tx.Child] = sp.ID
				attrs := map[string]string{}
				for _, a := range sp.Attrs {
					attrs[a.Key] = a.Value
				}
				if attrs["beta"] != tx.Beta.String() || attrs["theta"] != tx.Theta.String() {
					t.Fatalf("%s: span %q attrs %v, want β=%s θ=%s", label, sp.Name, attrs, tx.Beta, tx.Theta)
				}
			}
			reg := sc.Registry()
			if n := reg.Counter("bwc_bwfirst_transactions_total", "").Value(); n != int64(len(res.Transactions)+1) {
				t.Fatalf("%s: transaction counter %d, want %d", label, n, len(res.Transactions)+1)
			}
			if v := reg.Gauge("bwc_bwfirst_visited_nodes", "").Value(); v != int64(res.VisitedCount) {
				t.Fatalf("%s: visited gauge %d, want %d", label, v, res.VisitedCount)
			}
		}
	}
}
