// Package adapt closes the loop the paper leaves open in Section 5: BW-
// First is cheap enough to re-run whenever the platform drifts, so a
// production system should detect the drift, re-negotiate, and hot-swap
// the schedule without stopping the run. The package supplies the three
// pieces — a fault-injection layer that perturbs link and node weights on
// a timeline, a drift detector that watches windowed per-node throughput
// and buffer watermarks against the active schedule (reusing the
// conformance analyzer's reconstruction logic), and a re-solve/hot-swap
// controller that re-runs BW-First incrementally on the measured platform
// (a crashed node's subtree is pruned) and installs the changed node
// schedules at a period boundary.
//
// The controller is one loop on the exact discrete-event simulator, and
// deterministic. Two entry points pick its policy: SimulateAdaptive (the
// `bwsched adapt` demo, scripted faults) and SimulateChurn (`bwsched
// churn`: seeded churn, flap quarantine, a retention floor with retries).
package adapt

import (
	"fmt"
	"math/rand"
	"sort"

	"bwc/internal/rat"
	"bwc/internal/sim"
	"bwc/internal/tree"
)

// FaultKind selects how a Fault perturbs the platform.
type FaultKind int

const (
	// LinkSet replaces the node's incoming communication time with Value.
	LinkSet FaultKind = iota
	// LinkScale multiplies the node's incoming communication time by
	// Value (a degradation for Value > 1).
	LinkScale
	// LinkRestore resets the node's incoming link to its baseline c.
	LinkRestore
	// NodeSet replaces the node's processing time with Value.
	NodeSet
	// NodeScale multiplies the node's processing time by Value (a
	// slowdown for Value > 1).
	NodeScale
	// NodeRestore resets the node's processing time to its baseline w.
	NodeRestore
	// Crash fail-stops the node's process: its compute rate collapses (w
	// scaled by the controller's crash factor), and the next re-solve
	// prunes its subtree. The link itself stays up (the network outlives
	// the process), and a crash is permanent for the run.
	Crash
)

func (k FaultKind) String() string {
	switch k {
	case LinkSet:
		return "link-set"
	case LinkScale:
		return "link-scale"
	case LinkRestore:
		return "link-restore"
	case NodeSet:
		return "node-set"
	case NodeScale:
		return "node-scale"
	case NodeRestore:
		return "node-restore"
	case Crash:
		return "crash"
	}
	return fmt.Sprintf("fault-kind-%d", int(k))
}

// Fault is one scripted perturbation of the platform at virtual time At.
type Fault struct {
	At   rat.R
	Node string
	Kind FaultKind
	// Value is the new absolute weight (LinkSet/NodeSet) or the scaling
	// factor (LinkScale/NodeScale); unused by restores and crashes.
	Value rat.R
}

func (f Fault) String() string {
	switch f.Kind {
	case LinkRestore, NodeRestore, Crash:
		return fmt.Sprintf("t=%s %s %s", f.At, f.Kind, f.Node)
	}
	return fmt.Sprintf("t=%s %s %s %s", f.At, f.Kind, f.Node, f.Value)
}

// Timeline compiles a fault script into the simulator's physics-change
// list: faults are applied cumulatively in At order (same-instant faults
// merge into one change), restores revert to the base tree's weights, and
// crashes scale the victim's w by crashFactor (its link is untouched; a
// crashed switch changes no weight — it is pruned at negotiation time
// instead). The returned changes share the base tree's shape, as
// sim.Simulate requires.
func Timeline(base *tree.Tree, faults []Fault, crashFactor rat.R) ([]sim.PhysicsChange, error) {
	if len(faults) == 0 {
		return nil, nil
	}
	fs := append([]Fault(nil), faults...)
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].At.Less(fs[j].At) })
	cur := base
	var out []sim.PhysicsChange
	for i := 0; i < len(fs); {
		at := fs[i].At
		if at.IsNeg() {
			return nil, fmt.Errorf("adapt: fault %q before t=0", fs[i])
		}
		for i < len(fs) && fs[i].At.Equal(at) {
			next, err := applyFault(cur, base, fs[i], crashFactor)
			if err != nil {
				return nil, err
			}
			cur = next
			i++
		}
		out = append(out, sim.PhysicsChange{At: at, Tree: cur})
	}
	return out, nil
}

// applyFault produces the tree after one fault, reading baseline weights
// from base.
func applyFault(cur, base *tree.Tree, f Fault, crashFactor rat.R) (*tree.Tree, error) {
	id, ok := cur.Lookup(f.Node)
	if !ok {
		return nil, fmt.Errorf("adapt: fault %q names unknown node", f)
	}
	switch f.Kind {
	case LinkSet:
		return faultErr(f)(cur.WithCommTime(id, f.Value))
	case LinkScale:
		if !f.Value.IsPos() {
			return nil, fmt.Errorf("adapt: fault %q needs a positive factor", f)
		}
		return faultErr(f)(cur.WithCommTime(id, cur.CommTime(id).Mul(f.Value)))
	case LinkRestore:
		return faultErr(f)(cur.WithCommTime(id, base.CommTime(id)))
	case NodeSet:
		return faultErr(f)(cur.WithProcTime(id, f.Value))
	case NodeScale:
		if !f.Value.IsPos() {
			return nil, fmt.Errorf("adapt: fault %q needs a positive factor", f)
		}
		w, okW := cur.ProcTime(id)
		if !okW {
			return nil, fmt.Errorf("adapt: fault %q targets a switch", f)
		}
		return faultErr(f)(cur.WithProcTime(id, w.Mul(f.Value)))
	case NodeRestore:
		w, okW := base.ProcTime(id)
		if !okW {
			return nil, fmt.Errorf("adapt: fault %q targets a switch", f)
		}
		return faultErr(f)(cur.WithProcTime(id, w))
	case Crash:
		w, okW := base.ProcTime(id)
		if !okW {
			return cur, nil // crashed switch: pruned at negotiation, no weight change
		}
		return faultErr(f)(cur.WithProcTime(id, w.Mul(crashFactor)))
	}
	return nil, fmt.Errorf("adapt: fault %q has unknown kind", f)
}

func faultErr(f Fault) func(*tree.Tree, error) (*tree.Tree, error) {
	return func(t *tree.Tree, err error) (*tree.Tree, error) {
		if err != nil {
			return nil, fmt.Errorf("adapt: fault %q: %v", f, err)
		}
		return t, nil
	}
}

// RandomFaults generates a reproducible fault script for t: n degradation
// events (link or node slowdowns by a factor of 2–8) at times spread over
// the middle of [0, horizon), half of them followed by a restore one
// fifth of the horizon later. The root is never targeted.
func RandomFaults(t *tree.Tree, seed int64, n int, horizon rat.R) []Fault {
	rng := rand.New(rand.NewSource(seed))
	var out []Fault
	if t.Len() < 2 || n <= 0 || !horizon.IsPos() {
		return out
	}
	for i := 0; i < n; i++ {
		id := tree.NodeID(1 + rng.Intn(t.Len()-1))
		// Times on a 1/8-of-horizon grid between 1/8 and 5/8, jittered by
		// the index so same-instant collisions stay possible but rare.
		at := horizon.Mul(rat.New(int64(1+rng.Intn(5)), 8)).Add(rat.New(int64(i), 16))
		factor := rat.FromInt(int64(2 + rng.Intn(7)))
		kind := LinkScale
		restore := LinkRestore
		if _, hasProc := t.ProcTime(id); hasProc && rng.Intn(2) == 0 {
			kind, restore = NodeScale, NodeRestore
		}
		out = append(out, Fault{At: at, Node: t.Name(id), Kind: kind, Value: factor})
		if rng.Intn(2) == 0 {
			out = append(out, Fault{At: at.Add(horizon.Mul(rat.New(1, 5))), Node: t.Name(id), Kind: restore})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Less(out[j].At) })
	return out
}
