// Package sensitivity quantifies how the optimal steady-state throughput
// responds to upgrading individual resources — the operational companion
// to bwfirst.Bottlenecks. For every node CPU and every link it re-solves
// the platform with that one resource made faster by a given factor and
// reports the exact throughput gain. Since BW-First is O(visited), a full
// sweep costs O(n²) at worst — the "quick evaluation" use-case of
// Section 5 again.
package sensitivity

import (
	"fmt"
	"sort"

	"bwc/internal/bwfirst"
	"bwc/internal/rat"
	"bwc/internal/tree"
)

// Kind of resource being upgraded.
type Kind string

// Resource kinds.
const (
	CPU  Kind = "cpu"
	Link Kind = "link"
)

// Upgrade reports the effect of speeding one resource up.
type Upgrade struct {
	Node tree.NodeID
	Kind Kind
	// Gain is the exact throughput increase when the resource's time per
	// task is divided by the speedup factor.
	Gain rat.R
}

// Analyze sweeps every resource with the given speedup factor (> 1) and
// returns the upgrades sorted by decreasing gain (ties by node id, CPUs
// before links). Resources whose upgrade changes nothing are included with
// zero gain, so the caller sees the full landscape.
func Analyze(t *tree.Tree, speedup rat.R) ([]Upgrade, error) {
	if !rat.One.Less(speedup) {
		return nil, fmt.Errorf("sensitivity: speedup must be > 1, got %s", speedup)
	}
	base := bwfirst.Solve(t).Throughput
	var out []Upgrade
	for id := 0; id < t.Len(); id++ {
		nid := tree.NodeID(id)
		if w, ok := t.ProcTime(nid); ok {
			mod, err := t.WithProcTime(nid, w.Div(speedup))
			if err != nil {
				return nil, err
			}
			out = append(out, Upgrade{
				Node: nid, Kind: CPU,
				Gain: bwfirst.Solve(mod).Throughput.Sub(base),
			})
		}
		if nid != t.Root() {
			mod, err := t.WithCommTime(nid, t.CommTime(nid).Div(speedup))
			if err != nil {
				return nil, err
			}
			out = append(out, Upgrade{
				Node: nid, Kind: Link,
				Gain: bwfirst.Solve(mod).Throughput.Sub(base),
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		c := out[j].Gain.Cmp(out[i].Gain)
		if c != 0 {
			return c < 0
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Kind == CPU && out[j].Kind == Link
	})
	return out, nil
}
