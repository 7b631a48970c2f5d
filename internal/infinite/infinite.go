// Package infinite analyses infinite regular trees, reproducing the last
// observation of the paper's Section 5: the BW-First machinery can
// determine the throughput of infinite network trees — which the bottom-up
// method, needing leaves to start from, cannot — and, following Bataineh
// and Robertazzi [3], a finite truncation performs almost as well as the
// infinite tree.
//
// For an infinite k-ary tree whose every node computes one task in w time
// units and every edge carries one task in c time units, the equivalent
// computing rate x of any subtree satisfies the self-similarity fixed
// point x = R(x), where R is the Proposition 1 fork reduction of a parent
// of rate r = 1/w with k children of rate x behind links of time c. In a
// bandwidth-saturated reduction the port delivers exactly b = 1/c tasks
// per unit downstream regardless of how they are split, so R(x) = r + b
// whenever k·c·x > 1 — and since r + b always satisfies that inequality
// for k ≥ 1, the infinite tree's rate is exactly
//
//	x* = 1/w + 1/c.
//
// Truncations approach x* monotonically from below: x_0 = r (a leaf) and
// x_{d+1} = R(x_d). The package computes both exactly.
package infinite

import (
	"fmt"

	"bwc/internal/fork"
	"bwc/internal/rat"
)

// Spec describes a uniform infinite k-ary tree.
type Spec struct {
	Fanout int   // k >= 1
	Proc   rat.R // w > 0, time units per task at every node
	Comm   rat.R // c > 0, time units per task on every edge
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Fanout < 1 {
		return fmt.Errorf("infinite: fanout must be >= 1 (got %d)", s.Fanout)
	}
	if !s.Proc.IsPos() {
		return fmt.Errorf("infinite: proc time must be > 0 (got %s)", s.Proc)
	}
	if !s.Comm.IsPos() {
		return fmt.Errorf("infinite: comm time must be > 0 (got %s)", s.Comm)
	}
	return nil
}

// Rate returns the exact equivalent computing rate of the infinite tree:
// 1/w + 1/c (see the package comment for the derivation).
func (s Spec) Rate() (rat.R, error) {
	if err := s.Validate(); err != nil {
		return rat.Zero, err
	}
	return s.Proc.Inv().Add(s.Comm.Inv()), nil
}

// reduce applies one level of the self-similar reduction: a node of rate
// 1/w over k children of rate x.
func (s Spec) reduce(x rat.R) rat.R {
	children := make([]fork.Child, s.Fanout)
	for i := range children {
		children[i] = fork.Child{Comm: s.Comm, Rate: x}
	}
	return fork.Reduce(s.Proc.Inv(), children).Rate
}

// TruncatedRate returns the equivalent rate of the depth-d truncation
// (depth 0 is a single node). It is exact and increases monotonically to
// Rate() as d grows.
func (s Spec) TruncatedRate(depth int) (rat.R, error) {
	if err := s.Validate(); err != nil {
		return rat.Zero, err
	}
	if depth < 0 {
		return rat.Zero, fmt.Errorf("infinite: negative depth %d", depth)
	}
	x := s.Proc.Inv()
	for d := 0; d < depth; d++ {
		x = s.reduce(x)
	}
	return x, nil
}
