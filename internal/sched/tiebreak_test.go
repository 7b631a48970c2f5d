package sched

import (
	"math/big"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/rat"
	"bwc/internal/tree"
)

// TestTieBreakTable pins the Section 6.3 contested-position rule of the
// Figure-3 interleave: slots whose positions k/(ψ_d+1) coincide go to
// the destination with the smaller ψ, and at equal ψ to the smaller
// index (Self = -1 before child 0 before child 1, the insertion order of
// the children).
func TestTieBreakTable(t *testing.T) {
	n := func(v int64) *big.Int { return big.NewInt(v) }
	cases := []struct {
		name string
		ns   *NodeSchedule
		want []Dest
	}{
		{
			// No ties: the paper's worked example (ψ_0=1, ψ_1=2, ψ_2=4).
			name: "figure3-no-ties",
			ns:   &NodeSchedule{Psi0: n(1), Psi: []*big.Int{n(2), n(4)}},
			want: []Dest{1, 0, 1, Self, 1, 0, 1},
		},
		{
			// 2/4 collides with 1/2: the contested slot goes to the
			// child with ψ=1, not the ψ=3 stream it interrupts.
			name: "smaller-psi-wins",
			ns:   &NodeSchedule{Psi0: n(3), Psi: []*big.Int{n(1)}},
			want: []Dest{Self, 0, Self, Self},
		},
		{
			// Two children with equal ψ (as produced by equal c on
			// identical links): every position is contested and the
			// smaller child index goes first each time.
			name: "equal-psi-equal-c-children",
			ns:   &NodeSchedule{Psi0: n(0), Psi: []*big.Int{n(2), n(2)}},
			want: []Dest{0, 1, 0, 1},
		},
		{
			// Self carries index -1, so at equal ψ the node computes
			// before it delegates the contested slot.
			name: "equal-psi-self-first",
			ns:   &NodeSchedule{Psi0: n(1), Psi: []*big.Int{n(1)}},
			want: []Dest{Self, 0},
		},
		{
			// Three-way collision at 1/2 resolves ψ first, then index:
			// the two ψ=1 streams (Self before child 0) precede the ψ=3
			// child's contested slot.
			name: "three-way-collision",
			ns:   &NodeSchedule{Psi0: n(1), Psi: []*big.Int{n(1), n(3)}},
			want: []Dest{1, Self, 0, 1, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := patternDests(interleavePattern(tc.ns))
			if len(got) != len(tc.want) {
				t.Fatalf("pattern = %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("pattern = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestTieBreakEndToEnd drives the equal-ψ equal-c case through the real
// pipeline: two identical children (same c, same w) get equal ψ from the
// solver, and the bunch order must alternate them smaller-index first.
func TestTieBreakEndToEnd(t *testing.T) {
	pl := tree.NewBuilder().
		Root("P0", rat.FromInt(1)).
		Child("P0", "P1", rat.FromInt(1), rat.FromInt(2)).
		Child("P0", "P2", rat.FromInt(1), rat.FromInt(2)).
		MustBuild()
	s, err := Build(bwfirst.Solve(pl), Options{})
	if err != nil {
		t.Fatal(err)
	}
	root := &s.Nodes[pl.Root()]
	if root.Psi[0].Cmp(root.Psi[1]) != 0 {
		t.Fatalf("identical children got different ψ: %v vs %v", root.Psi[0], root.Psi[1])
	}
	pattern := patternOf(s, pl.Root())
	var last Dest = Self
	for _, sl := range pattern {
		if sl.Dest == Self {
			last = Self
			continue
		}
		if sl.Dest == last {
			t.Fatalf("equal-ψ children not alternating in %v", patternDests(pattern))
		}
		if last == Self && sl.Dest != 0 {
			t.Fatalf("contested position went to child %d before child 0: %v",
				sl.Dest, patternDests(pattern))
		}
		last = sl.Dest
	}
}
