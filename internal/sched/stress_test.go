package sched

import (
	"math/rand"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/rat"
	"bwc/internal/tree"
)

// awkwardTree mirrors the bwfirst stress generator: prime denominators
// produce huge LCM periods, exercising long bunches and the big.Int
// period arithmetic.
func awkwardTree(r *rand.Rand, n int) *tree.Tree {
	dens := []int64{1, 2, 3, 5, 7, 11, 13}
	randR := func() rat.R {
		return rat.New(r.Int63n(12)+1, dens[r.Intn(len(dens))])
	}
	b := tree.NewBuilder()
	b.Root("n0", randR())
	names := []string{"n0"}
	for i := 1; i < n; i++ {
		parent := names[r.Intn(len(names))]
		name := names[len(names)-1] + "x"
		if r.Intn(5) == 0 {
			b.SwitchChild(parent, name, randR())
		} else {
			b.Child(parent, name, randR(), randR())
		}
		names = append(names, name)
	}
	return b.MustBuild()
}

// TestScheduleInvariantsOnAwkwardRationals: every schedule quantity stays
// integral and conserved even when the periods explode combinatorially,
// and a cursor walks the long bunches this produces in Figure-3 order
// from O(fan-out) state.
func TestScheduleInvariantsOnAwkwardRationals(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	sawLong := false
	for trial := 0; trial < 50; trial++ {
		tr := awkwardTree(r, 3+r.Intn(15))
		res := bwfirst.Solve(tr)
		s, err := Build(res, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, tr)
		}
		for i := range s.Nodes {
			ns := &s.Nodes[i]
			// χ must be integral for every node (Chi panics otherwise).
			_ = s.Chi(ns.Node)
			if !ns.Active || ns.Bunch.Int64() <= 1<<12 {
				continue
			}
			sawLong = true
			c := s.Cursor(ns.Node, nil)
			last := Slot{den: 1}
			for range 1 << 10 {
				sl := c.Next()
				if !before(last, sl) || sl.Dest < Self || int(sl.Dest) >= len(ns.Psi) {
					t.Fatalf("trial %d node %s: slot (%d, %s) after (%d, %s)",
						trial, tr.Name(ns.Node), sl.Dest, sl.Pos(), last.Dest, last.Pos())
				}
				last = sl
			}
		}
	}
	if !sawLong {
		t.Fatal("no trial produced a bunch longer than 2^12 slots")
	}
}
