package sched

import (
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/rat"
)

// refSlot is a slot of the sort-based reference, its position held as a
// rational.
type refSlot struct {
	Dest Dest
	Pos  rat.R
}

// sortInterleave is the Figure-3 construction as a stable sort of every
// position: the reference the merge in interleavePattern must reproduce
// slot for slot.
func sortInterleave(ns *NodeSchedule) []refSlot {
	ds := destCounts(ns)
	total := 0
	for _, d := range ds {
		total += int(d.psi)
	}
	slots := make([]refSlot, 0, total)
	for _, d := range ds {
		den := d.psi + 1
		for k := int64(1); k <= d.psi; k++ {
			slots = append(slots, refSlot{Dest: d.dest, Pos: rat.New(k, den)})
		}
	}
	psiOf := make(map[Dest]int64, len(ds))
	for _, d := range ds {
		psiOf[d.dest] = d.psi
	}
	sort.SliceStable(slots, func(i, j int) bool {
		c := slots[i].Pos.Cmp(slots[j].Pos)
		if c != 0 {
			return c < 0
		}
		pi, pj := psiOf[slots[i].Dest], psiOf[slots[j].Dest]
		if pi != pj {
			return pi < pj // smaller ψ wins the contested task
		}
		return slots[i].Dest < slots[j].Dest // then smaller index (Self=-1 first)
	})
	return slots
}

// psiNode fabricates a node schedule with the given ψ_0 and child ψs.
func psiNode(psi0 int64, psi []int64) *NodeSchedule {
	ns := &NodeSchedule{Psi0: big.NewInt(psi0), Psi: make([]*big.Int, len(psi))}
	for j, p := range psi {
		ns.Psi[j] = big.NewInt(p)
	}
	return ns
}

// checkAgainstSort fails unless the merged pattern has the reference's
// destination and position at every index.
func checkAgainstSort(t *testing.T, psi0 int64, psi []int64) {
	t.Helper()
	ns := psiNode(psi0, psi)
	got, want := interleavePattern(ns), sortInterleave(ns)
	if len(got) != len(want) {
		t.Fatalf("ψ_0=%d ψ=%v: merge made %d slots, sort %d", psi0, psi, len(got), len(want))
	}
	for i := range want {
		if got[i].Dest != want[i].Dest || !got[i].Pos().Equal(want[i].Pos) {
			t.Fatalf("ψ_0=%d ψ=%v: slot %d is (%d, %s), sort has (%d, %s)",
				psi0, psi, i, got[i].Dest, got[i].Pos(), want[i].Dest, want[i].Pos)
		}
	}
}

// TestInterleaveMatchesSortReference: on hand-picked tie patterns and on
// random ψ vectors (Self present and absent, zero entries, repeated ψ,
// fan-out up to 64, Ψ up to 2^14), the merge and the stable sort produce
// the same destination and position sequence.
func TestInterleaveMatchesSortReference(t *testing.T) {
	// ψ = 2^i − 1 puts every stream on a power-of-two grid, so 1/2 is
	// contested by all of them, 1/4 and 3/4 by all but one, and so on;
	// the sum is 16,369, just under 2^14.
	nested := make([]int64, 13)
	for i := range nested {
		nested[i] = 1<<(13-i) - 1
	}
	equal64 := make([]int64, 64)
	for i := range equal64 {
		equal64[i] = 255
	}
	fixed := []struct {
		psi0 int64
		psi  []int64
	}{
		{0, nil},
		{5, nil},
		{0, []int64{7}},
		{1, []int64{2, 4}},    // Figure 3
		{1, []int64{1, 3}},    // three-way tie at 1/2
		{0, []int64{1, 1, 3}}, // the same tie without Self
		{3, []int64{0, 1, 0}}, // zero entries between children
		{2, []int64{2, 2, 0, 2}},
		{0, nested},
		{1, nested},
		{0, equal64},
		{1 << 14, nil},
	}
	for _, c := range fixed {
		checkAgainstSort(t, c.psi0, c.psi)
	}

	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		fanout := r.Intn(65)
		// Cap each ψ so Ψ stays at most 2^14; a small cap packs the
		// streams' grids tightly and makes ties common.
		maxPsi := int64(1) + r.Int63n(int64(1<<14/(fanout+1)))
		draw := func() int64 { return r.Int63n(maxPsi + 1) }
		var psi0 int64
		if r.Intn(2) == 0 {
			psi0 = 1 + r.Int63n(maxPsi)
		}
		psi := make([]int64, fanout)
		for j := range psi {
			switch {
			case r.Intn(5) == 0:
				psi[j] = 0
			case j > 0 && r.Intn(4) == 0:
				psi[j] = psi[r.Intn(j)]
			default:
				psi[j] = draw()
			}
		}
		checkAgainstSort(t, psi0, psi)
	}
}

// FuzzInterleave compares the merge with the sort reference on fuzzed
// ψ vectors: ψ_0 from the first argument, one child per byte of the
// second (fan-out capped at 64, so Ψ stays below 2^14 + 2^12).
func FuzzInterleave(f *testing.F) {
	f.Add(uint16(1), []byte{2, 4})
	f.Add(uint16(1), []byte{1, 3})
	f.Add(uint16(0), []byte{1, 1, 3})
	f.Add(uint16(3), []byte{0, 1, 0})
	f.Add(uint16(0), []byte{255, 127, 63, 31, 15, 7, 3, 1})
	f.Fuzz(func(t *testing.T, self uint16, children []byte) {
		if len(children) > 64 {
			children = children[:64]
		}
		psi := make([]int64, len(children))
		for j, b := range children {
			psi[j] = int64(b)
		}
		checkAgainstSort(t, int64(self%(1<<12)), psi)
	})
}

// TestCheckInvariantsRejectsBadPatterns: the integer pattern checks
// catch each way a pattern can be malformed.
func TestCheckInvariantsRejectsBadPatterns(t *testing.T) {
	s, err := Build(bwfirst.Solve(paperTree()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	root := &s.Nodes[s.Tree.Root()]
	good := root.Pattern
	if len(good) < 3 || good[0].Dest == good[1].Dest {
		t.Fatalf("fixture: root pattern %v", patternDests(good))
	}
	corrupt := []struct {
		name string
		edit func(p []Slot) []Slot
	}{
		{"swapped", func(p []Slot) []Slot { p[0], p[1] = p[1], p[0]; return p }},
		{"unknown-dest", func(p []Slot) []Slot { p[0].Dest = Dest(len(root.Psi)); return p }},
		{"missing-slot", func(p []Slot) []Slot { return p[:len(p)-1] }},
		{"position-one", func(p []Slot) []Slot { p[len(p)-1].k = p[len(p)-1].den; return p }},
		{"position-zero", func(p []Slot) []Slot { p[0].k = 0; return p }},
	}
	for _, c := range corrupt {
		root.Pattern = c.edit(append([]Slot(nil), good...))
		if err := s.CheckInvariants(); err == nil {
			t.Errorf("%s: corrupted pattern passed", c.name)
		}
	}
	root.Pattern = good
}
