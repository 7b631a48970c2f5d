package sched

import (
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/rat"
	"bwc/internal/tree"
)

// refSlot is a slot of the sort-based reference, its position held as a
// rational.
type refSlot struct {
	Dest Dest
	Pos  rat.R
}

// destCount pairs a destination with its ψ.
type destCount struct {
	dest Dest
	psi  int64
}

// destCounts lists the row's destinations with ψ > 0, Self first.
func destCounts(ns *NodeSchedule) []destCount {
	var ds []destCount
	if ns.Psi0.Sign() > 0 {
		ds = append(ds, destCount{Self, ns.Psi0.Int64()})
	}
	for j, p := range ns.Psi {
		if p.Sign() > 0 {
			ds = append(ds, destCount{Dest(j), p.Int64()})
		}
	}
	return ds
}

// sortInterleave is the Figure-3 construction as a stable sort of every
// position: the reference a cursor's interleaved order must reproduce
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

// blockReference is the block order written out: each destination's ψ
// slots in turn, at uniform positions i/(Ψ+1).
func blockReference(ns *NodeSchedule) []refSlot {
	ds := destCounts(ns)
	total := int64(0)
	for _, d := range ds {
		total += d.psi
	}
	var slots []refSlot
	for _, d := range ds {
		for range d.psi {
			slots = append(slots, refSlot{Dest: d.dest, Pos: rat.New(int64(len(slots))+1, total+1)})
		}
	}
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

// cursorOf returns a cursor at the start of a fabricated row's bunch.
func cursorOf(ns *NodeSchedule, block bool) Cursor {
	s := &Schedule{Nodes: []NodeSchedule{*ns}, Block: block}
	return s.Cursor(0, nil)
}

// take returns the next n slots of c.
func take(c *Cursor, n int64) []Slot {
	out := make([]Slot, n)
	for i := range out {
		out[i] = c.Next()
	}
	return out
}

// interleavePattern materializes one bunch of a row's Figure-3 order.
func interleavePattern(ns *NodeSchedule) []Slot {
	c := cursorOf(ns, false)
	return take(&c, c.Len())
}

// blockPattern materializes one bunch of a row's block order.
func blockPattern(ns *NodeSchedule) []Slot {
	c := cursorOf(ns, true)
	return take(&c, c.Len())
}

// patternOf materializes one bunch of node id's order in s.
func patternOf(s *Schedule, id tree.NodeID) []Slot {
	c := s.Cursor(id, nil)
	return take(&c, c.Len())
}

// checkAgainstSort fails unless a cursor, interleaved and in block order,
// yields the reference's destination and position at every index for
// two full bunches, and reports each wrap.
func checkAgainstSort(t *testing.T, psi0 int64, psi []int64) {
	t.Helper()
	ns := psiNode(psi0, psi)
	for _, block := range []bool{false, true} {
		want := sortInterleave(ns)
		if block {
			want = blockReference(ns)
		}
		c := cursorOf(ns, block)
		if c.Len() != int64(len(want)) || c.Index() != 0 {
			t.Fatalf("ψ_0=%d ψ=%v block=%v: cursor over %d slots at %d, reference has %d",
				psi0, psi, block, c.Len(), c.Index(), len(want))
		}
		for wrap := 0; wrap < 2 && len(want) > 0; wrap++ {
			for i := range want {
				got := c.Next()
				if got.Dest != want[i].Dest || !got.Pos().Equal(want[i].Pos) {
					t.Fatalf("ψ_0=%d ψ=%v block=%v bunch %d: slot %d is (%d, %s), reference has (%d, %s)",
						psi0, psi, block, wrap, i, got.Dest, got.Pos(), want[i].Dest, want[i].Pos)
				}
				if next := (int64(i) + 1) % c.Len(); c.Index() != next {
					t.Fatalf("ψ_0=%d ψ=%v block=%v: index %d after slot %d", psi0, psi, block, c.Index(), i)
				}
			}
		}
	}
}

// TestInterleaveMatchesSortReference: on hand-picked tie patterns and on
// random ψ vectors (Self present and absent, zero entries, repeated ψ,
// fan-out up to 64, Ψ up to 2^14), a cursor and the stable sort produce
// the same destination and position sequence, bunch after bunch.
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

// FuzzInterleave drives a cursor through two full bunches, interleaved
// and in block order, against the references on fuzzed ψ vectors: ψ_0
// from the first argument, one child per byte of the second (fan-out
// capped at 64, so Ψ stays below 2^14 + 2^12).
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

// TestCheckInvariantsRejectsBadPatterns: a node's bunch order is a
// function of its ψ counts, so a bad pattern is a bad count; the checks
// catch each way one can disagree with Lemma 1.
func TestCheckInvariantsRejectsBadPatterns(t *testing.T) {
	s, err := Build(bwfirst.Solve(paperTree()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	root := &s.Nodes[s.Tree.Root()]
	if len(root.Psi) != 3 || root.Psi[1].Cmp(root.Psi[2]) == 0 || root.Psi[1].Sign() == 0 {
		t.Fatalf("fixture: root ψ %v", root.Psi)
	}
	good := *root
	plus := func(x *big.Int, d int64) *big.Int { return new(big.Int).Add(x, big.NewInt(d)) }
	corrupt := []struct {
		name string
		edit func(ns *NodeSchedule)
	}{
		{"swapped", func(ns *NodeSchedule) { ns.Psi = []*big.Int{ns.Psi[0], ns.Psi[2], ns.Psi[1]} }},
		{"missing-child", func(ns *NodeSchedule) { ns.Psi = ns.Psi[:len(ns.Psi)-1] }},
		{"self-short", func(ns *NodeSchedule) { ns.Psi0 = plus(ns.Psi0, -1) }},
		{"bunch-long", func(ns *NodeSchedule) { ns.Bunch = plus(ns.Bunch, 1) }},
		{"child-moved", func(ns *NodeSchedule) {
			ns.Psi = []*big.Int{plus(ns.Psi[0], 1), plus(ns.Psi[1], -1), ns.Psi[2]}
		}},
	}
	for _, c := range corrupt {
		c.edit(root)
		if err := s.CheckInvariants(); err == nil {
			t.Errorf("%s: corrupted ψ passed", c.name)
		}
		*root = good
	}
}
