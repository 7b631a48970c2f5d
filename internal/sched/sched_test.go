package sched

import (
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/rat"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

// figure3Node fabricates a node schedule with ψ_0=1, ψ_1=2, ψ_2=4: the
// worked example of Figure 3.
func figure3Node() *NodeSchedule {
	return &NodeSchedule{
		Psi0: big.NewInt(1),
		Psi:  []*big.Int{big.NewInt(2), big.NewInt(4)},
	}
}

func patternDests(p []Slot) []Dest {
	out := make([]Dest, len(p))
	for i, s := range p {
		out[i] = s.Dest
	}
	return out
}

func TestFigure3Interleave(t *testing.T) {
	got := patternDests(interleavePattern(figure3Node()))
	// Paper: "The first task is sent to P2, the second to P1, the third
	// to P2, etc." Full order: P2 P1 P2 P0 P2 P1 P2.
	want := []Dest{1, 0, 1, Self, 1, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("pattern length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pattern = %v, want %v", got, want)
		}
	}
}

func TestInterleaveTieBreaks(t *testing.T) {
	// ψ_self = ψ_child0 = 1: both at position 1/2; equal ψ → smaller
	// index wins → Self first.
	ns := &NodeSchedule{Psi0: big.NewInt(1), Psi: []*big.Int{big.NewInt(1)}}
	got := patternDests(interleavePattern(ns))
	if got[0] != Self || got[1] != 0 {
		t.Fatalf("pattern = %v", got)
	}
	// ψ_self=3, ψ_child0=1: positions 1/4,2/4,3/4 vs 1/2; contested 1/2
	// goes to the child (smaller ψ).
	ns = &NodeSchedule{Psi0: big.NewInt(3), Psi: []*big.Int{big.NewInt(1)}}
	got = patternDests(interleavePattern(ns))
	want := []Dest{Self, 0, Self, Self}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pattern = %v, want %v", got, want)
		}
	}
}

func TestInterleaveSymmetry(t *testing.T) {
	// "due to symmetrical reasons, the description of the local schedules
	// can be divided by two": the destination sequence reads the same
	// forwards and backwards whenever ties cannot occur (distinct ψ).
	ns := figure3Node()
	got := patternDests(interleavePattern(ns))
	for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
		if got[i] != got[j] {
			t.Fatalf("pattern not palindromic: %v", got)
		}
	}
}

func TestBlockPattern(t *testing.T) {
	ns := figure3Node()
	got := patternDests(blockPattern(ns))
	want := []Dest{Self, 0, 0, 1, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("block pattern = %v, want %v", got, want)
		}
	}
}

// twoWorker builds the fully worked micro-platform used across this file:
// P0(w=2) with P1(c=1,w=3) and P2(c=3,w=2); throughput 19/18.
func twoWorker(t *testing.T) (*tree.Tree, *Schedule) {
	t.Helper()
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		Child("P0", "P2", rat.FromInt(3), rat.Two).
		MustBuild()
	res := bwfirst.Solve(tr)
	if !res.Throughput.Equal(rat.New(19, 18)) {
		t.Fatalf("throughput = %s, want 19/18", res.Throughput)
	}
	s, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, s
}

func TestLemma1Periods(t *testing.T) {
	tr, s := twoWorker(t)
	root := s.Nodes[tr.Root()]
	if !root.TS.Equal(rat.FromInt(9)) || !root.TC.Equal(rat.Two) || !root.TR.IsZero() {
		t.Fatalf("root periods TS=%s TC=%s TR=%s", root.TS, root.TC, root.TR)
	}
	if root.Phi[0].Int64() != 3 || root.Phi[1].Int64() != 2 {
		t.Fatalf("root φ = %v", root.Phi)
	}
	if root.Phi0.Int64() != 1 {
		t.Fatalf("root ρ_0 = %s", root.Phi0)
	}
	p1 := s.Nodes[tr.MustLookup("P1")]
	if !p1.TR.Equal(rat.FromInt(9)) || p1.PhiRecv.Int64() != 3 {
		t.Fatalf("P1 TR=%s φ_{-1}=%s", p1.TR, p1.PhiRecv)
	}
	if !p1.TC.Equal(rat.FromInt(3)) || p1.Phi0.Int64() != 1 {
		t.Fatalf("P1 TC=%s ρ_0=%s", p1.TC, p1.Phi0)
	}
	p2 := s.Nodes[tr.MustLookup("P2")]
	if !p2.TR.Equal(rat.FromInt(9)) || p2.PhiRecv.Int64() != 2 {
		t.Fatalf("P2 TR=%s φ_{-1}=%s", p2.TR, p2.PhiRecv)
	}
}

func TestEventDrivenQuantities(t *testing.T) {
	tr, s := twoWorker(t)
	root := s.Nodes[tr.Root()]
	if !root.TW.Equal(rat.FromInt(18)) {
		t.Fatalf("root TW = %s", root.TW)
	}
	if root.Psi0.Int64() != 9 || root.Psi[0].Int64() != 6 || root.Psi[1].Int64() != 4 {
		t.Fatalf("root ψ = %s %v", root.Psi0, root.Psi)
	}
	if root.Bunch.Int64() != 19 {
		t.Fatalf("root Ψ = %s", root.Bunch)
	}
	if got := patternOf(s, tr.Root()); len(got) != 19 {
		t.Fatalf("root pattern length %d", len(got))
	}
	p1 := s.Nodes[tr.MustLookup("P1")]
	if p1.Bunch.Int64() != 1 || !p1.TW.Equal(rat.FromInt(3)) {
		t.Fatalf("P1 Ψ=%s TW=%s", p1.Bunch, p1.TW)
	}
}

func TestTreeAndRootlessPeriods(t *testing.T) {
	_, s := twoWorker(t)
	if got := s.TreePeriod(); got.Int64() != 18 {
		t.Fatalf("tree period = %s", got)
	}
	// Rootless: P1 lcm(1,3,9)=9, P2 lcm(1,9,9)=9 → 9.
	if got := s.RootlessPeriod(); got.Int64() != 9 {
		t.Fatalf("rootless period = %s", got)
	}
	// Rootless rate = 19/18 − 1/2 = 5/9.
	if got := s.RootlessRate(); !got.Equal(rat.New(5, 9)) {
		t.Fatalf("rootless rate = %s", got)
	}
}

func TestStartupBounds(t *testing.T) {
	tr, s := twoWorker(t)
	if got := s.StartupBound(tr.Root()); !got.IsZero() {
		t.Fatalf("root bound = %s", got)
	}
	if got := s.StartupBound(tr.MustLookup("P1")); !got.Equal(rat.FromInt(9)) {
		t.Fatalf("P1 bound = %s", got)
	}
	if got := s.MaxStartupBound(); !got.Equal(rat.FromInt(9)) {
		t.Fatalf("max bound = %s", got)
	}
}

func TestInvariantsAcrossGenerators(t *testing.T) {
	for _, k := range treegen.Kinds {
		for seed := int64(0); seed < 10; seed++ {
			tr := treegen.Generate(k, 30, seed)
			res := bwfirst.Solve(tr)
			s, err := Build(res, Options{})
			if err != nil {
				t.Fatalf("%v/%d: %v", k, seed, err)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%v/%d: %v", k, seed, err)
			}
		}
	}
}

func TestBlockOptionInvariants(t *testing.T) {
	tr := treegen.Generate(treegen.Uniform, 20, 5)
	res := bwfirst.Solve(tr)
	s, err := Build(res, Options{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMaxPatternLenSkipsMaterialization: no pattern is materialized, so
// the bound is ignored — a schedule built under a bound below its root's
// Ψ = 19 has the same quantities and the same bunch order.
func TestMaxPatternLenSkipsMaterialization(t *testing.T) {
	_, s := twoWorker(t)
	res := s.Res
	small, err := Build(res, Options{MaxPatternLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	root := res.Tree.Root()
	if small.Nodes[root].Bunch.Int64() != 19 {
		t.Fatalf("Ψ = %s", small.Nodes[root].Bunch)
	}
	got, want := patternDests(patternOf(small, root)), patternDests(patternOf(s, root))
	if len(got) != 19 || !slices.Equal(got, want) {
		t.Fatalf("bunch order under the bound %v, without %v", got, want)
	}
	if err := small.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDescribeAndString(t *testing.T) {
	tr, s := twoWorker(t)
	d := s.DescribeNode(tr.Root())
	for _, frag := range []string{"P0", "every 18 units", "compute 9", "send 6 to P1", "send 4 to P2", "order:"} {
		if !strings.Contains(d, frag) {
			t.Errorf("describe = %q missing %q", d, frag)
		}
	}
	full := s.String()
	if !strings.Contains(full, "P1:") || !strings.Contains(full, "P2:") {
		t.Fatalf("String() = %q", full)
	}
}

func TestInactiveNodes(t *testing.T) {
	// Starved child: gets no tasks, must be inactive with zero Ψ.
	tr := tree.NewBuilder().
		Root("P0", rat.FromInt(5)).
		Child("P0", "fast", rat.One, rat.One). // saturates the port
		Child("P0", "starved", rat.FromInt(7), rat.One).
		MustBuild()
	res := bwfirst.Solve(tr)
	s, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Nodes[tr.MustLookup("starved")]
	if st.Active {
		t.Fatal("starved node active")
	}
	if st.Bunch.Sign() != 0 {
		t.Fatalf("starved Ψ = %s", st.Bunch)
	}
	if !strings.Contains(s.DescribeNode(tr.MustLookup("starved")), "idle") {
		t.Fatal("describe of idle node")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySchedule(t *testing.T) {
	res := bwfirst.Solve(&tree.Tree{})
	s, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "(empty schedule)" {
		t.Fatalf("String = %q", s.String())
	}
	if s.TreePeriod().Int64() != 1 {
		t.Fatal("empty tree period")
	}
	if !s.RootlessRate().IsZero() {
		t.Fatal("empty rootless rate")
	}
}

func TestPatternRunLengthBound(t *testing.T) {
	// Dispersion property of the Figure-3 interleave: a run of k
	// consecutive slots for destination d spans (k−1)/(ψ_d+1) of the unit
	// interval with no other destination's position inside, which
	// requires (k−1)/(ψ_d+1) < 1/(ψ_e+1) for every other active
	// destination e. Hence k ≤ 1 + (ψ_d+1)/(ψ_emin+1) (checked with
	// integer arithmetic below).
	tr := treegen.Generate(treegen.Uniform, 25, 99)
	res := bwfirst.Solve(tr)
	s, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		pattern := patternOf(s, ns.Node)
		if len(pattern) < 3 {
			continue
		}
		count := map[Dest]int64{Self: ns.Psi0.Int64()}
		for j, p := range ns.Psi {
			count[Dest(j)] = p.Int64()
		}
		minOther := func(d Dest) int64 {
			best := int64(-1)
			for e, c := range count {
				if e == d || c == 0 {
					continue
				}
				if best < 0 || c < best {
					best = c
				}
			}
			return best
		}
		run := 1
		for j := 1; j < len(pattern); j++ {
			d := pattern[j].Dest
			if d != pattern[j-1].Dest {
				run = 1
				continue
			}
			run++
			other := minOther(d)
			if other < 0 {
				continue // single active destination: any run is fine
			}
			// Require (run−1)·(other+1) < ψ_d+1 (strictly, since the
			// interval must be free of the other's positions).
			if int64(run-1)*(other+1) >= count[d]+1+(other+1) {
				t.Fatalf("node %s: destination %d run of %d with ψ=%d, min other ψ=%d",
					tr.Name(ns.Node), d, run, count[d], other)
			}
		}
	}
}

func TestChiAndT0(t *testing.T) {
	tr, s := twoWorker(t)
	// P1: T_0 = lcm(TR=9, TC=3, TS=1) = 9; χ = η·T_0 = (1/3)·9 = 3.
	p1 := tr.MustLookup("P1")
	if got := s.Periods().T0(p1); !got.Equal(rat.FromInt(9)) {
		t.Fatalf("T0(P1) = %s", got)
	}
	if got := s.Chi(p1); got.Int64() != 3 {
		t.Fatalf("χ(P1) = %s", got)
	}
	// P2: T_0 = lcm(9, 9, 1) = 9; χ = (2/9)·9 = 2.
	if got := s.Chi(tr.MustLookup("P2")); got.Int64() != 2 {
		t.Fatalf("χ(P2) = %s", got)
	}
}

func TestChiIntegralAcrossGenerators(t *testing.T) {
	for _, k := range treegen.Kinds {
		tr := treegen.Generate(k, 20, 3)
		res := bwfirst.Solve(tr)
		s, err := Build(res, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Chi panics if any value is non-integral; exercising it on all
		// nodes is the test.
		for i := 0; i < tr.Len(); i++ {
			_ = s.Chi(tree.NodeID(i))
		}
	}
}

// isPalindromic reports whether an interleaved pattern reads the same
// forwards and backwards — the symmetry the paper notes "divides the
// description of the local schedules by two". The Figure-3 construction
// is palindromic whenever no position ties occur (positions k/(ψ+1) are
// symmetric about 1/2).
func isPalindromic(p []Slot) bool {
	if p == nil {
		return false
	}
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		if p[i].Dest != p[j].Dest {
			return false
		}
	}
	return true
}

func TestPalindromicHalving(t *testing.T) {
	pattern := interleavePattern(figure3Node())
	if !isPalindromic(pattern) {
		t.Fatal("Figure 3 pattern not palindromic")
	}
	// The first ceil(7/2) = 4 slots describe the whole pattern (Section
	// 6.3): half + reverse(half[:3]) must equal the original.
	half := pattern[:(len(pattern)+1)/2]
	// Reconstruct: half + reverse(half[:3]) must equal the original.
	full := append([]Slot{}, half...)
	for i := len(half) - 2; i >= 0; i-- {
		full = append(full, half[i])
	}
	for i := range pattern {
		if full[i].Dest != pattern[i].Dest {
			t.Fatalf("reconstruction differs at %d", i)
		}
	}
	if isPalindromic([]Slot{{Dest: Self}, {Dest: 0}, {Dest: 0}}) {
		t.Fatal("asymmetric pattern reported palindromic")
	}
	if isPalindromic(nil) {
		t.Fatal("nil pattern palindromic")
	}
}

func TestPaperTreePalindromes(t *testing.T) {
	// The Section 6.3 construction is symmetric about 1/2, so a pattern
	// with no position ties must be palindromic (ties are broken
	// asymmetrically — smallest ψ, then smallest index — which can break
	// the mirror). Verify the implication on the Section 8 platform and
	// that at least one multi-destination node exercises it.
	res := bwfirst.Solve(paperTree())
	s, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawTieFree := false
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		pattern := patternOf(s, ns.Node)
		if !ns.Active || len(pattern) < 2 {
			continue
		}
		ties := false
		for j := 1; j < len(pattern); j++ {
			if pattern[j].Pos().Equal(pattern[j-1].Pos()) {
				ties = true
				break
			}
		}
		if ties {
			continue
		}
		sawTieFree = true
		if !isPalindromic(pattern) {
			t.Errorf("tie-free node %s not palindromic: %v", s.Tree.Name(ns.Node), patternDests(pattern))
		}
	}
	if !sawTieFree {
		t.Fatal("no tie-free multi-slot pattern on the paper tree")
	}
}

// paperTree duplicates paperexample.Tree to avoid an import cycle
// (paperexample imports sched in its own tests).
func paperTree() *tree.Tree {
	return tree.NewBuilder().
		Root("P0", rat.FromInt(9)).
		Child("P0", "P1", rat.New(1, 2), rat.FromInt(8)).
		Child("P0", "P2", rat.New(3, 2), rat.FromInt(4)).
		Child("P0", "P5", rat.FromInt(2), rat.FromInt(1)).
		Child("P1", "P3", rat.FromInt(2), rat.FromInt(8)).
		Child("P1", "P4", rat.FromInt(3), rat.FromInt(5)).
		Child("P4", "P8", rat.FromInt(2), rat.FromInt(2)).
		Child("P2", "P6", rat.FromInt(2), rat.FromInt(5)).
		Child("P2", "P7", rat.FromInt(4), rat.FromInt(5)).
		Child("P2", "P9", rat.FromInt(5), rat.FromInt(1)).
		Child("P7", "P10", rat.FromInt(1), rat.FromInt(2)).
		Child("P7", "P11", rat.FromInt(2), rat.FromInt(2)).
		MustBuild()
}

func BenchmarkBuildPaperSchedule(b *testing.B) {
	res := bwfirst.Solve(paperTree())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(res, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterleaveLargeBunch(b *testing.B) {
	ns := &NodeSchedule{
		Psi0: big.NewInt(331),
		Psi:  []*big.Int{big.NewInt(457), big.NewInt(212)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = interleavePattern(ns)
	}
}

func TestQuantizeExactWhenDenominatorDivides(t *testing.T) {
	// All rates of the paper tree have denominators dividing 360, so
	// quantizing at 360 is lossless.
	res := bwfirst.Solve(paperTree())
	s, thr, err := Quantize(res, 360, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !thr.Equal(res.Throughput) {
		t.Fatalf("lossless quantization changed throughput: %s vs %s", thr, res.Throughput)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	exact, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.TreePeriod().Cmp(exact.TreePeriod()) != 0 {
		t.Fatalf("period changed: %s vs %s", s.TreePeriod(), exact.TreePeriod())
	}
}

func TestQuantizeBoundsPeriodAndLoss(t *testing.T) {
	// An awkward platform with a huge exact period: quantization must cap
	// every node period by den and lose at most n/den throughput. Scan
	// seeds for a platform whose exact period really is enormous.
	var tr *tree.Tree
	var res *bwfirst.Result
	big6 := rat.FromInt(1_000_000)
	found := false
	for seed := int64(0); seed < 60 && !found; seed++ {
		cand := awkwardTree(rand.New(rand.NewSource(seed)), 12)
		candRes := bwfirst.Solve(cand)
		s, err := Build(candRes, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if big6.Less(rat.FromBigInt(s.TreePeriod())) {
			tr, res, found = cand, candRes, true
		}
	}
	if !found {
		t.Fatal("no awkward platform with period > 1e6 in 60 seeds; generator drift")
	}
	for _, den := range []int64{10, 100, 1000} {
		s, thr, err := Quantize(res, den, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("den=%d: %v", den, err)
		}
		if res.Throughput.Less(thr) {
			t.Fatalf("den=%d: quantized throughput %s above optimum %s", den, thr, res.Throughput)
		}
		loss := res.Throughput.Sub(thr)
		bound := rat.New(int64(tr.Len()), den)
		if bound.Less(loss) {
			t.Fatalf("den=%d: loss %s exceeds n/den = %s", den, loss, bound)
		}
		// Every per-node period divides den.
		for i := range s.Nodes {
			ns := &s.Nodes[i]
			if !ns.Active {
				continue
			}
			d := rat.FromInt(den)
			for _, p := range []rat.R{ns.TS, ns.TC, ns.TW} {
				if !d.Div(p).IsInt() {
					t.Fatalf("den=%d node %s: period %s does not divide %d", den, tr.Name(ns.Node), p, den)
				}
			}
		}
		// The quantized tree period is at most den; the exact one is
		// typically far larger on this platform.
		if rat.FromBigInt(s.TreePeriod()).Sub(rat.FromInt(den)).IsPos() {
			t.Fatalf("den=%d: tree period %s exceeds den", den, s.TreePeriod())
		}
	}
}

func TestQuantizeValidation(t *testing.T) {
	res := bwfirst.Solve(paperTree())
	if _, _, err := Quantize(res, 0, Options{}); err == nil {
		t.Fatal("den=0 accepted")
	}
}

func TestCompactSize(t *testing.T) {
	res := bwfirst.Solve(paperTree())
	s, err := Build(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	size := s.CompactSize()
	if size == 0 || size > 200 {
		t.Fatalf("compact description of the paper tree = %d bytes", size)
	}
	// A synchronized timetable would enumerate T = 360 time slots across
	// 8 nodes; the event-driven description is orders of magnitude
	// smaller than even one slot-per-byte encoding.
	if size >= 360 {
		t.Fatalf("compact size %d not smaller than the period", size)
	}
}
