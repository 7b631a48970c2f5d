package fork

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bwc/internal/rat"
)

func ch(comm, rate rat.R) Child { return Child{Comm: comm, Rate: rate} }

func TestSingleFastChild(t *testing.T) {
	// Parent rate 1/3, one child: c=1, r=1/2. Feeding 1/2 task/unit costs
	// 1/2 <= 1 bandwidth-time, so the child is fully fed.
	res := Reduce(rat.New(1, 3), []Child{ch(rat.One, rat.New(1, 2))})
	if !res.Rate.Equal(rat.New(5, 6)) {
		t.Fatalf("rate = %s, want 5/6", res.Rate)
	}
	if res.P != 1 || !res.Epsilon.IsZero() {
		t.Fatalf("P=%d eps=%s", res.P, res.Epsilon)
	}
	if !res.Alloc[0].Equal(rat.New(1, 2)) {
		t.Fatalf("alloc = %s", res.Alloc[0])
	}
}

func TestBandwidthLimitedChild(t *testing.T) {
	// One child with c=2, r=1: feeding fully would need 2 time units/unit.
	// It gets ε·b = 1·(1/2) = 1/2.
	res := Reduce(rat.Zero, []Child{ch(rat.Two, rat.One)})
	if !res.Rate.Equal(rat.New(1, 2)) {
		t.Fatalf("rate = %s, want 1/2", res.Rate)
	}
	if res.P != 0 || !res.Epsilon.Equal(rat.One) {
		t.Fatalf("P=%d eps=%s", res.P, res.Epsilon)
	}
}

func TestPrefixPlusPartial(t *testing.T) {
	// Children (already sorted by comm): (c=1/2, r=1), (c=1/3, r=1),
	// (c=1, r=1). Sorted order: c=1/3 first, then 1/2, then 1.
	// Budget: 1 - 1/3 - 1/2 = 1/6 left; partial child gets (1/6)/1 = 1/6.
	res := Reduce(rat.One, []Child{
		ch(rat.New(1, 2), rat.One),
		ch(rat.New(1, 3), rat.One),
		ch(rat.One, rat.One),
	})
	want := rat.One.Add(rat.One).Add(rat.One).Add(rat.New(1, 6))
	if !res.Rate.Equal(want) {
		t.Fatalf("rate = %s, want %s", res.Rate, want)
	}
	if res.P != 2 {
		t.Fatalf("P = %d", res.P)
	}
	if !res.Epsilon.Equal(rat.New(1, 6)) {
		t.Fatalf("eps = %s", res.Epsilon)
	}
	if got := []string{res.Alloc[0].String(), res.Alloc[1].String(), res.Alloc[2].String()}; !reflect.DeepEqual(got, []string{"1", "1", "1/6"}) {
		t.Fatalf("alloc = %v", got)
	}
	if !bandwidthSpent(res, []Child{
		ch(rat.New(1, 2), rat.One),
		ch(rat.New(1, 3), rat.One),
		ch(rat.One, rat.One),
	}).Equal(rat.One) {
		t.Fatal("bandwidth not saturated")
	}
}

func TestStarvedTail(t *testing.T) {
	// First child saturates the port entirely; the others get nothing.
	res := Reduce(rat.Zero, []Child{
		ch(rat.One, rat.One),        // c·r = 1, exactly saturating
		ch(rat.Two, rat.FromInt(5)), // never reached
	})
	if !res.Rate.Equal(rat.One) {
		t.Fatalf("rate = %s", res.Rate)
	}
	if !res.Alloc[1].IsZero() {
		t.Fatalf("starved child got %s", res.Alloc[1])
	}
	if res.P != 1 || !res.Epsilon.IsZero() {
		t.Fatalf("P=%d eps=%s", res.P, res.Epsilon)
	}
}

func TestBandwidthCentricPreference(t *testing.T) {
	// The fast-link slow-cpu child must be preferred over the slow-link
	// fast-cpu child (the heart of the bandwidth-centric principle).
	children := []Child{
		ch(rat.FromInt(10), rat.FromInt(100)), // fast cpu, terrible link
		ch(rat.One, rat.New(1, 2)),            // slow cpu, fast link
	}
	res := Reduce(rat.Zero, children)
	if !res.Alloc[1].Equal(rat.New(1, 2)) {
		t.Fatalf("fast-link child got %s, want 1/2", res.Alloc[1])
	}
	// Leftover 1/2 bandwidth-time at b=1/10 → 1/20 to the slow-link child.
	if !res.Alloc[0].Equal(rat.New(1, 20)) {
		t.Fatalf("slow-link child got %s, want 1/20", res.Alloc[0])
	}
	if !res.Rate.Equal(rat.New(11, 20)) {
		t.Fatalf("rate = %s", res.Rate)
	}
}

func TestTieBrokenByInputOrder(t *testing.T) {
	children := []Child{
		ch(rat.One, rat.New(3, 4)),
		ch(rat.One, rat.New(3, 4)),
	}
	res := Reduce(rat.Zero, children)
	if got := res.Order; got[0] != 0 || got[1] != 1 {
		t.Fatalf("order = %v", got)
	}
	// First takes 3/4 budget, second gets 1/4 · 1 = 1/4.
	if !res.Alloc[0].Equal(rat.New(3, 4)) || !res.Alloc[1].Equal(rat.New(1, 4)) {
		t.Fatalf("alloc = %s,%s", res.Alloc[0], res.Alloc[1])
	}
}

func TestSwitchChildrenAreFree(t *testing.T) {
	res := Reduce(rat.One, []Child{
		ch(rat.New(1, 100), rat.Zero), // switch leaf: fully fed for free
		ch(rat.One, rat.One),
	})
	if !res.Rate.Equal(rat.Two) {
		t.Fatalf("rate = %s", res.Rate)
	}
	if res.P != 2 {
		t.Fatalf("P = %d", res.P)
	}
}

func TestNoChildren(t *testing.T) {
	res := Reduce(rat.New(2, 7), nil)
	if !res.Rate.Equal(rat.New(2, 7)) || res.P != 0 || !res.Epsilon.IsZero() {
		t.Fatalf("res = %+v", res)
	}
}

// TestEquivalentWeightOfDeadFork: a fork with no computing power and no
// children has equivalent weight w_f = 1/r_f = +inf, so it reduces to
// rate zero.
func TestEquivalentWeightOfDeadFork(t *testing.T) {
	res := Reduce(rat.Zero, nil)
	if !res.Rate.IsZero() || res.P != 0 {
		t.Fatalf("dead fork reduces to %+v", res)
	}
}

// bandwidthSpent is the fraction of the parent's send port the
// allocation uses: Σ c_i·alloc_i. It is at most 1, with equality when
// the fork is bandwidth-limited.
func bandwidthSpent(r Result, children []Child) rat.R {
	spent := rat.Zero
	for i, c := range children {
		spent = spent.Add(c.Comm.Mul(r.Alloc[i]))
	}
	return spent
}

func randChildren(r *rand.Rand) []Child {
	n := r.Intn(6)
	cs := make([]Child, n)
	for i := range cs {
		cs[i] = Child{
			Comm: rat.New(r.Int63n(20)+1, r.Int63n(10)+1),
			Rate: rat.New(r.Int63n(20), r.Int63n(10)+1),
		}
	}
	return cs
}

func forkCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(rat.New(r.Int63n(10), r.Int63n(10)+1))
			args[1] = reflect.ValueOf(randChildren(r))
		},
	}
}

// Property: the allocation is feasible (per-child cap, port budget) and the
// rate accounts exactly for parent + allocations.
func TestPropFeasibleAndConsistent(t *testing.T) {
	f := func(parent rat.R, children []Child) bool {
		res := Reduce(parent, children)
		sum := parent
		spent := rat.Zero
		for i, c := range children {
			a := res.Alloc[i]
			if a.IsNeg() || c.Rate.Less(a) {
				return false
			}
			sum = sum.Add(a)
			spent = spent.Add(a.Mul(c.Comm))
		}
		return sum.Equal(res.Rate) && spent.LessEq(rat.One)
	}
	if err := quick.Check(f, forkCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: optimality against brute force — no single-child reallocation
// can improve the rate. Because Proposition 1 is known optimal, we check a
// stronger exchange property: either every child is saturated, or the port
// budget is exhausted.
func TestPropSaturationDichotomy(t *testing.T) {
	f := func(parent rat.R, children []Child) bool {
		res := Reduce(parent, children)
		allFed := true
		for i, c := range children {
			if res.Alloc[i].Less(c.Rate) {
				allFed = false
			}
		}
		spent := bandwidthSpent(res, children)
		return allFed || spent.Equal(rat.One)
	}
	if err := quick.Check(f, forkCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a child never decreases the equivalent rate, and the
// rate is monotone in the parent rate.
func TestPropMonotonicity(t *testing.T) {
	f := func(parent rat.R, children []Child) bool {
		res := Reduce(parent, children)
		if len(children) > 0 {
			sub := Reduce(parent, children[:len(children)-1])
			if res.Rate.Less(sub.Rate) {
				return false
			}
		}
		bigger := Reduce(parent.Add(rat.One), children)
		return !bigger.Rate.Less(res.Rate.Add(rat.One))
	}
	if err := quick.Check(f, forkCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: the rate never exceeds parent + min(Σ r_i, max b_i) — the
// single-port upper bound used for t_max at the root.
func TestPropSinglePortUpperBound(t *testing.T) {
	f := func(parent rat.R, children []Child) bool {
		res := Reduce(parent, children)
		sumR, maxB := rat.Zero, rat.Zero
		for _, c := range children {
			sumR = sumR.Add(c.Rate)
			maxB = rat.Max(maxB, c.Comm.Inv())
		}
		return res.Rate.LessEq(parent.Add(rat.Min(sumR, maxB)))
	}
	if err := quick.Check(f, forkCfg()); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReduce8(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	children := make([]Child, 8)
	for i := range children {
		children[i] = Child{Comm: rat.New(r.Int63n(9)+1, 3), Rate: rat.New(r.Int63n(9)+1, 2)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Reduce(rat.One, children)
	}
}
