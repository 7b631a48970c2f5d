package lp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/rat"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

func TestSimplexTextbook(t *testing.T) {
	// maximize 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → opt 36 at (2,6).
	p := Problem{
		C: []rat.R{rat.FromInt(3), rat.FromInt(5)},
		A: [][]rat.R{
			{rat.One, rat.Zero},
			{rat.Zero, rat.Two},
			{rat.FromInt(3), rat.Two},
		},
		B: []rat.R{rat.FromInt(4), rat.FromInt(12), rat.FromInt(18)},
	}
	sol, err := Maximize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Objective.Equal(rat.FromInt(36)) {
		t.Fatalf("objective = %s, want 36", sol.Objective)
	}
	if !sol.X[0].Equal(rat.Two) || !sol.X[1].Equal(rat.FromInt(6)) {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestSimplexFractionalOptimum(t *testing.T) {
	// maximize x + y s.t. 2x + y ≤ 1, x + 3y ≤ 1 → opt at intersection
	// (2/5, 1/5), objective 3/5.
	p := Problem{
		C: []rat.R{rat.One, rat.One},
		A: [][]rat.R{
			{rat.Two, rat.One},
			{rat.One, rat.FromInt(3)},
		},
		B: []rat.R{rat.One, rat.One},
	}
	sol, err := Maximize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Objective.Equal(rat.New(3, 5)) {
		t.Fatalf("objective = %s, want 3/5", sol.Objective)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	p := Problem{
		C: []rat.R{rat.One},
		A: [][]rat.R{{rat.FromInt(-1)}},
		B: []rat.R{rat.One},
	}
	if _, err := Maximize(p); err == nil || !strings.Contains(err.Error(), "unbounded") {
		t.Fatalf("err = %v", err)
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// Degenerate vertex (redundant constraint through the optimum);
	// Bland's rule must still terminate.
	p := Problem{
		C: []rat.R{rat.One, rat.One},
		A: [][]rat.R{
			{rat.One, rat.Zero},
			{rat.One, rat.Zero},
			{rat.Zero, rat.One},
			{rat.One, rat.One},
		},
		B: []rat.R{rat.One, rat.One, rat.One, rat.Two},
	}
	sol, err := Maximize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Objective.Equal(rat.Two) {
		t.Fatalf("objective = %s", sol.Objective)
	}
}

func TestSimplexZeroObjective(t *testing.T) {
	p := Problem{
		C: []rat.R{rat.Zero},
		A: [][]rat.R{{rat.One}},
		B: []rat.R{rat.One},
	}
	sol, err := Maximize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Objective.IsZero() || sol.Pivots != 0 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSimplexInputValidation(t *testing.T) {
	if _, err := Maximize(Problem{C: []rat.R{rat.One}, A: [][]rat.R{{rat.One}}, B: []rat.R{rat.FromInt(-1)}}); err == nil {
		t.Fatal("negative b accepted")
	}
	if _, err := Maximize(Problem{C: []rat.R{rat.One}, A: [][]rat.R{{rat.One, rat.One}}, B: []rat.R{rat.One}}); err == nil {
		t.Fatal("ragged row accepted")
	}
	if _, err := Maximize(Problem{C: []rat.R{rat.One}, A: [][]rat.R{{rat.One}}, B: []rat.R{}}); err == nil {
		t.Fatal("missing b accepted")
	}
}

func TestFormulateSmall(t *testing.T) {
	// P0(w=2) -> P1(c=1,w=3): vars (α0, α1); rows: α0≤1/2, α1≤1/3,
	// 1·α1 ≤ 1.
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		MustBuild()
	p := Formulate(tr)
	if len(p.C) != 2 || len(p.A) != 3 {
		t.Fatalf("shape: %d vars, %d rows", len(p.C), len(p.A))
	}
	thr, x, err := OptimalThroughput(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := rat.New(1, 2).Add(rat.New(1, 3))
	if !thr.Equal(want) {
		t.Fatalf("throughput = %s, want %s", thr, want)
	}
	if !x[0].Equal(rat.New(1, 2)) || !x[1].Equal(rat.New(1, 3)) {
		t.Fatalf("witness = %v", x)
	}
}

func TestEmptyTreeThroughput(t *testing.T) {
	thr, x, err := OptimalThroughput(&tree.Tree{})
	if err != nil || !thr.IsZero() || x != nil {
		t.Fatalf("%s %v %v", thr, x, err)
	}
}

// TestLPMatchesBWFirst is experiment E6's core assertion: three
// independently implemented oracles agree exactly.
func TestLPMatchesBWFirst(t *testing.T) {
	// each calls f on every generated tree with its BW-First throughput.
	each := func(t *testing.T, f func(at string, tr *tree.Tree, want rat.R)) {
		for _, k := range treegen.Kinds {
			for seed := int64(0); seed < 8; seed++ {
				for _, n := range []int{1, 3, 8, 20} {
					tr := treegen.Generate(k, n, seed)
					f(fmt.Sprintf("%v/%d/%d", k, seed, n), tr, bwfirst.Solve(tr).Throughput)
				}
			}
		}
	}
	t.Run("forward", func(t *testing.T) {
		each(t, func(at string, tr *tree.Tree, want rat.R) {
			got, _, err := OptimalThroughput(tr)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: LP %s != BW-First %s\n%s", at, got, want, tr)
			}
		})
	})
	// Zero result-return times reduce the separate-flows LP and the
	// folded model to the forward optimum.
	t.Run("zero return times", func(t *testing.T) {
		each(t, func(at string, tr *tree.Tree, want rat.R) {
			zero, err := tr.WithUniformReturnTime(rat.Zero)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := OptimalThroughput(zero)
			if err != nil {
				t.Fatalf("%s: d=0: %v", at, err)
			}
			folded := bwfirst.Solve(zero.WithFoldedReturns()).Throughput
			if !got.Equal(want) || !folded.Equal(want) {
				t.Fatalf("%s: d=0 LP %s, folded %s, forward %s", at, got, folded, want)
			}
		})
	})
}

// TestLPOnReturnTrees pins the separate-flows LP on return trees
// (Section 9) over uniform result-return times d: the optimum never
// rises with d, and each case may pin the optimum, its witness and the
// folded model's throughput (d merged into c on one port pair), or
// require folded ≤ separate flows.
func TestLPOnReturnTrees(t *testing.T) {
	half := rat.New(1, 2)
	counter := tree.NewBuilder().
		RootSwitch("master").
		Child("master", "w1", half, rat.One).
		Child("master", "w2", half, rat.One).
		MustBuild()
	star := tree.NewBuilder().
		RootSwitch("m").
		Child("m", "w1", half, rat.One).
		Child("m", "w2", half, rat.One).
		Child("m", "w3", rat.One, rat.Two).
		MustBuild()
	cases := []struct {
		name         string
		base         *tree.Tree
		ds           []rat.R // increasing
		opt, folded  rat.R   // pinned at every d unless zero
		witness      []rat.R // pinned at every d unless nil
		foldedAtMost bool    // folded ≤ separate flows at every d
	}{
		// The paper's counter-example: separate flows reach 2 tasks
		// per unit, the folded model only 1.
		{name: "counter-example", base: counter, ds: []rat.R{half},
			opt: rat.Two, witness: []rat.R{rat.Zero, rat.One, rat.One}, folded: rat.One},
		{name: "symmetric star", base: star,
			ds: []rat.R{rat.New(1, 8), rat.New(1, 4), half, rat.One}, foldedAtMost: true},
		// A lone node has no link to return results over.
		{name: "single node", base: tree.NewBuilder().Root("P0", rat.Two).MustBuild(),
			ds: []rat.R{rat.Zero, rat.One}, opt: half},
		{name: "uniform-12", base: treegen.Generate(treegen.Uniform, 12, 7),
			ds: []rat.R{rat.Zero, rat.New(1, 4), half, rat.One, rat.Two}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var prev rat.R
			for i, d := range c.ds {
				rt, err := c.base.WithUniformReturnTime(d)
				if err != nil {
					t.Fatal(err)
				}
				opt, x, err := OptimalThroughput(rt)
				if err != nil {
					t.Fatalf("d=%s: %v", d, err)
				}
				if i > 0 && prev.Less(opt) {
					t.Errorf("optimum rose from %s to %s at d=%s", prev, opt, d)
				}
				prev = opt
				if !c.opt.IsZero() && !opt.Equal(c.opt) {
					t.Errorf("d=%s: optimum %s, want %s", d, opt, c.opt)
				}
				if c.witness != nil && !slices.EqualFunc(x, c.witness, rat.R.Equal) {
					t.Errorf("d=%s: witness %v, want %v", d, x, c.witness)
				}
				folded := bwfirst.Solve(rt.WithFoldedReturns()).Throughput
				if !c.folded.IsZero() && !folded.Equal(c.folded) {
					t.Errorf("d=%s: folded %s, want %s", d, folded, c.folded)
				}
				if c.foldedAtMost && opt.Less(folded) {
					t.Errorf("d=%s: folded %s exceeds separate flows %s", d, folded, opt)
				}
			}
		})
	}
}

// TestLPWitnessFeasible: the witness rates from the LP satisfy the model
// constraints exactly.
func TestLPWitnessFeasible(t *testing.T) {
	tr := treegen.Generate(treegen.Uniform, 15, 3)
	_, x, err := OptimalThroughput(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		id := tree.NodeID(i)
		if x[i].IsNeg() || tr.Rate(id).Less(x[i]) {
			t.Fatalf("α[%s] = %s infeasible (r=%s)", tr.Name(id), x[i], tr.Rate(id))
		}
		spent := rat.Zero
		for _, c := range tr.Children(id) {
			sub := rat.Zero
			tr.Walk(c, func(j tree.NodeID) bool { sub = sub.Add(x[j]); return true })
			spent = spent.Add(tr.CommTime(c).Mul(sub))
		}
		if rat.One.Less(spent) {
			t.Fatalf("send port of %s oversubscribed: %s", tr.Name(id), spent)
		}
	}
}

func BenchmarkLP30(b *testing.B) {
	tr := treegen.Generate(treegen.Uniform, 30, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimalThroughput(tr); err != nil {
			b.Fatal(err)
		}
	}
}
