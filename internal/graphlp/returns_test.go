package graphlp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bwc/internal/graph"
	"bwc/internal/lp"
	"bwc/internal/rat"
	"bwc/internal/tree"
)

// formulateWithReturns generalizes the graph LP to Section 9's separate
// result flows, as a test oracle: an independent formulation the tree LP
// and the Section 9 counter-example are checked against. Next to the
// task flow x_uv every directed arc gains a result flow y_uv costing
// ret(u,v) port time per result, sharing the sender's and receiver's
// single ports with the task traffic:
//
//	α_i ≤ r_i                                              (rate bounds)
//	Σ_v c_uv·x_uv + Σ_v ret(u,v)·y_uv ≤ 1   for every u    (send ports)
//	Σ_u c_uv·x_uv + Σ_u ret(u,v)·y_uv ≤ 1   for every v    (receive ports)
//	inflow_x(i) − outflow_x(i) = α_i        for i ≠ master (tasks sink)
//	outflow_y(i) − inflow_y(i) = α_i        for i ≠ master (results source)
//
// maximize Σ_i α_i. With ret ≡ 0 the y variables are free and the
// optimum equals Formulate's. The variable layout is α_0..α_{n-1}, one
// x per directed arc, then one y per directed arc (same arc order).
func formulateWithReturns(g *graph.Graph, ret func(from, to graph.NodeID) rat.R) (lp.Problem, []string) {
	n := g.Len()
	var arcs []arc
	var names []string
	for u := 0; u < n; u++ {
		for _, e := range g.Neighbors(graph.NodeID(u)) {
			arcs = append(arcs, arc{from: graph.NodeID(u), to: e.To, comm: e.Comm})
			names = append(names, fmt.Sprintf("x(%s->%s)", g.Name(graph.NodeID(u)), g.Name(e.To)))
		}
	}
	m := len(arcs)
	vars := n + 2*m
	prob := lp.Problem{C: make([]rat.R, vars)}
	varNames := make([]string, 0, vars)
	for i := 0; i < n; i++ {
		prob.C[i] = rat.One
		varNames = append(varNames, "alpha("+g.Name(graph.NodeID(i))+")")
	}
	varNames = append(varNames, names...)
	for _, a := range arcs {
		varNames = append(varNames, fmt.Sprintf("y(%s->%s)", g.Name(a.from), g.Name(a.to)))
	}

	addRow := func(row []rat.R, b rat.R) {
		prob.A = append(prob.A, row)
		prob.B = append(prob.B, b)
	}
	addEq := func(row []rat.R) {
		neg := make([]rat.R, vars)
		for j := range row {
			neg[j] = row[j].Neg()
		}
		addRow(row, rat.Zero)
		addRow(neg, rat.Zero)
	}
	// Rate bounds.
	for i := 0; i < n; i++ {
		row := make([]rat.R, vars)
		row[i] = rat.One
		addRow(row, g.Rate(graph.NodeID(i)))
	}
	// Port constraints: task and result traffic share both single ports.
	for u := 0; u < n; u++ {
		send := make([]rat.R, vars)
		recv := make([]rat.R, vars)
		touchedS, touchedR := false, false
		for ai, a := range arcs {
			d := ret(a.from, a.to)
			if int(a.from) == u {
				send[n+ai] = a.comm
				send[n+m+ai] = d
				touchedS = true
			}
			if int(a.to) == u {
				recv[n+ai] = a.comm
				recv[n+m+ai] = d
				touchedR = true
			}
		}
		if touchedS {
			addRow(send, rat.One)
		}
		if touchedR {
			addRow(recv, rat.One)
		}
	}
	// Conservation at every non-master node: tasks sink into α_i, results
	// source out of α_i. The master's rows are implied and omitted.
	for i := 0; i < n; i++ {
		if graph.NodeID(i) == g.Master() {
			continue
		}
		taskRow := make([]rat.R, vars)
		taskRow[i] = rat.One // α_i − inflow_x + outflow_x = 0
		resRow := make([]rat.R, vars)
		resRow[i] = rat.One // α_i + inflow_y − outflow_y = 0
		for ai, a := range arcs {
			if int(a.to) == i {
				taskRow[n+ai] = taskRow[n+ai].Sub(rat.One)
				resRow[n+m+ai] = resRow[n+m+ai].Add(rat.One)
			}
			if int(a.from) == i {
				taskRow[n+ai] = taskRow[n+ai].Add(rat.One)
				resRow[n+m+ai] = resRow[n+m+ai].Sub(rat.One)
			}
		}
		addEq(taskRow)
		addEq(resRow)
	}
	return prob, varNames
}

// optimalThroughputWithReturns returns the exact optimum of the
// separate-flows graph LP under a uniform per-link result time d.
func optimalThroughputWithReturns(g *graph.Graph, d rat.R) (rat.R, error) {
	if g.Len() == 0 {
		return rat.Zero, nil
	}
	prob, _ := formulateWithReturns(g, func(from, to graph.NodeID) rat.R { return d })
	sol, err := lp.Maximize(prob)
	if err != nil {
		return rat.Zero, err
	}
	return sol.Objective, nil
}

// TestReturnsCounterExample reproduces Section 9's star on the graph
// LP: two workers behind a switch with c = 1/2, w = 1, d = 1/2 sustain
// 2 tasks/unit with separate flows. The same star with d folded into
// the forward links (c = 1) reaches only 1.
func TestReturnsCounterExample(t *testing.T) {
	g := graph.NewBuilder().
		Switch("m").
		Node("w1", rat.One).
		Node("w2", rat.One).
		Link("m", "w1", rat.New(1, 2)).
		Link("m", "w2", rat.New(1, 2)).
		Master("m").
		MustBuild()
	opt, err := optimalThroughputWithReturns(g, rat.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Equal(rat.Two) {
		t.Fatalf("separate-flows optimum %s, want 2", opt)
	}

	folded := graph.NewBuilder().
		Switch("m").
		Node("w1", rat.One).
		Node("w2", rat.One).
		Link("m", "w1", rat.One).
		Link("m", "w2", rat.One).
		Master("m").
		MustBuild()
	foldedOpt, err := OptimalThroughput(folded)
	if err != nil {
		t.Fatal(err)
	}
	if !foldedOpt.Equal(rat.One) {
		t.Fatalf("folded optimum %s, want 1", foldedOpt)
	}
}

// TestZeroReturnsMatchForwardLP pins the graph-layer face of the
// zero-return invariant: with d = 0 the generalized formulation's
// optimum equals the forward-only LP's on random connected topologies.
func TestZeroReturnsMatchForwardLP(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(r, 10, 6, 0.2)
		fwd, err := OptimalThroughput(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ret, err := optimalThroughputWithReturns(g, rat.Zero)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !fwd.Equal(ret) {
			t.Fatalf("seed %d: zero-return optimum %s != forward optimum %s", seed, ret, fwd)
		}
	}
}

// TestReturnsNeverAboveForward: result flows consume port time, so the
// generalized optimum can never exceed the forward-only optimum, and
// must weakly decrease as d grows.
func TestReturnsNeverAboveForward(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(r, 9, 5, 0.3)
		fwd, err := OptimalThroughput(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prev := fwd
		for _, d := range []rat.R{rat.New(1, 8), rat.New(1, 2), rat.One} {
			opt, err := optimalThroughputWithReturns(g, d)
			if err != nil {
				t.Fatalf("seed %d d=%s: %v", seed, d, err)
			}
			if prev.Less(opt) {
				t.Fatalf("seed %d: optimum rose from %s to %s as d grew to %s", seed, prev, opt, d)
			}
			prev = opt
		}
	}
}

// TestReturnsMatchTreeLP cross-checks the two separate-flows LPs on
// Section 9's counter-example: the star built as a platform graph and
// solved here must agree with the tree LP (lp.OptimalThroughput) on the
// same star written as a return platform.
func TestReturnsMatchTreeLP(t *testing.T) {
	tr, err := tree.ParseText(strings.NewReader("M - - inf\nP1 M 1/2 1 1/2\nP2 M 1/2 1 1/2\n"))
	if err != nil {
		t.Fatal(err)
	}
	treeOpt, _, err := lp.OptimalThroughput(tr)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.NewBuilder().
		Switch("M").
		Node("P1", rat.One).
		Node("P2", rat.One).
		Link("M", "P1", rat.New(1, 2)).
		Link("M", "P2", rat.New(1, 2)).
		Master("M").
		MustBuild()
	graphOpt, err := optimalThroughputWithReturns(g, rat.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !graphOpt.Equal(treeOpt) || !treeOpt.Equal(rat.Two) {
		t.Fatalf("graph LP %s, tree LP %s, want both 2", graphOpt, treeOpt)
	}
}
