// Package fork implements Proposition 1 of the paper (due to Beaumont et
// al. [5]): the optimal steady-state reduction of a fork graph — one parent
// with k children — into a single node of equivalent computing power, under
// the single-port full-overlap model.
//
// The bandwidth-centric principle: sort the children by increasing
// communication time; feed them fully in that order while the parent's
// one send port has time left; the first child that cannot be fully fed
// receives the leftover bandwidth-time ε at its link rate; later children
// receive nothing. Computing speeds of the children only matter through the
// time c_i·r_i the parent must spend feeding them.
package fork

import (
	"sort"

	"bwc/internal/rat"
)

// Child describes one fork child: the communication time of its link from
// the parent and its (possibly already reduced) computing rate.
type Child struct {
	Comm rat.R // c_i > 0, time units per task on the parent->child link
	Rate rat.R // r_i >= 0, tasks per time unit the child can consume
}

// Result is the outcome of reducing a fork graph.
type Result struct {
	// Rate is the equivalent computing rate r_f of the whole fork
	// (parent rate + what the children can be fed), i.e. 1/w_f of
	// Proposition 1.
	Rate rat.R
	// Order holds indices into the input children slice, sorted by
	// increasing communication time (ties by input order): the
	// bandwidth-centric visiting order.
	Order []int
	// P is the number of fully fed children: the first P entries of Order
	// receive their full rate.
	P int
	// Epsilon is the leftover fraction of the parent's bandwidth-time
	// after feeding the P saturated children; the (P+1)-th child in Order
	// (if any) receives Epsilon * b_{P+1}.
	Epsilon rat.R
	// Alloc[i] is the task rate delivered to input child i in the optimal
	// steady state.
	Alloc []rat.R
}

// Reduce applies Proposition 1 to a parent with computing rate parentRate
// and the given children. Children with zero rate (switch leaves) consume
// no bandwidth and no tasks. Comm times must be positive; the caller
// (package tree) guarantees this.
func Reduce(parentRate rat.R, children []Child) Result {
	res := Result{
		Rate:    parentRate,
		Order:   make([]int, len(children)),
		Alloc:   make([]rat.R, len(children)),
		Epsilon: rat.Zero,
	}
	for i := range res.Order {
		res.Order[i] = i
	}
	sort.SliceStable(res.Order, func(a, b int) bool {
		return children[res.Order[a]].Comm.Less(children[res.Order[b]].Comm)
	})

	// Walk children in bandwidth-centric order, spending the unit
	// bandwidth-time budget.
	budget := rat.One // remaining fraction of the parent's send port
	for pos, idx := range res.Order {
		c := children[idx]
		if c.Rate.IsZero() {
			// A child that consumes nothing is "fully fed" for free.
			res.P = pos + 1
			continue
		}
		need := c.Comm.Mul(c.Rate) // time to feed this child fully
		if need.LessEq(budget) {
			budget = budget.Sub(need)
			res.Alloc[idx] = c.Rate
			res.Rate = res.Rate.Add(c.Rate)
			res.P = pos + 1
			continue
		}
		// Partial child: gets the leftover budget at its link bandwidth.
		res.Epsilon = budget
		got := budget.Mul(c.Comm.Inv()) // ε·b
		res.Alloc[idx] = got
		res.Rate = res.Rate.Add(got)
		budget = rat.Zero
		break
	}
	// If every child was fully fed, ε is defined as 0 by Proposition 1
	// (already the zero value). When the loop broke on a partial child,
	// children after it receive nothing (Alloc zero values).
	return res
}
