// Package treegen generates synthetic heterogeneous platforms for tests,
// benchmarks and experiments. The paper evaluates on hand-built trees and
// mentions NWS-measured platforms; we replace those with seeded generators
// covering the regimes the paper discusses: compute-limited platforms
// (everyone can be fed), bandwidth-limited platforms (a bottleneck high in
// the hierarchy starves whole subtrees — the regime motivating BW-First's
// partial traversal), deep chains, wide stars, and switch-heavy overlays.
//
// All generators are deterministic functions of (kind, n, seed).
package treegen

import (
	"fmt"
	"math/rand"

	"bwc/internal/rat"
	"bwc/internal/tree"
)

// Kind selects a platform family.
type Kind int

const (
	// Uniform draws comm and proc times uniformly from a small rational
	// range with moderate fanout: a generic heterogeneous tree.
	Uniform Kind = iota
	// BandwidthLimited makes links near the root slow relative to the
	// aggregate compute below them, so BW-First prunes large subtrees.
	BandwidthLimited
	// ComputeLimited makes links fast and processors slow, so every node
	// is fed and the bottom-up and depth-first traversals visit the same
	// set.
	ComputeLimited
	// DeepChain builds a single path (height n−1): worst case for the
	// start-up bound Σ T^s over ancestors.
	DeepChain
	// WideStar builds one root with n−1 children: the pure fork-graph
	// case of Proposition 1.
	WideStar
	// SwitchHeavy inserts zero-compute forwarding nodes (w = +inf)
	// between computing levels, as in overlay networks built on routers.
	SwitchHeavy
	// SETI mimics a volunteer-computing hierarchy: a master with a few
	// fat institutional links, each fanning out to many slow home
	// machines over thin links.
	SETI
)

var kindNames = map[Kind]string{
	Uniform:          "uniform",
	BandwidthLimited: "bandwidth-limited",
	ComputeLimited:   "compute-limited",
	DeepChain:        "deep-chain",
	WideStar:         "wide-star",
	SwitchHeavy:      "switch-heavy",
	SETI:             "seti",
}

// Kinds lists every generator kind, for sweeps.
var Kinds = []Kind{Uniform, BandwidthLimited, ComputeLimited, DeepChain, WideStar, SwitchHeavy, SETI}

// String returns the kind's name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// randRat draws a rational in (0, maxNum/denom] with denominator denom.
func randRat(r *rand.Rand, maxNum, denom int64) rat.R {
	return rat.New(r.Int63n(maxNum)+1, denom)
}

// Generate builds a platform of kind k with n nodes from the given seed.
// It panics if n < 1.
func Generate(k Kind, n int, seed int64) *tree.Tree {
	if n < 1 {
		panic("treegen: n must be >= 1")
	}
	r := rand.New(rand.NewSource(seed))
	switch k {
	case Uniform:
		return grow(r, n, growParams{
			maxFanout: 4,
			comm:      func() rat.R { return randRat(r, 4, 2) },  // (0, 2]
			proc:      func() rat.R { return randRat(r, 16, 2) }, // (0, 8]
		})
	case BandwidthLimited:
		return grow(r, n, growParams{
			maxFanout: 4,
			// Slow links (comm up to 10) feeding fast processors
			// (proc up to 1): the send ports saturate immediately.
			comm: func() rat.R { return randRat(r, 20, 2) },
			proc: func() rat.R { return randRat(r, 4, 4) },
		})
	case ComputeLimited:
		return grow(r, n, growParams{
			maxFanout: 4,
			// Fast links (comm up to 1/2) feeding slow processors
			// (proc up to 16): bandwidth is never the constraint.
			comm: func() rat.R { return randRat(r, 4, 8) },
			proc: func() rat.R { return rat.FromInt(r.Int63n(12) + 5) },
		})
	case DeepChain:
		return grow(r, n, growParams{
			maxFanout: 1,
			comm:      func() rat.R { return randRat(r, 4, 2) },
			proc:      func() rat.R { return randRat(r, 8, 2) },
		})
	case WideStar:
		return grow(r, n, growParams{
			maxFanout: n, // root absorbs all children
			starOnly:  true,
			comm:      func() rat.R { return randRat(r, 8, 2) },
			proc:      func() rat.R { return randRat(r, 8, 2) },
		})
	case SwitchHeavy:
		return grow(r, n, growParams{
			maxFanout:  3,
			switchProb: 0.4,
			comm:       func() rat.R { return randRat(r, 6, 2) },
			proc:       func() rat.R { return randRat(r, 8, 2) },
		})
	case SETI:
		return seti(r, n)
	default:
		panic(fmt.Sprintf("treegen: unknown kind %v", k))
	}
}

type growParams struct {
	maxFanout  int
	starOnly   bool
	switchProb float64
	comm       func() rat.R
	proc       func() rat.R
}

// grow attaches nodes one at a time to a random eligible parent (one with
// remaining fanout), which yields trees with varied shapes for a fixed n.
func grow(r *rand.Rand, n int, p growParams) *tree.Tree {
	b := tree.NewBuilder()
	b.Root("N0", p.proc())
	type slot struct {
		name string
		used int
	}
	open := []slot{{name: "N0"}}
	for i := 1; i < n; i++ {
		var pi int
		if p.starOnly {
			pi = 0
		} else {
			pi = r.Intn(len(open))
		}
		parent := &open[pi]
		name := fmt.Sprintf("N%d", i)
		if p.switchProb > 0 && r.Float64() < p.switchProb {
			b.SwitchChild(parent.name, name, p.comm())
		} else {
			b.Child(parent.name, name, p.comm(), p.proc())
		}
		parent.used++
		if parent.used >= p.maxFanout && !p.starOnly {
			open[pi] = open[len(open)-1]
			open = open[:len(open)-1]
		}
		open = append(open, slot{name: name})
	}
	return b.MustBuild()
}

// seti builds a master -> institutions -> workers hierarchy.
func seti(r *rand.Rand, n int) *tree.Tree {
	b := tree.NewBuilder()
	// The master mostly coordinates: slow processor.
	b.Root("master", rat.FromInt(20))
	if n == 1 {
		return b.MustBuild()
	}
	nInst := 2 + r.Intn(3) // 2..4 institutional gateways
	if nInst > n-1 {
		nInst = n - 1
	}
	insts := make([]string, nInst)
	for i := 0; i < nInst; i++ {
		insts[i] = fmt.Sprintf("inst%d", i)
		// Fat link, decent shared cluster head.
		b.Child("master", insts[i], randRat(r, 2, 4), rat.FromInt(r.Int63n(4)+2))
	}
	for i := nInst + 1; i < n; i++ {
		inst := insts[r.Intn(nInst)]
		// Thin home link, slow home machine.
		b.Child(inst, fmt.Sprintf("home%d", i), randRat(r, 12, 2).Add(rat.One), rat.FromInt(r.Int63n(10)+4))
	}
	return b.MustBuild()
}

// BandwidthSeverity generates a platform whose links are slowed by the
// given severity factor relative to a compute-balanced baseline: severity
// 1 leaves most nodes feedable, larger values starve progressively more of
// the platform. Used by the E5 sweep over bottleneck severity.
func BandwidthSeverity(n int, severity int64, seed int64) *tree.Tree {
	if n < 1 {
		panic("treegen: n must be >= 1")
	}
	if severity < 1 {
		panic("treegen: severity must be >= 1")
	}
	r := rand.New(rand.NewSource(seed))
	return grow(r, n, growParams{
		maxFanout: 4,
		comm:      func() rat.R { return randRat(r, 4, 2).Mul(rat.FromInt(severity)) },
		proc:      func() rat.R { return rat.FromInt(r.Int63n(12) + 5) },
	})
}
