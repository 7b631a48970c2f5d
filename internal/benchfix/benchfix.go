// Package benchfix holds the benchmark fixtures shared between the
// repo-root bench_test.go experiments and the internal/perf/suite
// registry, so both measure the same platforms with the same seeds. A
// seed or size change here deliberately shifts every recorded
// trajectory; do not tweak casually.
package benchfix

import (
	"bwc"
)

// Fork16 is the E1 fork graph: a height-1 star of 16 workers.
func Fork16() *bwc.Tree { return bwc.GeneratePlatform(bwc.WideStar, 16, 1) }

// BandwidthLimited200 is the E5 visited-nodes platform: 200 nodes whose
// links, not processors, bound throughput, so BW-First prunes most of
// the tree.
func BandwidthLimited200() *bwc.Tree {
	return bwc.GeneratePlatform(bwc.BandwidthLimited, 200, 7)
}

// Uniform25 is the E6 LP cross-check platform.
func Uniform25() *bwc.Tree { return bwc.GeneratePlatform(bwc.Uniform, 25, 3) }

// Uniform64 is the Session solve platform (cold vs cached benchmarks).
func Uniform64() *bwc.Tree { return bwc.GeneratePlatform(bwc.Uniform, 64, 11) }

// LongBunch64 is the BuildSchedule stage platform: a 64-node uniform
// tree whose largest bunch Ψ is 15,179 slots, which a schedule build
// must not pay for (the bunch order is derived on use).
func LongBunch64() *bwc.Tree { return bwc.GeneratePlatform(bwc.Uniform, 64, 10) }

// Analyze16 is the Analyze and ServeSimulate stage platform: a 16-node
// uniform tree (largest bunch Ψ 15) whose AnalyzeTasks-task observed run
// gets past start-up, so every forward-only conformance check runs and
// passes (result-return skips).
func Analyze16() *bwc.Tree { return bwc.GeneratePlatform(bwc.Uniform, 16, 1) }

// AnalyzeTasks is the task count of the Analyze and ServeSimulate runs,
// the count a simulate request with analyze sends.
const AnalyzeTasks = 120

// ComputeLimited is the E9 scalability family: every node stays useful,
// so the distributed procedure's message count scales with n.
func ComputeLimited(n int) *bwc.Tree {
	return bwc.GeneratePlatform(bwc.ComputeLimited, n, 5)
}

// PrimeHeavy is the E15 quantization platform: pairwise-coprime
// processor and link denominators drive the exact tree period to 323323.
func PrimeHeavy() *bwc.Tree {
	return bwc.NewBuilder().
		Root("m", bwc.RatInt(7)).
		Child("m", "a", bwc.Rat(1, 2), bwc.RatInt(11)).
		Child("m", "b", bwc.Rat(2, 3), bwc.RatInt(13)).
		Child("a", "c", bwc.Rat(3, 5), bwc.RatInt(17)).
		Child("b", "d", bwc.Rat(4, 7), bwc.RatInt(19)).
		MustBuild()
}

// ResultReturnStar is the E10 Section 9 counter-example: two workers
// behind half-bandwidth links with uniform result-return cost 1/2.
// Separate flows reach 2 tasks/unit; the folded model predicts 1.
func ResultReturnStar() (*bwc.Tree, error) {
	tr, err := bwc.ParsePlatformString(`
m  -  -   inf
w1 m  1/2 1
w2 m  1/2 1
`)
	if err != nil {
		return nil, err
	}
	return bwc.PlatformWithUniformResultReturn(tr, bwc.Rat(1, 2))
}

// PaperSchedule builds the Figure-5 schedule of the paper's Section 8
// example tree — the fixture behind the Gantt and observability
// benchmarks. It panics on error: the paper tree is a constant and a
// failure here is a bug, not an input problem.
func PaperSchedule() *bwc.Schedule {
	s, err := bwc.BuildSchedule(bwc.Solve(bwc.PaperExampleTree()))
	if err != nil {
		panic("benchfix: paper schedule: " + err.Error())
	}
	return s
}
