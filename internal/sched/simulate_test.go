package sched_test

import (
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/sched"
	"bwc/internal/sim"
	"bwc/internal/treegen"
)

// TestQuantizeSimulates: a quantized schedule is executable. Across the
// treegen families where rounding the rates down to denominators
// dividing D = 100 loses throughput, every quantized schedule keeps
// Lemma 1's invariants, deploys the quantized rate, simulates at that
// rate and conserves every task. An exact schedule deploys the optimum.
func TestQuantizeSimulates(t *testing.T) {
	lossy := 0
	for _, k := range []treegen.Kind{treegen.Uniform, treegen.SETI, treegen.BandwidthLimited} {
		for seed := int64(1); seed <= 20; seed++ {
			tr := treegen.Generate(k, 12, seed)
			res := bwfirst.Solve(tr)
			exact, err := sched.Build(res, sched.Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", k, seed, err)
			}
			if !exact.Throughput().Equal(res.Throughput) {
				t.Fatalf("%s seed %d: exact schedule deploys %s, optimum %s", k, seed, exact.Throughput(), res.Throughput)
			}
			s, thr, err := sched.Quantize(res, 100, sched.Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", k, seed, err)
			}
			if !thr.IsPos() || !thr.Less(res.Throughput) {
				continue
			}
			lossy++
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s seed %d: %v", k, seed, err)
			}
			run, err := sim.Simulate(s, sim.Options{Periods: 2, SkipIntervals: true})
			if err != nil {
				t.Fatalf("%s seed %d: quantized schedule (rate %s of %s) refused: %v", k, seed, thr, res.Throughput, err)
			}
			if err := run.CheckConservation(); err != nil {
				t.Fatalf("%s seed %d: %v", k, seed, err)
			}
			if !run.Stats.Throughput.Equal(thr) {
				t.Fatalf("%s seed %d: run targets %s, quantized rate %s", k, seed, run.Stats.Throughput, thr)
			}
		}
	}
	if lossy < 40 {
		t.Fatalf("only %d of 60 platforms lose throughput to quantization; the sweep lost its teeth", lossy)
	}
}
