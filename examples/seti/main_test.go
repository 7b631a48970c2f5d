package main

// Example pins the whole transcript: the SETI platform's optimal rate
// and its bandwidth-centric pruning, the simulated campaign, and the
// Section 9 result-return estimates.
func Example() {
	main()
	// Output:
	// platform: 40 nodes, height 2
	// optimal rate: 121637/56628 tasks/unit (2.148)
	// volunteers enrolled: 17 of 40 (pruned 23 whose links cannot sustain work)
	// steady-state period: 283140 units
	// start-up bound (Prop. 4): 143143 units
	//
	// campaign: 1287 work units completed in 4388970/7079 time units
	// wind-down after stop: 141570/7079 units; peak buffered: 4 tasks
	// effective rate: 2.076 tasks/unit (96.6% of the steady-state optimum)
	//
	// with result return (d = 1/4 per task):
	//   true optimum (separate flows): 3496919/1776060 tasks/unit
	//   folded-model estimate:         3167111/1776060 tasks/unit
}
