package main

// Example pins the Section 9 counter-example (2 tasks/unit with
// separate flows against the folded model's 1), the engine run that
// drains every result home, and the sweep over the result size d.
func Example() {
	main()
	// Output:
	// separate flows (correct model): 2 tasks/unit (LP optimum 2)
	//   w1 computes 1/unit
	//   w2 computes 1/unit
	//   master send port:    2 x 1/2 x 1 = 1 (saturated, but feasible)
	//   master receive port: 2 x 1/2 x 1 = 1 (saturated, but feasible)
	//
	// folded model (c' = c + d = 1):  1 task/unit
	//   the folded model charges the result transfer against the SEND port,
	//   so the master appears able to serve only one worker per time unit —
	//   underestimating the platform by a factor of 2x.
	//
	// engine run: 40 released, 40 computed, 40 results home (makespan 43/2)
	//
	// sweep on the 12-node Section 8 platform (result size d per task):
	// d                true       folded      error
	// 0                10/9         10/9       0.0%
	// 1/4           127/117    1559/1638      12.3%
	// 1/2             67/63     841/1008      21.5%
	// 1           7289/7200       97/144      33.5%
	// 2               11/18      313/630      18.7%
	//
	// conclusion: result returns are a first-class platform model here —
	// the greedy procedure schedules both flows, the engine executes them,
	// and the LP certifies the rate (see `bwsched resultreturn`).
}
