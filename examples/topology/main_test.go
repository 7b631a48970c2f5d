package main

// Example pins the ranking of the 100 candidate overlays, the share of
// nodes BW-First visited, and the winner's period and start-up bound.
func Example() {
	main()
	// Output:
	// evaluated 100 candidate overlays of 30 machines
	// BW-First visited 464 of 3000 nodes in total (15% of the work the
	// bottom-up method would have spent)
	//
	// top overlays by steady-state throughput:
	// rank family             seed     tasks/unit    visited
	// 1    wide-star             5              4          7
	// 2    wide-star             8              4          3
	// 3    wide-star            24          51/14          6
	// 4    uniform               8         141/40          5
	// 5    wide-star            21              3          2
	//
	// best 4 vs worst 2/3: 6.0x throughput from topology choice alone
	// winner's steady-state period: 12 units; startup bound 12
}
