package main

// Example pins the whole transcript: the degraded P1 uplink drops the
// throughput from 10/9 to 137/180 and the protocol cost from 16 to 10
// messages, four nodes leave the schedule and P5 joins it.
func Example() {
	main()
	// Output:
	// initial negotiation: throughput 10/9, 8 nodes enrolled, 16 protocol messages
	// after degradation:   throughput 137/180, 5 nodes enrolled, 10 protocol messages
	//
	// role changes:
	//   P1   dropped from the schedule
	//   P5   newly enrolled
	//   P3   dropped from the schedule
	//   P4   dropped from the schedule
	//   P8   dropped from the schedule
	//
	// per-edge steady-state rates from the root:
	// child        before        after
	// P1              1/2            0
	// P2              1/2          3/5
	// P5                0         1/20
	//
	// before: simulated 60 tasks over 643/10 units (period 360)
	// after: simulated 411 tasks over 60224/109 units (period 180)
}
