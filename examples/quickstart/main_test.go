package main

// Example pins the whole walk-through: BW-First's two transactions and
// the 19/18 optimum, the per-node event-driven schedules, the simulated
// run and its Gantt excerpt.
func Example() {
	main()
	// Output:
	// optimal throughput: 19/18 tasks per time unit
	// transactions:
	//  1. master -> w1: propose β=1, ack θ=2/3 (accepted 1/3)
	//  2. master -> w2: propose β=2/9, ack θ=0 (accepted 2/9)
	//
	// local schedules (no clock needed except at the root):
	// master: every 18 units, compute 9, send 6 to w1, send 4 to w2 | order: master w1 w2 master w1 master w2 master w1 master w1 w2 master master w1 w2 master w1 master
	// w1: every 3 units, compute 1 | order: w1
	// w2: every 9 units, compute 2 | order: w2 w2
	// tree period: 18 units (19 tasks per period)
	//
	// simulated 114 tasks; steady from t=18; wind-down 28/5; max 4 buffered
	//
	// Gantt (first 22 units):
	// t=      0         10        20
	// masterS ..SSSSSSSSSSSSSSSSSSSS
	// masterC .CCCCCCCCCCCCCCCCCCCCC
	// w1    C ...CCCCCCCCCCCCCCCCCCC
	// w1    R ..RR..RR..RRR..RR..RRR
	// w2    C ......CCC.CCC..CCC.CCC
	// w2    R ...RRRRRRRR.RRRRRRRR.R
}
