// Quickstart: build a small heterogeneous platform, compute its optimal
// steady-state throughput with BW-First, reconstruct the event-driven
// schedules, and simulate a run with start-up and wind-down.
package main

import (
	"fmt"
	"log"

	"bwc"
)

func main() {
	// A master with two workers. The master needs 2 time units per task;
	// w1 is slow to compute (3) but cheap to reach (1); w2 is faster (2)
	// but behind a slow link (3).
	platform := bwc.NewBuilder().
		Root("master", bwc.RatInt(2)).
		Child("master", "w1", bwc.RatInt(1), bwc.RatInt(3)).
		Child("master", "w2", bwc.RatInt(3), bwc.RatInt(2)).
		MustBuild()

	// 1. Optimal steady-state throughput (the BW-First procedure).
	res := bwc.Solve(platform)
	fmt.Printf("optimal throughput: %s tasks per time unit\n", res.Throughput)
	fmt.Printf("transactions:\n%s", res.TranscriptString())

	// 2. Each node's autonomous event-driven schedule.
	s, err := bwc.BuildSchedule(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlocal schedules (no clock needed except at the root):\n%s", s)
	fmt.Printf("tree period: %s units (%s tasks per period)\n\n",
		s.TreePeriod(), res.Throughput.MulInt(s.TreePeriod()))

	// 3. Simulate: start from empty buffers, stop delegating after six
	// root periods, drain.
	run, err := bwc.Simulate(s, bwc.WithPeriods(6))
	if err != nil {
		log.Fatal(err)
	}
	if err := run.CheckConservation(); err != nil {
		log.Fatal(err)
	}
	st := run.Stats
	fmt.Printf("simulated %d tasks; steady from t=%s; wind-down %s; max %d buffered\n",
		st.Completed, st.SteadyStart, st.WindDown, st.MaxHeld)

	// 4. A Gantt excerpt, Figure-5 style.
	fmt.Printf("\nGantt (first 22 units):\n%s",
		bwc.GanttASCII(run.Trace, bwc.RatInt(0), bwc.RatInt(22), bwc.RatInt(1)))
}
