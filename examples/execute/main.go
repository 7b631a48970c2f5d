// Execute: run a Master-Worker application for real — goroutines as
// platform nodes, channels as links — under the paper's event-driven
// schedule. The workload here is a toy checksum search over task-indexed
// blocks; the point is that the schedule drives genuine concurrent work
// and the measured wall-clock makespan tracks the simulator's prediction.
package main

import (
	"fmt"
	"hash/fnv"
	"log"
	"sync/atomic"
	"time"

	"bwc"
)

// batch is one run of the example: the simulator's prediction for n
// tasks and the real execution of the same batch, with the aggregate
// checksum of the work its tasks did.
type batch struct {
	res       *bwc.Result
	predicted *bwc.Run
	executed  *bwc.ExecuteReport
	checksum  uint64
}

// blockHash is one task's work: hashing its block id.
func blockHash(task int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "block-%d", task)
	return h.Sum64()
}

// runBatch predicts n tasks on the Section 8 tree with the
// discrete-event simulator, then executes them for real with one virtual
// time unit lasting scale.
func runBatch(n int, scale time.Duration) (*batch, error) {
	res := bwc.Solve(bwc.PaperExampleTree())
	s, err := bwc.BuildSchedule(res)
	if err != nil {
		return nil, err
	}
	pred, err := bwc.Simulate(s, bwc.WithTasks(n), bwc.WithSkipIntervals())
	if err != nil {
		return nil, err
	}
	// Real execution: each task hashes its block id; nodes run as
	// goroutines and tasks flow over channels per the schedule.
	var checksum uint64
	rep, err := bwc.Execute(s,
		bwc.WithTasks(n),
		bwc.WithScale(scale),
		bwc.WithWork(func(node bwc.NodeID, task int) {
			atomic.AddUint64(&checksum, blockHash(task))
		}))
	if err != nil {
		return nil, err
	}
	return &batch{res: res, predicted: pred, executed: rep, checksum: atomic.LoadUint64(&checksum)}, nil
}

func main() {
	const n = 120
	scale := 2 * time.Millisecond // one virtual time unit = 2ms

	b, err := runBatch(n, scale)
	if err != nil {
		log.Fatal(err)
	}
	platform, rep := b.res.Tree, b.executed
	predicted := time.Duration(b.predicted.Stats.Makespan.Float64() * float64(scale))
	fmt.Printf("platform: the Section 8 tree, optimal rate %s tasks/unit\n", b.res.Throughput)
	fmt.Printf("batch:    %d tasks at %v per virtual unit\n", n, scale)
	fmt.Printf("predicted makespan: %v (simulator: %s virtual units)\n\n", predicted, b.predicted.Stats.Makespan)

	fmt.Printf("executed %d tasks in %v (%.0f%% of prediction)\n",
		rep.Total, rep.Elapsed.Round(time.Millisecond),
		100*float64(rep.Elapsed)/float64(predicted))
	fmt.Printf("aggregate checksum: %x\n\n", b.checksum)

	fmt.Printf("per-node execution counts (only the 8 enrolled nodes work):\n")
	for id := 0; id < platform.Len(); id++ {
		if rep.Executed[id] > 0 {
			fmt.Printf("  %-4s %4d tasks (steady share %s/unit)\n",
				platform.Name(bwc.NodeID(id)), rep.Executed[id], b.res.Nodes[id].Alpha)
		}
	}
}
