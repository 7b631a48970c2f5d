package main

import (
	"testing"
	"time"
)

// TestBatchInvariants checks what the wall clock cannot change about the
// example's batch: every task runs exactly once — the checksum is the sum
// of every block's hash — and each node executes as many tasks as the
// simulator predicts for it.
func TestBatchInvariants(t *testing.T) {
	const n = 120
	b, err := runBatch(n, 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for task := 0; task < n; task++ {
		want += blockHash(task)
	}
	if b.executed.Total != n || b.checksum != want {
		t.Fatalf("executed %d of %d tasks, checksum %x, want %x", b.executed.Total, n, b.checksum, want)
	}
	perNode := make([]int, b.res.Tree.Len())
	for _, c := range b.predicted.Trace.Completions {
		perNode[c.Node]++
	}
	for id, got := range b.executed.Executed {
		if got != perNode[id] {
			t.Errorf("node %d executed %d tasks, simulator predicts %d", id, got, perNode[id])
		}
	}
}
