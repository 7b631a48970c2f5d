package engine

import (
	"fmt"
	"strings"
	"sync"

	"bwc/internal/sched"
	"bwc/internal/tree"
)

// Recorder captures the backend-independent decision streams of a run:
// per node, the sequence of routing decisions its allocation pattern
// made (Self or a child index), the sequence of children its send port
// served, and the count of tasks it computed. Under the single-port
// model these streams are fully determined by the schedule and the
// release sequence — transfers from a parent are serialized by its one
// send port, so arrival order (and with it every downstream decision)
// is identical no matter how the backend interleaves wall-clock events.
// Two backends executing the same schedule must therefore produce
// byte-identical Fingerprints; the differential test pins exactly that.
type Recorder struct {
	mu       sync.Mutex
	routes   [][]sched.Dest
	sends    [][]int
	computes []int64
	// results counts upward result departures per node (transfers started
	// plus zero-cost teleport hops). Counts, not sequences: results from
	// different children race on wall-clock arrival order, so only the
	// totals are backend-deterministic. All zero on forward-only runs.
	results []int64
}

// NewRecorder returns an empty recorder; the core sizes it at New.
func NewRecorder() *Recorder { return &Recorder{} }

func (r *Recorder) init(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes = make([][]sched.Dest, n)
	r.sends = make([][]int, n)
	r.computes = make([]int64, n)
	r.results = make([]int64, n)
}

func (r *Recorder) route(n tree.NodeID, d sched.Dest) {
	r.mu.Lock()
	r.routes[n] = append(r.routes[n], d)
	r.mu.Unlock()
}

func (r *Recorder) send(n tree.NodeID, child int) {
	r.mu.Lock()
	r.sends[n] = append(r.sends[n], child)
	r.mu.Unlock()
}

func (r *Recorder) compute(n tree.NodeID) {
	r.mu.Lock()
	r.computes[n]++
	r.mu.Unlock()
}

func (r *Recorder) resultUp(n tree.NodeID) {
	r.mu.Lock()
	r.results[n]++
	r.mu.Unlock()
}

// Fingerprint renders the full decision streams canonically, one line
// per node. Byte-equal fingerprints mean two runs made identical
// per-node event sequences. The results column appears only when the
// run recorded any upward result flow, so forward-only fingerprints are
// byte-identical to those of builds that predate result returns.
func (r *Recorder) Fingerprint() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	anyResults := false
	for _, v := range r.results {
		if v != 0 {
			anyResults = true
			break
		}
	}
	var b strings.Builder
	for n := range r.routes {
		fmt.Fprintf(&b, "node %d: routes=%v sends=%v computes=%d",
			n, r.routes[n], r.sends[n], r.computes[n])
		if anyResults {
			fmt.Fprintf(&b, " results=%d", r.results[n])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Results returns how many results departed node n toward its parent
// (transfers plus zero-cost hops). Zero on forward-only runs.
func (r *Recorder) Results(n tree.NodeID) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.results[n]
}
