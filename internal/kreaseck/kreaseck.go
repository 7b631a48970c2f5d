// Package kreaseck implements a demand-driven, autonomous bandwidth-centric
// protocol in the spirit of Kreaseck, Carter, Casanova and Ferrante [12] —
// the comparator the paper discusses in Sections 2 and 7. Both of their
// communication models are provided: the non-interruptible model (the
// paper's own model, where a started transmission always completes) and
// the interruptible model, where a request from a higher-priority child —
// one with a strictly faster link — aborts an ongoing transmission to a
// lower-priority child (abort-and-restart semantics: the preempted task
// returns to the sender's buffer and the partial transfer is lost).
//
// Each node tries to keep a small local buffer of tasks by sending request
// messages up the tree; a parent serves pending requests from its buffer,
// granting tasks to the requesting child with the fastest link first
// (bandwidth-centric priority). Once a transmission starts it cannot be
// interrupted, even if a higher-priority request arrives — this is exactly
// the source of the suboptimal decisions Banino points out: bandwidth can
// be committed to a slow link moments before a fast consumer asks.
//
// The paper's qualitative claims about this family of protocols, which
// experiment E8 measures against the event-driven schedule:
//
//   - start-up is longer (demand must propagate up and tasks trickle down
//     with no global rate information), and
//   - buffers overshoot (each node hoards its target regardless of what
//     the steady state actually needs).
//
// Request messages are modeled as instantaneous: they carry a single
// number, negligible next to task payloads (the same argument the paper
// makes for BW-First's transaction messages).
package kreaseck

import (
	"fmt"

	"bwc/internal/des"
	"bwc/internal/rat"
	"bwc/internal/trace"
	"bwc/internal/tree"
)

// Options configures a run.
type Options struct {
	// Stop is when the root stops granting tasks; in-flight work drains
	// afterwards. Exactly one of Stop and MaxTasks must be set.
	Stop rat.R
	// MaxTasks, when positive, lets the root hand out exactly this many
	// tasks (a finite batch) instead of stopping at a time.
	MaxTasks int
	// BufferTarget is the number of tasks each node tries to keep
	// buffered for itself (default 2). Nodes additionally forward the
	// demand of their children.
	BufferTarget int
	// Interruptible switches to the interruptible communication model: a
	// pending request over a strictly faster link preempts an ongoing
	// transmission (the preempted task returns to the buffer; partial
	// progress is lost unless Resume is also set).
	Interruptible bool
	// Resume preserves the progress of preempted transmissions: when the
	// interrupted child is next served, only the remaining transfer time
	// is paid. Models links that can suspend and continue a transfer.
	Resume bool
	// MaxEvents bounds the engine (default des.DefaultMaxEvents).
	MaxEvents uint64
	// SkipIntervals suppresses Gantt interval recording.
	SkipIntervals bool
}

// Stats summarizes a demand-driven run.
type Stats struct {
	StopAt    rat.R
	Completed int
	// Makespan is the completion time of the last task.
	Makespan rat.R
	// MaxHeld is the peak buffered-task count over all nodes.
	MaxHeld int
	// WindDown is the drain time after StopAt.
	WindDown rat.R
	// Aborted counts transmissions preempted under the interruptible
	// model (always 0 otherwise).
	Aborted int
}

// Run is the result of a simulation.
type Run struct {
	Tree  *tree.Tree
	Trace *trace.Trace
	Stats Stats
}

type nodeState struct {
	id       tree.NodeID
	held     int // buffered tasks
	sampled  int
	computes bool
	// outstanding counts requests sent to the parent and not yet
	// delivered.
	outstanding int
	// pending[j] counts undelivered requests from child j (insertion
	// order index).
	pending   []int
	computing bool
	sending   bool
	// In-flight transmission state, for the interruptible model.
	sendChild  int
	sendStart  rat.R
	sendCost   rat.R
	sendHandle des.Handle
	// aborted counts transmissions preempted at this node.
	aborted int
	// remaining[j] is the unfinished transfer time towards child j left
	// over from a preemption (Resume mode).
	remaining []rat.R
	// resumable[j] marks that the task at the head of child j's service
	// is a preempted one whose data is partially transferred.
	resumable []bool
}

type simulator struct {
	eng   *des.Engine
	t     *tree.Tree
	tr    *trace.Trace
	nodes []nodeState
	opt   Options
	// handedOut counts tasks the root has taken from its source; lastGrant
	// is when the source was last tapped (the effective stop in MaxTasks
	// mode).
	handedOut int
	lastGrant rat.R
}

// stopAt returns the effective stop time of the run.
func (sm *simulator) stopAt() rat.R {
	if sm.opt.MaxTasks > 0 {
		return sm.lastGrant
	}
	return sm.opt.Stop
}

// Simulate runs the demand-driven protocol on t until Stop plus drain.
func Simulate(t *tree.Tree, opt Options) (*Run, error) {
	if t.Len() == 0 {
		return nil, fmt.Errorf("kreaseck: empty platform")
	}
	if opt.Stop.IsPos() == (opt.MaxTasks > 0) {
		return nil, fmt.Errorf("kreaseck: set exactly one of Stop and MaxTasks")
	}
	if opt.BufferTarget == 0 {
		opt.BufferTarget = 2
	}
	if opt.MaxEvents == 0 {
		opt.MaxEvents = des.DefaultMaxEvents
	}
	sm := &simulator{
		eng:   &des.Engine{},
		t:     t,
		tr:    &trace.Trace{Tree: t},
		nodes: make([]nodeState, t.Len()),
		opt:   opt,
	}
	for i := range sm.nodes {
		id := tree.NodeID(i)
		sm.nodes[i] = nodeState{
			id:        id,
			computes:  !t.IsSwitch(id),
			pending:   make([]int, len(t.Children(id))),
			remaining: make([]rat.R, len(t.Children(id))),
			resumable: make([]bool, len(t.Children(id))),
		}
	}
	sm.eng.SetHandler(sm.fire)
	// Kick-off at t = 0: every node issues its initial requests (leaves
	// first is irrelevant — requests are instantaneous and idempotent).
	for i := range sm.nodes {
		sm.maybeRequest(&sm.nodes[i])
	}
	if err := sm.eng.Drain(opt.MaxEvents); err != nil {
		return nil, err
	}
	sm.tr.End = sm.eng.Now()

	st := Stats{StopAt: sm.stopAt(), Completed: sm.tr.TotalCompleted()}
	if last, ok := sm.tr.LastCompletion(); ok {
		st.Makespan = last
		if st.StopAt.Less(last) {
			st.WindDown = last.Sub(st.StopAt)
		}
	}
	for _, h := range sm.tr.MaxBufferHeld() {
		if h > st.MaxHeld {
			st.MaxHeld = h
		}
	}
	for i := range sm.nodes {
		st.Aborted += sm.nodes[i].aborted
	}
	return &Run{Tree: t, Trace: sm.tr, Stats: st}, nil
}

// The model's DES event kinds: node Node finishes computing a task, or
// finishes transmitting one to child Arg.
const (
	computeDone des.Kind = iota
	sendDone
)

// fire is the DES handler.
func (sm *simulator) fire(ev des.Event) {
	n := &sm.nodes[ev.Node]
	if ev.Kind == computeDone {
		n.computing = false
		sm.tr.AddCompletion(n.id, sm.eng.Now())
		sm.maybeRequest(n)
		sm.kickAll(n)
		return
	}
	child := tree.NodeID(ev.Arg)
	n.sending = false
	if !sm.opt.SkipIntervals {
		end := sm.eng.Now()
		sm.tr.AddInterval(trace.Interval{Node: n.id, Kind: trace.Send, Start: n.sendStart, End: end, Peer: child})
		sm.tr.AddInterval(trace.Interval{Node: child, Kind: trace.Recv, Start: n.sendStart, End: end, Peer: n.id})
	}
	cn := &sm.nodes[child]
	cn.outstanding--
	cn.held++
	sm.kickAll(cn)
	sm.maybeRequest(cn) // top back up after consuming headroom
	sm.kickAll(n)
}

// demand returns how many tasks node n currently wants to hold: its own
// buffer target (when it computes) plus everything its children are asking
// for.
func (sm *simulator) demand(n *nodeState) int {
	want := 0
	if n.computes {
		want = sm.opt.BufferTarget
	}
	for _, p := range n.pending {
		want += p
	}
	return want
}

// maybeRequest sends request messages to the parent to cover the node's
// deficit. The root owns the task source and never requests.
func (sm *simulator) maybeRequest(n *nodeState) {
	if n.id == sm.t.Root() {
		sm.kickAll(n)
		return
	}
	deficit := sm.demand(n) - n.held - n.outstanding
	if deficit <= 0 {
		return
	}
	n.outstanding += deficit
	parent := &sm.nodes[sm.t.Parent(n.id)]
	idx := childIndex(sm.t, n.id)
	// Requests are instantaneous control messages.
	parent.pending[idx] += deficit
	sm.maybeRequest(parent) // demand propagates up immediately
	sm.maybePreempt(parent)
	sm.kickAll(parent)
}

func childIndex(t *tree.Tree, id tree.NodeID) int {
	for j, c := range t.Children(t.Parent(id)) {
		if c == id {
			return j
		}
	}
	panic("kreaseck: node missing from its parent's child list")
}

func (sm *simulator) kickAll(n *nodeState) {
	sm.kickCompute(n)
	sm.kickSend(n)
	sm.sampleBuffer(n)
}

// available reports whether node n can hand out a task right now. The root
// draws from its source until Stop (or until MaxTasks are handed out).
func (sm *simulator) available(n *nodeState) bool {
	if n.id == sm.t.Root() {
		if sm.opt.MaxTasks > 0 {
			return sm.handedOut < sm.opt.MaxTasks
		}
		return sm.eng.Now().Less(sm.opt.Stop)
	}
	return n.held > 0
}

// take removes one task from n's buffer (or the root's source).
func (sm *simulator) take(n *nodeState) {
	if n.id == sm.t.Root() {
		sm.handedOut++
		sm.lastGrant = sm.eng.Now()
		return
	}
	n.held--
}

func (sm *simulator) kickCompute(n *nodeState) {
	if !n.computes || n.computing || !sm.available(n) {
		return
	}
	// The local CPU consumes without using the port: serve it first.
	sm.take(n)
	n.computing = true
	w, _ := sm.t.ProcTime(n.id)
	start := sm.eng.Now()
	end := start.Add(w)
	if !sm.opt.SkipIntervals {
		sm.tr.AddInterval(trace.Interval{Node: n.id, Kind: trace.Compute, Start: start, End: end, Peer: tree.None})
	}
	sm.eng.Post(end, des.Event{Kind: computeDone, Node: int32(n.id)})
	sm.sampleBuffer(n)
}

// kickSend grants one buffered task to the highest-priority pending
// request (smallest link time, ties by child order). Under the
// non-interruptible model the choice is locked in for the whole
// transmission; under the interruptible model a later, strictly
// higher-priority request may abort it (see maybePreempt).
func (sm *simulator) kickSend(n *nodeState) {
	if n.sending || !sm.available(n) {
		return
	}
	best := -1
	var bestC rat.R
	for j, p := range n.pending {
		if p == 0 {
			continue
		}
		c := sm.t.CommTime(sm.t.Children(n.id)[j])
		if best < 0 || c.Less(bestC) {
			best, bestC = j, c
		}
	}
	if best < 0 {
		return
	}
	sm.take(n)
	n.pending[best]--
	n.sending = true
	n.sendChild = best
	n.sendStart = sm.eng.Now()
	child := sm.t.Children(n.id)[best]
	cost := bestC
	if sm.opt.Resume && n.resumable[best] {
		cost = n.remaining[best]
		n.resumable[best] = false
		n.remaining[best] = rat.Zero
	}
	n.sendCost = cost
	n.sendHandle = sm.eng.Post(n.sendStart.Add(cost), des.Event{Kind: sendDone, Node: int32(n.id), Arg: int64(child)})
	sm.sampleBuffer(n)
}

// maybePreempt aborts n's ongoing transmission when a pending request uses
// a strictly faster link than the one being served (interruptible model
// only). The task returns to the buffer, the preempted child's request is
// reinstated, and the partial transfer is recorded as a truncated Send.
func (sm *simulator) maybePreempt(n *nodeState) {
	if !sm.opt.Interruptible || !n.sending {
		return
	}
	cur := sm.t.CommTime(sm.t.Children(n.id)[n.sendChild])
	better := false
	for j, p := range n.pending {
		if p > 0 && sm.t.CommTime(sm.t.Children(n.id)[j]).Less(cur) {
			better = true
			break
		}
	}
	if !better {
		return
	}
	if !sm.eng.Cancel(n.sendHandle) {
		return // completion already fired at this instant
	}
	child := sm.t.Children(n.id)[n.sendChild]
	now := sm.eng.Now()
	if !sm.opt.SkipIntervals && n.sendStart.Less(now) {
		sm.tr.AddInterval(trace.Interval{Node: n.id, Kind: trace.Send, Start: n.sendStart, End: now, Peer: child})
		sm.tr.AddInterval(trace.Interval{Node: child, Kind: trace.Recv, Start: n.sendStart, End: now, Peer: n.id})
	}
	n.sending = false
	n.aborted++
	n.pending[n.sendChild]++ // the preempted request is still unserved
	if sm.opt.Resume {
		// Bank the progress: the next service of this child pays only
		// the remainder. sendCost was the cost of the interrupted
		// transfer (the full link time, or a prior remainder).
		n.remaining[n.sendChild] = n.sendCost.Sub(now.Sub(n.sendStart))
		n.resumable[n.sendChild] = true
	}
	sm.untake(n) // the task returns to the buffer
	sm.kickSend(n)
	sm.sampleBuffer(n)
}

// untake returns one task to n's buffer (undoing take after an abort).
func (sm *simulator) untake(n *nodeState) {
	if n.id == sm.t.Root() {
		sm.handedOut--
		return
	}
	n.held++
}

func (sm *simulator) sampleBuffer(n *nodeState) {
	if n.held == n.sampled {
		return
	}
	n.sampled = n.held
	sm.tr.AddBufferSample(n.id, sm.eng.Now(), n.held)
}
