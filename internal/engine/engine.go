// Package engine is the backend-agnostic scheduling-engine core: one
// implementation of the paper's Section-6 event-driven local schedule
// that every execution backend shares.
//
// The automaton implements, exactly once,
//
//   - the receive → compute → send state machine of a node under the
//     single-port full-overlap model (at most one task computing and one
//     task on the send port at any instant, receive serialized by the
//     parent's own send port);
//   - Ψ-bunch accounting (Section 6.2): incoming tasks are consumed
//     in the node's bunch order, which a sched.Cursor derives from ψ
//     slot by slot, so each wrap of the cursor is one Lemma-1 consuming
//     period T^w;
//   - buffer watermark tracking (Proposition 3): the buffered-task count
//     (compute + send queues, excluding tasks in service) and its peak,
//     the quantity χ bounds;
//   - schedule switches for dynamic runs: InstallDelta atomically
//     re-points every node at a new schedule's bunch order and resets
//     the cursors of the nodes it lists, and SetPhysics publishes
//     re-measured platform weights.
//
// Backends parameterize the core with two small interfaces: a Clock that
// hands the core's timed events (pointer-free Event records, not
// closures) back to Core.Fire in the backend's time domain (exact
// rational virtual time for the simulator, scaled wall-clock timers for
// the goroutine runtime) and a Transport that carries a task whose transfer
// completed to the child's receive port (in-process backends deliver
// directly). All observability flows through one choke point, the Hooks
// interface: the engine itself never touches internal/obs, each backend
// translates the hook stream into its traces, spans and metrics.
//
// The engine is goroutine-safe: one mutex serializes state transitions,
// while the time-consuming parts of a run (transfers, computations) are
// Clock waits taken outside the lock. A single-threaded backend (the
// DES) pays one uncontended lock per transition.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bwc/internal/des"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/tree"
)

// Task is one unit of work flowing through the platform.
type Task struct {
	// ID is the release index of the task (assigned by the root pacer).
	ID int
}

// Event is one of the core's timed transitions, as a pointer-free
// record: Kind names it, Node is the node it completes at, Arg the
// peer (the child of a transfer, or the parent of a result transfer)
// and Task the task's ID. Kinds below NumKinds are the core's; a
// backend that posts events of its own numbers them from NumKinds.
type Event = des.Event

// The core's event kinds: the four transitions that complete after a
// Clock wait.
const (
	// computeDone: Node finished computing Task.
	computeDone des.Kind = iota
	// sendDone: Node finished sending Task to its child Arg
	// (forward-only platforms).
	sendDone
	// sendDoneRet: Node finished sending Task to its child Arg on a
	// result-return platform, freeing the child's receive port too.
	sendDoneRet
	// resultDone: Node finished sending Task's result to its parent Arg.
	resultDone
	// NumKinds is the number of core event kinds.
	NumKinds
)

// Clock schedules work in the backend's time domain. After must hand ev
// to Core.Fire d virtual-time units from now; implementations may fire
// on any goroutine (the core re-locks its own state inside Fire).
type Clock interface {
	After(d rat.R, ev Event)
}

// Transport carries a task that finished its transfer on the parent's
// send port to the child's receive port. In-process backends deliver
// directly to the core (the default when Config.Transport is nil); a
// distributed deployment would marshal the task here.
type Transport interface {
	Deliver(child tree.NodeID, tk Task)
}

// Hooks is the engine's single observability choke point. The core calls
// them at every state transition; backends translate them into traces,
// spans and metrics. Implementations must not call back into the core
// (except Deliver/Arrive from a Transport) and should be fast:
// ComputeStarted, SendStarted and BufferChanged run with the core lock
// held. ComputeFinished and SendFinished run outside the lock, so user
// payloads (runtime.Config.Work) may take their time.
type Hooks interface {
	// ComputeStarted fires when n's CPU claims a task; w is the
	// processing time the current physics charges for it.
	ComputeStarted(n tree.NodeID, tk Task, w rat.R)
	// ComputeFinished fires when the task's processing time elapsed.
	ComputeFinished(n tree.NodeID, tk Task)
	// SendStarted fires when n's send port claims a transfer to child;
	// c is the communication time the current physics charges for it.
	SendStarted(n, child tree.NodeID, tk Task, c rat.R)
	// SendFinished fires when the transfer completed, before the task is
	// handed to the Transport.
	SendFinished(n, child tree.NodeID, tk Task)
	// BufferChanged fires whenever n's buffered-task count (compute +
	// send queues, tasks in service excluded) changes.
	BufferChanged(n tree.NodeID, held int)
	// TaskDropped fires when best-effort routing had to drop a task (only
	// possible after a dynamic schedule switch stranded it on a childless
	// switch).
	TaskDropped(n tree.NodeID, tk Task)
}

// NopHooks implements Hooks with no-ops; embed it to implement a subset.
type NopHooks struct{}

func (NopHooks) ComputeStarted(tree.NodeID, Task, rat.R)           {}
func (NopHooks) ComputeFinished(tree.NodeID, Task)                 {}
func (NopHooks) SendStarted(tree.NodeID, tree.NodeID, Task, rat.R) {}
func (NopHooks) SendFinished(tree.NodeID, tree.NodeID, Task)       {}
func (NopHooks) BufferChanged(tree.NodeID, int)                    {}
func (NopHooks) TaskDropped(tree.NodeID, Task)                     {}

// ResultHooks is the optional extension of Hooks for result-return
// platforms (Section 9). A Hooks implementation that also implements it
// receives the upward result flow's transitions; detected by type
// assertion so forward-only backends need not change. Zero-cost result
// hops (d = 0) are forwarded instantly and fire no hooks.
type ResultHooks interface {
	// ResultSendStarted fires when n's send port claims a result transfer
	// to its parent; d is the return time the current physics charges.
	ResultSendStarted(n, parent tree.NodeID, tk Task, d rat.R)
	// ResultSendFinished fires when the result transfer completed, before
	// the result is handed to the parent.
	ResultSendFinished(n, parent tree.NodeID, tk Task)
	// ResultHome fires when a task's result reaches the root.
	ResultHome(tk Task)
}

// outgoing pairs a task with the child (insertion-order index) it is
// destined for.
type outgoing struct {
	tk    Task
	child int
}

// fifo is a queue that keeps its storage: pops advance a head index, the
// backing array is reused from the start once the queue empties, and
// the consumed prefix is compacted away once it reaches half the
// array's length, so a queue that never drains stays bounded too.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }
func (q *fifo[T]) push(v T) { q.buf = append(q.buf, v) }
func (q *fifo[T]) front() T { return q.buf[q.head] }

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf, q.head = q.buf[:0], 0
	case 2*q.head >= len(q.buf):
		q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
	}
	return v
}

// node is the per-node automaton state.
type node struct {
	id        tree.NodeID
	cur       sched.Cursor // the node's place in its bunch order
	bunches   int64        // completed cursor wraps (Ψ-bunches handled)
	computeQ  fifo[Task]
	computing bool
	sendQ     fifo[outgoing]
	sending   bool
	held      int
	heldMax   int

	// Result-return state (unused on forward-only platforms). resultQ
	// holds finished results waiting for the send port's next free
	// moment to head up; recvBusy marks the receive port occupied by an
	// incoming transfer (a task from the parent or a result from a
	// child) — explicit only on result-return platforms, where the port
	// is genuinely contended by two flows.
	resultQ  fifo[Task]
	recvBusy bool
}

// Config assembles a core.
type Config struct {
	// Schedule is the initially installed schedule (backends validate
	// it and report their own errors before constructing the core).
	Schedule *sched.Schedule
	// Clock is the backend's time domain (required).
	Clock Clock
	// Transport delivers completed transfers; nil delivers in-process.
	Transport Transport
	// Hooks receives every state transition; nil installs NopHooks.
	Hooks Hooks
	// Recorder, when non-nil, captures the backend-independent decision
	// streams of the run (see Recorder).
	Recorder *Recorder
	// BestEffort enables stranded-task handling for tasks that arrive at
	// nodes whose bunch is empty (only possible across dynamic
	// schedule switches): compute locally, else forward over the fastest
	// link, else drop. Without it such an arrival panics — in a static
	// run it is a schedule bug.
	BestEffort bool
}

// Core is the shared scheduling engine: the set of node automata of one
// platform plus the release/completion counters of a run.
type Core struct {
	mu    sync.Mutex
	t     *tree.Tree // topology (names, parent/child structure); immutable
	phys  atomic.Pointer[tree.Tree]
	s     *sched.Schedule // the installed schedule; guarded by mu
	nodes []node

	clock     Clock
	transport Transport
	hooks     Hooks
	resHooks  ResultHooks // nil unless hooks implements ResultHooks
	nopHooks  bool        // hooks is NopHooks: skip the dispatch entirely
	rec       *Recorder
	best      bool
	hasRet    bool // gates all result paths; guarded by mu

	released    atomic.Int64
	completed   atomic.Int64
	dropped     atomic.Int64
	resultsHome atomic.Int64
}

// New assembles a core over the schedule's platform. The schedule and
// clock are required; backends are expected to have validated the
// schedule (usable root) with their own error vocabulary first.
func New(cfg Config) *Core {
	if cfg.Schedule == nil || cfg.Schedule.Tree == nil {
		panic("engine: nil schedule")
	}
	if cfg.Clock == nil {
		panic("engine: nil clock")
	}
	t := cfg.Schedule.Tree
	c := &Core{
		t:     t,
		nodes: make([]node, t.Len()),
		clock: cfg.Clock,
		hooks: cfg.Hooks,
		rec:   cfg.Recorder,
		best:  cfg.BestEffort,
	}
	if c.hooks == nil {
		c.hooks = NopHooks{}
	}
	// Short-circuit the per-transition hook dispatch when no observer is
	// attached: a backend (or a bare solver harness) that passes nil or
	// NopHooks pays nothing on the event hot path.
	if _, nop := c.hooks.(NopHooks); nop {
		c.nopHooks = true
	}
	c.resHooks, _ = c.hooks.(ResultHooks)
	c.hasRet = cfg.Schedule.ResultReturn || t.HasResultReturn()
	c.transport = cfg.Transport
	if c.transport == nil {
		c.transport = localTransport{c}
	}
	c.phys.Store(t)
	for i := range c.nodes {
		c.nodes[i].id = tree.NodeID(i)
	}
	c.install(cfg.Schedule, nil)
	if c.rec != nil {
		c.rec.init(t.Len())
	}
	return c
}

// localTransport delivers in-process: the transfer that just completed
// arrives at the child's receive port immediately.
type localTransport struct{ c *Core }

func (lt localTransport) Deliver(child tree.NodeID, tk Task) { lt.c.Arrive(child, tk) }

// Tree returns the platform topology the core was built over.
func (c *Core) Tree() *tree.Tree { return c.t }

// SetPhysics publishes re-measured platform weights. Transfers and
// computations already in service finish under the weights they started
// with; every later task reads the new tree. Callers are responsible for
// shape validation (SameShape).
func (c *Core) SetPhysics(t *tree.Tree) { c.phys.Store(t) }

// Released counts tasks injected at the root so far.
func (c *Core) Released() int64 { return c.released.Load() }

// Completed counts tasks computed so far (across all nodes).
func (c *Core) Completed() int64 { return c.completed.Load() }

// Dropped counts tasks best-effort routing had to abandon.
func (c *Core) Dropped() int64 { return c.dropped.Load() }

// ResultsHome counts task results that reached the root (tasks computed
// at the root count immediately). Zero on forward-only platforms.
func (c *Core) ResultsHome() int64 { return c.resultsHome.Load() }

// MaxWatermark returns the peak buffered-task count over all nodes — the
// largest of the per-node quantities Proposition 3's χ bounds.
func (c *Core) MaxWatermark() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	max := 0
	for i := range c.nodes {
		if c.nodes[i].heldMax > max {
			max = c.nodes[i].heldMax
		}
	}
	return max
}

// Release injects one task at the root, pre-routed to dest by the root's
// own bunch order (the pacer decides dest; the root automaton only
// queues).
func (c *Core) Release(dest sched.Dest, tk Task) {
	c.released.Add(1)
	root := c.t.Root()
	if c.rec != nil {
		c.rec.route(root, dest)
	}
	c.mu.Lock()
	c.assign(&c.nodes[root], dest, tk)
	c.mu.Unlock()
}

// Arrive processes a task arriving on n's receive port: route it to the
// next slot of the node's bunch order (event-driven, no clock — Section
// 6.2).
func (c *Core) Arrive(n tree.NodeID, tk Task) {
	c.mu.Lock()
	ns := &c.nodes[n]
	if ns.cur.Len() == 0 {
		if c.best {
			c.strand(ns, tk)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		panic(fmt.Sprintf("engine: node %s received a task but has an empty bunch", c.t.Name(n)))
	}
	slot := ns.cur.Next()
	if ns.cur.Index() == 0 {
		ns.bunches++
	}
	if c.rec != nil {
		c.rec.route(n, slot.Dest)
	}
	c.assign(ns, slot.Dest, tk)
	c.mu.Unlock()
}

// strand handles a task at a node whose bunch is empty — only
// possible after a dynamic schedule switch left in-flight tasks behind.
// Best effort: compute locally, otherwise forward over the fastest link,
// otherwise the task is dropped. Called with the lock held.
func (c *Core) strand(ns *node, tk Task) {
	if !c.t.IsSwitch(ns.id) {
		if c.rec != nil {
			c.rec.route(ns.id, sched.Self)
		}
		c.assign(ns, sched.Self, tk)
		return
	}
	children := c.t.Children(ns.id)
	if len(children) == 0 {
		c.dropped.Add(1)
		c.hooks.TaskDropped(ns.id, tk)
		return
	}
	phys := c.phys.Load()
	best := 0
	for j := 1; j < len(children); j++ {
		if phys.CommTime(children[j]).Less(phys.CommTime(children[best])) {
			best = j
		}
	}
	if c.rec != nil {
		c.rec.route(ns.id, sched.Dest(best))
	}
	c.assign(ns, sched.Dest(best), tk)
}

// assign hands one task at ns to destination dest (Self or child index),
// updating queues and kicking the relevant port. Called with the lock
// held. The kick-before-sample order guarantees a task that enters
// service immediately is never counted as buffered.
func (c *Core) assign(ns *node, dest sched.Dest, tk Task) {
	if dest == sched.Self {
		ns.computeQ.push(tk)
	} else {
		ns.sendQ.push(outgoing{tk: tk, child: int(dest)})
	}
	c.kickCompute(ns)
	c.kickSend(ns)
	c.sampleBuffer(ns)
}

// kickCompute starts the next local computation if the CPU is free and
// work is queued. Called with the lock held.
func (c *Core) kickCompute(ns *node) {
	if ns.computing || ns.computeQ.len() == 0 {
		return
	}
	w, ok := c.phys.Load().ProcTime(ns.id)
	if !ok {
		panic(fmt.Sprintf("engine: switch %s asked to compute", c.t.Name(ns.id)))
	}
	ns.computing = true
	tk := ns.computeQ.pop()
	c.sampleBuffer(ns)
	if !c.nopHooks {
		c.hooks.ComputeStarted(ns.id, tk, w)
	}
	c.clock.After(w, Event{Kind: computeDone, Node: int32(ns.id), Task: int64(tk.ID)})
}

// Fire completes the timed transition ev, which the core handed its
// Clock: a computation, a task transfer or a result transfer whose
// duration has elapsed. Backends call it when the Clock's wait is over.
func (c *Core) Fire(ev Event) {
	ns, tk, peer := &c.nodes[ev.Node], Task{ID: int(ev.Task)}, tree.NodeID(ev.Arg)
	switch ev.Kind {
	case computeDone:
		// Record before the hook: a backend may end its run from the hook
		// (the runtime closes its batch on the last task), and the record
		// must already hold that compute. The hook still runs before the
		// CPU is freed: a backend's user payload (runtime.Config.Work) is
		// part of the task's service time, so the next local task must not
		// start under it.
		if c.rec != nil {
			c.rec.compute(ns.id)
		}
		if !c.nopHooks {
			c.hooks.ComputeFinished(ns.id, tk)
		}
		c.completed.Add(1)
		c.mu.Lock()
		ns.computing = false
		if c.hasRet {
			c.resultReady(ns.id, tk)
		}
		c.kickCompute(ns)
		c.mu.Unlock()
	case sendDone:
		// Deliver before the port is freed: the next transfer may only
		// start once the child accepted this task (the wall-clock analogue
		// of the sender goroutine handing off before its next sleep).
		if !c.nopHooks {
			c.hooks.SendFinished(ns.id, peer, tk)
		}
		c.transport.Deliver(peer, tk)
		c.mu.Lock()
		ns.sending = false
		c.kickSend(ns)
		c.mu.Unlock()
	case sendDoneRet:
		if !c.nopHooks {
			c.hooks.SendFinished(ns.id, peer, tk)
		}
		c.transport.Deliver(peer, tk)
		c.mu.Lock()
		ns.sending = false
		c.nodes[peer].recvBusy = false
		c.kickSend(ns)
		c.kickRecvWaiters(peer)
		c.mu.Unlock()
	case resultDone:
		if c.resHooks != nil {
			c.resHooks.ResultSendFinished(ns.id, peer, tk)
		}
		c.mu.Lock()
		ns.sending = false
		c.nodes[peer].recvBusy = false
		c.resultReady(peer, tk)
		c.kickSend(ns)
		c.kickRecvWaiters(peer)
		c.mu.Unlock()
	default:
		panic(fmt.Sprintf("engine: event kind %d is not the core's", ev.Kind))
	}
}

// kickSend starts the next transfer if the send port is free and the
// send queue is non-empty (single-port: one outgoing transfer at a
// time, FIFO). Called with the lock held. On result-return platforms it
// dispatches to the generalized port arbiter instead; the forward-only
// path below is untouched so forward runs stay byte-identical.
func (c *Core) kickSend(ns *node) {
	if c.hasRet {
		c.kickSendRet(ns)
		return
	}
	if ns.sending || ns.sendQ.len() == 0 {
		return
	}
	out := ns.sendQ.pop()
	child := c.t.Children(ns.id)[out.child]
	ct := c.phys.Load().CommTime(child)
	ns.sending = true
	if c.rec != nil {
		c.rec.send(ns.id, out.child)
	}
	c.sampleBuffer(ns)
	if !c.nopHooks {
		c.hooks.SendStarted(ns.id, child, out.tk, ct)
	}
	c.clock.After(ct, Event{Kind: sendDone, Node: int32(ns.id), Arg: int64(child), Task: int64(out.tk.ID)})
}

// kickSendRet is the send-port arbiter on result-return platforms: both
// downward tasks and upward results share the node's single send port,
// and the receiving end's single port must be free too (on the forward
// path the receiver is implicitly free — only its parent ever writes to
// it — so this check only exists here). A transfer claims the sender's
// send port and the receiver's receive port atomically under the core
// lock; a sender that cannot claim both holds nothing, so the discipline
// is deadlock-free, and every completion kicks the freed ports' waiters.
// Task transfers have priority; a result may claim the port only when no
// task transfer can start (empty queue, or head-of-line task blocked on
// its receiver), filling port time that would otherwise idle. Called
// with the lock held.
func (c *Core) kickSendRet(ns *node) {
	if ns.sending {
		return
	}
	if ns.sendQ.len() > 0 {
		out := ns.sendQ.front()
		child := c.t.Children(ns.id)[out.child]
		cn := &c.nodes[child]
		if !cn.recvBusy {
			ns.sendQ.pop()
			ct := c.phys.Load().CommTime(child)
			ns.sending = true
			cn.recvBusy = true
			if c.rec != nil {
				c.rec.send(ns.id, out.child)
			}
			c.sampleBuffer(ns)
			if !c.nopHooks {
				c.hooks.SendStarted(ns.id, child, out.tk, ct)
			}
			c.clock.After(ct, Event{Kind: sendDoneRet, Node: int32(ns.id), Arg: int64(child), Task: int64(out.tk.ID)})
			return
		}
		// Head-of-line task is blocked on its receiver: fall through and
		// let a result use the port time in the meantime.
	}
	if ns.resultQ.len() == 0 {
		return
	}
	parent := c.t.Parent(ns.id)
	pn := &c.nodes[parent]
	if pn.recvBusy {
		return
	}
	tk := ns.resultQ.pop()
	d := c.phys.Load().ReturnTime(ns.id)
	ns.sending = true
	pn.recvBusy = true
	if c.rec != nil {
		c.rec.resultUp(ns.id)
	}
	if c.resHooks != nil {
		c.resHooks.ResultSendStarted(ns.id, parent, tk, d)
	}
	c.clock.After(d, Event{Kind: resultDone, Node: int32(ns.id), Arg: int64(parent), Task: int64(tk.ID)})
}

// resultReady propagates tk's result upward from node n: hops whose
// return time is zero forward instantly (Section 9's free-returns
// degenerate case — no port time, no hooks), the first node charging a
// positive d queues the result for its send port, and a result reaching
// the root is home. Called with the lock held, both when a computation
// finishes at n and when a result transfer lands at n.
func (c *Core) resultReady(n tree.NodeID, tk Task) {
	phys := c.phys.Load()
	for n != c.t.Root() {
		if !phys.ReturnTime(n).IsZero() {
			ns := &c.nodes[n]
			ns.resultQ.push(tk)
			c.kickSend(ns)
			return
		}
		if c.rec != nil {
			c.rec.resultUp(n)
		}
		n = c.t.Parent(n)
	}
	c.resultsHome.Add(1)
	if c.resHooks != nil {
		c.resHooks.ResultHome(tk)
	}
}

// kickRecvWaiters re-kicks every sender that may have been blocked on
// x's receive port: x's parent (task transfers down to x) first, then
// x's children in insertion order (result transfers up to x). Called
// with the lock held, after x's receive port freed.
func (c *Core) kickRecvWaiters(x tree.NodeID) {
	if p := c.t.Parent(x); p != tree.None {
		c.kickSend(&c.nodes[p])
	}
	for _, ch := range c.t.Children(x) {
		c.kickSend(&c.nodes[ch])
	}
}

// sampleBuffer publishes the node's buffered-task count when it changed.
// Called with the lock held.
func (c *Core) sampleBuffer(ns *node) {
	held := ns.computeQ.len() + ns.sendQ.len()
	if held == ns.held {
		return
	}
	ns.held = held
	if held > ns.heldMax {
		ns.heldMax = held
	}
	if !c.nopHooks {
		c.hooks.BufferChanged(ns.id, held)
	}
}

// SameShape checks two trees share names and parent structure (weights
// may differ) — the invariant both SetPhysics and a schedule switch
// (InstallDelta) require.
func SameShape(a, b *tree.Tree) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("topology changed: %d vs %d nodes", a.Len(), b.Len())
	}
	for id := 0; id < a.Len(); id++ {
		n := tree.NodeID(id)
		if a.Name(n) != b.Name(n) {
			return fmt.Errorf("node %d renamed %q -> %q", id, a.Name(n), b.Name(n))
		}
		if a.Parent(n) != b.Parent(n) {
			return fmt.Errorf("node %q re-parented", a.Name(n))
		}
		if a.IsSwitch(n) != b.IsSwitch(n) {
			return fmt.Errorf("node %q changed between switch and computing node", a.Name(n))
		}
	}
	return nil
}
