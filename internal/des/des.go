// Package des is a small deterministic discrete-event simulation engine
// over exact rational virtual time.
//
// The paper's schedules are exact rational objects (periods are integers,
// rates are rationals); simulating them with float time would blur exactly
// the properties we want to check (e.g. that a node's consumption rate
// catches its reception rate at a precise period boundary). Events at equal
// times fire in scheduling order, which makes every simulation fully
// deterministic.
package des

import (
	"fmt"

	"bwc/internal/rat"
)

type event struct {
	at  rat.R
	seq uint64
	fn  func()
}

// Handle identifies a scheduled event for cancellation. The zero Handle is
// never issued.
type Handle uint64

// eventHeap is a binary min-heap of events ordered by (at, seq). seq is
// unique, so the order is strict and total: any correct heap fires the
// same events in the same sequence. Typed sift-up/sift-down keeps events
// unboxed; pushing and popping allocate nothing beyond slice growth.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if c := h[i].at.Cmp(h[j].at); c != 0 {
		return c < 0
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) peek() event { return h[0] }

func (h *eventHeap) pushEvent(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) popEvent() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = event{} // drop the callback reference for the collector
	q = q[:n]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < n && q.less(l, least) {
			least = l
		}
		if r := l + 1; r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// Engine runs events in virtual time. The zero value is ready to use at
// time 0.
type Engine struct {
	now       rat.R
	events    eventHeap
	seq       uint64
	count     uint64
	cancelled map[Handle]bool
}

// Now returns the current virtual time.
func (e *Engine) Now() rat.R { return e.now }

// Processed returns how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.count }

// Pending returns how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn at absolute time t. Scheduling in the past panics: it
// always indicates a logic error in the model.
func (e *Engine) At(t rat.R, fn func()) {
	e.AtCancellable(t, fn)
}

// AtCancellable schedules fn at absolute time t and returns a Handle that
// Cancel accepts. Models with preemption (e.g. the interruptible
// communication model) cancel in-flight completion events.
func (e *Engine) AtCancellable(t rat.R, fn func()) Handle {
	if t.Less(e.now) {
		panic(fmt.Sprintf("des: scheduling at %s before now %s", t, e.now))
	}
	e.seq++
	e.events.pushEvent(event{at: t, seq: e.seq, fn: fn})
	return Handle(e.seq)
}

// Cancel prevents a scheduled event from firing. It reports whether the
// event was still pending (false when it already fired or was cancelled).
func (e *Engine) Cancel(h Handle) bool {
	if h == 0 || Handle(e.seq) < h {
		return false
	}
	// Verify the event is actually pending: scan is O(pending), fine for
	// the rare preemption path.
	for i := range e.events {
		if Handle(e.events[i].seq) == h {
			if e.cancelled[h] {
				return false
			}
			if e.cancelled == nil {
				e.cancelled = make(map[Handle]bool)
			}
			e.cancelled[h] = true
			return true
		}
	}
	return false
}

// After schedules fn d time units from now (d must be non-negative).
func (e *Engine) After(d rat.R, fn func()) {
	e.At(e.now.Add(d), fn)
}

// Step fires the earliest pending event. It reports false when no events
// remain. Cancelled events are discarded without firing (they do not count
// as processed and do not advance the clock).
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.events.popEvent()
		if e.cancelled[Handle(ev.seq)] {
			delete(e.cancelled, Handle(ev.seq))
			continue
		}
		e.now = ev.at
		e.count++
		ev.fn()
		return true
	}
	return false
}

// RunUntil fires events while the earliest one is at or before limit, then
// advances the clock to limit (if it is ahead). Events scheduled during the
// run are processed too, as long as they fall within the limit.
func (e *Engine) RunUntil(limit rat.R) {
	for len(e.events) > 0 && e.events.peek().at.LessEq(limit) {
		if !e.Step() {
			break
		}
	}
	if e.now.Less(limit) {
		e.now = limit
	}
}

// Drain fires events until none remain or maxEvents is exceeded, in which
// case it returns an error (a guard against non-terminating models).
func (e *Engine) Drain(maxEvents uint64) error {
	start := e.count
	for e.Step() {
		if e.count-start > maxEvents {
			return fmt.Errorf("des: drain exceeded %d events at t=%s (model not terminating?)", maxEvents, e.now)
		}
	}
	return nil
}

// peekLive returns the time of the earliest pending event that has not
// been cancelled, discarding cancelled events from the top of the heap as
// it goes. The common no-cancellation case costs one bounds check.
func (e *Engine) peekLive() (rat.R, bool) {
	for len(e.events) > 0 {
		ev := e.events.peek()
		if len(e.cancelled) == 0 || !e.cancelled[Handle(ev.seq)] {
			return ev.at, true
		}
		e.events.popEvent()
		delete(e.cancelled, Handle(ev.seq))
	}
	return rat.Zero, false
}

// DrainBatched is Drain with same-instant batching: events that fire at
// one virtual instant are grouped and reported to onBatch as a single
// record. at is the batch's instant, end the next pending instant (equal
// to at for the final batch, whose more is false) and n the number of
// events fired. Observed drain loops use it to build one trace span per
// batch without re-implementing the termination guard; the per-event cost
// over Drain is one peek and one canonical-form equality check.
func (e *Engine) DrainBatched(maxEvents uint64, onBatch func(at, end rat.R, n uint64, more bool)) error {
	start := e.count
	for {
		at, ok := e.peekLive()
		if !ok {
			return nil
		}
		var n uint64
		for e.Step() {
			n++
			if e.count-start > maxEvents {
				return fmt.Errorf("des: drain exceeded %d events at t=%s (model not terminating?)", maxEvents, e.now)
			}
			next, pending := e.peekLive()
			if !pending || !next.Equal(at) {
				break
			}
		}
		if n == 0 {
			// The only live events left were cancelled concurrently; the
			// peek above already discarded them.
			continue
		}
		end, more := e.peekLive()
		if !more {
			end = at
		}
		onBatch(at, end, n, more)
	}
}
