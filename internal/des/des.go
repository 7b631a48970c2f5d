// Package des is a small deterministic discrete-event simulation engine
// over exact rational virtual time.
//
// The paper's schedules are exact rational objects (periods are integers,
// rates are rationals); simulating them with float time would blur exactly
// the properties we want to check (e.g. that a node's consumption rate
// catches its reception rate at a precise period boundary). Events at equal
// times fire in scheduling order, which makes every simulation fully
// deterministic.
//
// An event is a pointer-free record: its time as the int64 numerator and
// denominator of its rat.R, its sequence number, and a typed payload
// (Event). The engine's owner installs one Handler that receives every
// event, so a model's transitions allocate nothing and the heap holds
// nothing for the collector to scan. A time off the int64 path lives in a
// side slice the record indexes and compares through rat.Cmp: exact
// promotion, the same way rat itself promotes.
package des

import (
	"fmt"
	"math/bits"
	"slices"

	"bwc/internal/rat"
)

// DefaultMaxEvents is the drain bound a model applies when its options
// leave MaxEvents zero: a guard against runs that never terminate.
const DefaultMaxEvents = 20_000_000

// Kind tells the handler which transition an event is. Models number
// their kinds from 0.
type Kind uint8

// Event is the typed payload of a scheduled event. Its meaning belongs
// to the model that posted it: Kind names the transition, Node the node
// it happens at, and Arg and Task carry its operands (a peer, a slot
// index, a task ID).
type Event struct {
	Kind Kind
	Node int32
	Arg  int64
	Task int64
}

// Handler receives every event the engine fires.
type Handler func(Event)

// Handle identifies a scheduled event for cancellation. The zero Handle is
// never issued.
type Handle uint64

// stamp is a time as a record stores it: num/den in lowest terms when
// den > 0, otherwise (den = -1) the value Engine.big holds at index num.
type stamp struct{ num, den int64 }

// record is one scheduled event. It holds no pointer.
type record struct {
	at  stamp
	seq uint64
	ev  Event
}

// Engine runs events in virtual time. The zero value is ready to use at
// time 0; SetHandler must be called before an event fires.
type Engine struct {
	events    []record // binary min-heap ordered by (time, seq)
	big       []rat.R  // times off the int64 path, indexed by stamp.num
	bigFree   []int64
	handler   Handler
	now       stamp // den == 0 (the zero Engine) is time 0
	nowBig    rat.R // the current time when now.den < 0
	seq       uint64
	firing    uint64 // seq of the event being fired
	count     uint64
	cancelled map[Handle]bool
}

// SetHandler installs the handler that receives every event.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// Now returns the current virtual time.
func (e *Engine) Now() rat.R {
	switch {
	case e.now.den > 0:
		return rat.FromFrac64(e.now.num, e.now.den)
	case e.now.den < 0:
		return e.nowBig
	}
	return rat.Zero
}

// Reserve makes room for n pending events.
func (e *Engine) Reserve(n int) { e.events = slices.Grow(e.events, n) }

// Post schedules the event ev at absolute time t and returns a Handle
// that Cancel accepts. Scheduling in the past panics: it always
// indicates a logic error in the model.
func (e *Engine) Post(t rat.R, ev Event) Handle {
	e.seq++
	e.insert(t, e.seq, ev)
	return Handle(e.seq)
}

// Chain schedules ev at absolute time t under the sequence number of the
// event being fired, so a run of events posted back to back can be kept
// pending one at a time, each firing chaining the next, in the order the
// whole run would fire. A handler chains at most one event per firing;
// a chained event cannot be cancelled, nor may the one it chains from.
func (e *Engine) Chain(t rat.R, ev Event) {
	e.insert(t, e.firing, ev)
}

// insert schedules ev at t under sequence number seq.
func (e *Engine) insert(t rat.R, seq uint64, ev Event) {
	if t.Less(e.Now()) {
		panic(fmt.Sprintf("des: scheduling at %s before now %s", t, e.Now()))
	}
	at := stamp{den: -1}
	if n, d, ok := t.Frac64(); ok {
		at = stamp{n, d}
	} else if k := len(e.bigFree); k > 0 {
		at.num, e.bigFree = e.bigFree[k-1], e.bigFree[:k-1]
		e.big[at.num] = t
	} else {
		at.num = int64(len(e.big))
		e.big = append(e.big, t)
	}
	e.push(record{at: at, seq: seq, ev: ev})
}

// After schedules the event ev d time units from now (d must be
// non-negative).
func (e *Engine) After(d rat.R, ev Event) {
	e.Post(e.Now().Add(d), ev)
}

// Cancel prevents a scheduled event from firing. It reports whether the
// event was still pending (false when it already fired or was cancelled).
// Models with preemption (e.g. the interruptible communication model)
// cancel in-flight completion events.
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

// time returns the value a stamp stands for.
func (e *Engine) time(s stamp) rat.R {
	if s.den > 0 {
		return rat.FromFrac64(s.num, s.den)
	}
	return e.big[s.num]
}

// less is the heap order: time, then scheduling order. seq is unique
// among pending events (Chain reuses a fired one's), so the order is
// strict and total and any correct heap fires the same events in the
// same sequence. Two int64 times compare as the cross
// products x.num·y.den and y.num·x.den, formed in 128 bits so no pair of
// int64 times can overflow the comparison; times are never negative
// (nothing is scheduled before 0), so the products are unsigned.
func (e *Engine) less(a, b *record) bool {
	x, y := a.at, b.at
	switch {
	case x.den < 0 || y.den < 0:
		if c := e.time(x).Cmp(e.time(y)); c != 0 {
			return c < 0
		}
	case x.den == y.den:
		if x.num != y.num {
			return x.num < y.num
		}
	default:
		hiX, loX := bits.Mul64(uint64(x.num), uint64(y.den))
		hiY, loY := bits.Mul64(uint64(y.num), uint64(x.den))
		if hiX != hiY {
			return hiX < hiY
		}
		if loX != loY {
			return loX < loY
		}
	}
	return a.seq < b.seq
}

func (e *Engine) push(r record) {
	e.events = append(e.events, r)
	q := e.events
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(&r, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = r
}

func (e *Engine) pop() record {
	q := e.events
	n := len(q) - 1
	top, last := q[0], q[n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && e.less(&q[r], &q[l]) {
			least = r
		}
		if !e.less(&q[least], &last) {
			break
		}
		q[i] = q[least]
		i = least
	}
	if n > 0 {
		q[i] = last
	}
	e.events = q
	return top
}

// release frees the side-slice slot a popped record's time held.
func (e *Engine) release(r *record) {
	if r.at.den < 0 {
		e.big[r.at.num] = rat.R{}
		e.bigFree = append(e.bigFree, r.at.num)
	}
}

// Step fires the earliest pending event. It reports false when no events
// remain. Cancelled events are discarded without firing (they do not count
// as processed and do not advance the clock).
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		r := e.pop()
		if len(e.cancelled) > 0 && e.cancelled[Handle(r.seq)] {
			delete(e.cancelled, Handle(r.seq))
			e.release(&r)
			continue
		}
		e.now = r.at
		if r.at.den < 0 {
			e.nowBig = e.big[r.at.num]
		}
		e.release(&r)
		e.count++
		e.firing = r.seq
		e.handler(r.ev)
		return true
	}
	return false
}

// Drain fires events until none remain or maxEvents is exceeded, in which
// case it returns an error (a guard against non-terminating models).
func (e *Engine) Drain(maxEvents uint64) error {
	start := e.count
	for e.Step() {
		if e.count-start > maxEvents {
			return fmt.Errorf("des: drain exceeded %d events at t=%s (model not terminating?)", maxEvents, e.Now())
		}
	}
	return nil
}

// peekLive returns the time of the earliest pending event that has not
// been cancelled, discarding cancelled events from the top of the heap as
// it goes. The common no-cancellation case costs one bounds check. The
// stamp it returns stays valid until the next Step.
func (e *Engine) peekLive() (stamp, bool) {
	for len(e.events) > 0 {
		r := &e.events[0]
		if len(e.cancelled) == 0 || !e.cancelled[Handle(r.seq)] {
			return r.at, true
		}
		top := e.pop()
		delete(e.cancelled, Handle(top.seq))
		e.release(&top)
	}
	return stamp{}, false
}

// DrainBatched is Drain with same-instant batching: events that fire at
// one virtual instant are grouped and reported to onBatch as a single
// record. at is the batch's instant, end the next pending instant (equal
// to at for the final batch, whose more is false) and n the number of
// events fired. Observed drain loops use it to build one trace span per
// batch without re-implementing the termination guard; the per-event cost
// over Drain is one peek and one time comparison.
func (e *Engine) DrainBatched(maxEvents uint64, onBatch func(at, end rat.R, n uint64, more bool)) error {
	start := e.count
	for {
		first, ok := e.peekLive()
		if !ok {
			return nil
		}
		at := e.time(first)
		var n uint64
		for e.Step() {
			n++
			if e.count-start > maxEvents {
				return fmt.Errorf("des: drain exceeded %d events at t=%s (model not terminating?)", maxEvents, e.Now())
			}
			next, pending := e.peekLive()
			if !pending || !e.time(next).Equal(at) {
				break
			}
		}
		if n == 0 {
			// The only live events left were cancelled concurrently; the
			// peek above already discarded them.
			continue
		}
		end, more := at, false
		if next, ok := e.peekLive(); ok {
			end, more = e.time(next), true
		}
		onBatch(at, end, n, more)
	}
}
