package des

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"bwc/internal/rat"
)

// refEvent is an event as the engine stored it before its records went
// pointer-free: the time as a rat.R, and the typed payload.
type refEvent struct {
	at  rat.R
	seq uint64
	ev  Event
}

// refHeap is the container/heap adapter the engine used before its typed
// heap, kept as the reference the typed heap is checked against: it
// orders by rat.Cmp on the times, then by seq.
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	c := h[i].at.Cmp(h[j].at)
	if c != 0 {
		return c < 0
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// refEngine is Engine's scheduling logic over refHeap.
type refEngine struct {
	now       rat.R
	events    refHeap
	seq       uint64
	count     uint64
	cancelled map[Handle]bool
	handler   Handler
}

func (e *refEngine) Now() rat.R           { return e.now }
func (e *refEngine) Processed() uint64    { return e.count }
func (e *refEngine) Pending() int         { return len(e.events) }
func (e *refEngine) SetHandler(h Handler) { e.handler = h }

func (e *refEngine) Post(t rat.R, ev Event) Handle {
	if t.Less(e.now) {
		panic("scheduling in the past")
	}
	e.seq++
	heap.Push(&e.events, refEvent{at: t, seq: e.seq, ev: ev})
	return Handle(e.seq)
}

func (e *refEngine) Cancel(h Handle) bool {
	if h == 0 || Handle(e.seq) < h {
		return false
	}
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

func (e *refEngine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(refEvent)
		if e.cancelled[Handle(ev.seq)] {
			delete(e.cancelled, Handle(ev.seq))
			continue
		}
		e.now = ev.at
		e.count++
		e.handler(ev.ev)
		return true
	}
	return false
}

func (e *refEngine) Drain(maxEvents uint64) error {
	start := e.count
	for e.Step() {
		if e.count-start > maxEvents {
			return fmt.Errorf("drain exceeded %d events", maxEvents)
		}
	}
	return nil
}

func (e *refEngine) peekLive() (rat.R, bool) {
	for len(e.events) > 0 {
		ev := e.events[0]
		if len(e.cancelled) == 0 || !e.cancelled[Handle(ev.seq)] {
			return ev.at, true
		}
		heap.Pop(&e.events)
		delete(e.cancelled, Handle(ev.seq))
	}
	return rat.Zero, false
}

func (e *refEngine) DrainBatched(maxEvents uint64, onBatch func(at, end rat.R, n uint64, more bool)) error {
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
				return fmt.Errorf("drain exceeded %d events", maxEvents)
			}
			next, pending := e.peekLive()
			if !pending || !next.Equal(at) {
				break
			}
		}
		if n == 0 {
			continue
		}
		end, more := e.peekLive()
		if !more {
			end = at
		}
		onBatch(at, end, n, more)
	}
}

// engineAPI is the surface the differential drives on both engines.
type engineAPI interface {
	Now() rat.R
	Processed() uint64
	Pending() int
	SetHandler(h Handler)
	Post(t rat.R, ev Event) Handle
	Cancel(h Handle) bool
	Step() bool
	Drain(maxEvents uint64) error
	DrainBatched(maxEvents uint64, onBatch func(at, end rat.R, n uint64, more bool)) error
}

// offsets are the delays the differential schedules with. Few distinct
// small offsets make many events share an instant. The large-prime
// denominators make sums whose numerators and denominators approach
// 2^62, so the cross products the heap compares pass 2^64; the 2^-70
// steps take times off the int64 path, and the clock leaves it whenever
// such an event fires.
var offsets = []rat.R{
	rat.Zero, rat.New(1, 2), rat.One, rat.New(3, 2),
	rat.New(2147483629, 2147483647), rat.New(4294967291, 2147483659),
	rat.New(1<<40+15, 1<<31-1), rat.New(3, 4294967311),
	rat.MustParse("1/1180591620717411303424"), rat.MustParse("3/1180591620717411303424"),
}

// heapScript replays one random operation sequence on eng and returns
// its transcript: every fired event with its instant, every batch and
// drain, every Cancel and Step result, and the clock after each
// operation. Follow-up events depend only on the firing event's payload,
// so the same script drives both engines identically.
func heapScript(seed int64, eng engineAPI) []string {
	r := rand.New(rand.NewSource(seed))
	var log []string
	var handles []Handle
	label := 0
	offset := func() rat.R {
		if r.Intn(3) == 0 {
			return offsets[r.Intn(len(offsets))]
		}
		return offsets[r.Intn(4)]
	}
	post := func(at rat.R) {
		ev := Event{Kind: Kind(label % 7), Node: int32(label), Arg: int64(label) << 33, Task: -int64(label)}
		handles = append(handles, eng.Post(at, ev))
		label++
	}
	batch := func(at, end rat.R, n uint64, more bool) {
		log = append(log, fmt.Sprintf("batch %s..%s n=%d more=%v", at, end, n, more))
	}
	eng.SetHandler(func(ev Event) {
		log = append(log, fmt.Sprintf("fire %d/%d/%d/%d at %s", ev.Kind, ev.Node, ev.Arg, ev.Task, eng.Now()))
		if ev.Node%3 == 0 { // nested: same instant or a little later
			post(eng.Now().Add(offsets[int(ev.Node)%len(offsets)]))
		}
	})
	for op := 0; op < 300; op++ {
		switch k := r.Intn(10); {
		case k < 6:
			post(eng.Now().Add(offset()))
		case k == 6 && len(handles) > 0:
			h := handles[r.Intn(len(handles))]
			log = append(log, fmt.Sprintf("cancel %d %v", h, eng.Cancel(h)))
		case k == 7:
			log = append(log, fmt.Sprintf("step %v", eng.Step()))
		case k == 8 && r.Intn(4) == 0:
			log = append(log, fmt.Sprintf("drain %v", eng.DrainBatched(1000, batch)))
		case k == 9 && r.Intn(4) == 0:
			log = append(log, fmt.Sprintf("drain %v", eng.Drain(1000)))
		}
		log = append(log, fmt.Sprintf("now %s processed %d pending %d", eng.Now(), eng.Processed(), eng.Pending()))
	}
	err := eng.DrainBatched(10000, batch)
	return append(log, fmt.Sprintf("final drain %v now %s processed %d", err, eng.Now(), eng.Processed()))
}

// TestTypedHeapMatchesReference drives random Post/Cancel/Step/Drain/
// DrainBatched sequences, with many equal instants, nested scheduling,
// times off the int64 path and times whose cross products pass 2^64,
// through the engine and through the container/heap reference: both
// must fire every event in the same (time, seq) order and report the
// same batches.
func TestTypedHeapMatchesReference(t *testing.T) {
	sawBig := 0
	for seed := int64(1); seed <= 200; seed++ {
		eng := &Engine{}
		got := heapScript(seed, eng)
		want := heapScript(seed, &refEngine{})
		if len(got) != len(want) {
			t.Fatalf("seed %d: transcript length %d, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d, line %d: %q, reference %q", seed, i, got[i], want[i])
			}
		}
		if len(eng.big) > 0 {
			sawBig++
		}
	}
	if sawBig == 0 {
		t.Fatal("no script scheduled a time off the int64 path")
	}
}

// TestWideCrossProducts pins the 128-bit comparison: records at int64
// times whose cross products pass 2^64 order exactly as rat.Cmp orders
// their times, with seq breaking ties.
func TestWideCrossProducts(t *testing.T) {
	const p = 1<<61 - 1 // prime
	vs := []rat.R{
		rat.New(p-1, p), rat.New(p-2, p-1), rat.New(1<<62, p), rat.New(1<<62+1, p),
		rat.New(p, 1<<40+1), rat.New(p-1, 1<<40), rat.New(1<<62-1, 3), rat.New(1<<62-3, 3),
		rat.One, rat.Two, rat.New(1<<62, 1<<61-3),
	}
	var e Engine
	for _, a := range vs {
		for _, b := range vs {
			an, ad, _ := a.Frac64()
			bn, bd, _ := b.Frac64()
			ra, rb := record{at: stamp{an, ad}, seq: 1}, record{at: stamp{bn, bd}, seq: 2}
			if got, want := e.less(&ra, &rb), a.Cmp(b) <= 0; got != want {
				t.Errorf("%s (seq 1) before %s (seq 2) = %v, rat.Cmp says %v", a, b, got, want)
			}
			if got, want := e.less(&rb, &ra), b.Cmp(a) < 0; got != want {
				t.Errorf("%s (seq 2) before %s (seq 1) = %v, rat.Cmp says %v", b, a, got, want)
			}
		}
	}
}

// TestScheduleFireAllocs: in steady state, scheduling and firing an
// event allocates nothing: boxing a record on push or pop would show
// here.
func TestScheduleFireAllocs(t *testing.T) {
	var e Engine
	e.SetHandler(func(Event) {})
	for i := 0; i < 64; i++ {
		e.Post(e.Now(), Event{Node: int32(i)})
	}
	if err := e.Drain(200); err != nil {
		t.Fatal(err)
	}
	step := rat.New(1, 3)
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(step, Event{Kind: 1, Task: 7})
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per scheduled and fired typed event, want 0", allocs)
	}
}
