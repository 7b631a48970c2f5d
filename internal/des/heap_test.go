package des

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"bwc/internal/rat"
)

// refHeap is the container/heap adapter the engine used before its typed
// heap, kept as the reference the typed heap is checked against.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	c := h[i].at.Cmp(h[j].at)
	if c != 0 {
		return c < 0
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// refEngine is Engine's scheduling logic over refHeap.
type refEngine struct {
	now       rat.R
	events    refHeap
	seq       uint64
	count     uint64
	cancelled map[Handle]bool
}

func (e *refEngine) Now() rat.R        { return e.now }
func (e *refEngine) Processed() uint64 { return e.count }
func (e *refEngine) Pending() int      { return len(e.events) }

func (e *refEngine) AtCancellable(t rat.R, fn func()) Handle {
	if t.Less(e.now) {
		panic("scheduling in the past")
	}
	e.seq++
	heap.Push(&e.events, event{at: t, seq: e.seq, fn: fn})
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
		ev := heap.Pop(&e.events).(event)
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

func (e *refEngine) RunUntil(limit rat.R) {
	for len(e.events) > 0 && e.events[0].at.LessEq(limit) {
		if !e.Step() {
			break
		}
	}
	if e.now.Less(limit) {
		e.now = limit
	}
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
	AtCancellable(t rat.R, fn func()) Handle
	Cancel(h Handle) bool
	Step() bool
	RunUntil(limit rat.R)
	DrainBatched(maxEvents uint64, onBatch func(at, end rat.R, n uint64, more bool)) error
}

// heapScript replays one random operation sequence on eng and returns
// its transcript: every fired callback with its instant, every batch,
// every Cancel and Step result, and the clock after each operation.
// Callbacks schedule follow-up events as a function of their own label
// only, so the same script drives both engines identically.
func heapScript(seed int64, eng engineAPI) []string {
	r := rand.New(rand.NewSource(seed))
	var log []string
	var handles []Handle
	label := 0
	var schedule func(at rat.R)
	schedule = func(at rat.R) {
		id := label
		label++
		handles = append(handles, eng.AtCancellable(at, func() {
			log = append(log, fmt.Sprintf("fire %d at %s", id, eng.Now()))
			if id%4 == 0 { // nested: same instant or a little later
				schedule(eng.Now().Add(rat.New(int64(id%3), 2)))
			}
		}))
	}
	for op := 0; op < 300; op++ {
		switch k := r.Intn(10); {
		case k < 5:
			// Few distinct offsets, so many events share an instant.
			schedule(eng.Now().Add(rat.New(int64(r.Intn(4)), int64(1+r.Intn(2)))))
		case k == 5 && len(handles) > 0:
			h := handles[r.Intn(len(handles))]
			log = append(log, fmt.Sprintf("cancel %d %v", h, eng.Cancel(h)))
		case k == 6:
			log = append(log, fmt.Sprintf("step %v", eng.Step()))
		case k == 7:
			eng.RunUntil(eng.Now().Add(rat.New(int64(r.Intn(3)), 2)))
		case k == 8 && r.Intn(4) == 0:
			err := eng.DrainBatched(1000, func(at, end rat.R, n uint64, more bool) {
				log = append(log, fmt.Sprintf("batch %s..%s n=%d more=%v", at, end, n, more))
			})
			log = append(log, fmt.Sprintf("drain %v", err))
		}
		log = append(log, fmt.Sprintf("now %s processed %d pending %d", eng.Now(), eng.Processed(), eng.Pending()))
	}
	err := eng.DrainBatched(10000, func(at, end rat.R, n uint64, more bool) {
		log = append(log, fmt.Sprintf("batch %s..%s n=%d more=%v", at, end, n, more))
	})
	return append(log, fmt.Sprintf("final drain %v now %s processed %d", err, eng.Now(), eng.Processed()))
}

// TestTypedHeapMatchesReference drives random At/Step/Cancel/RunUntil/
// DrainBatched sequences, with many equal instants and nested
// scheduling, through the engine and through the container/heap
// reference: both must fire every callback in the same (at, seq) order
// and report the same batches.
func TestTypedHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got := heapScript(seed, &Engine{})
		want := heapScript(seed, &refEngine{})
		if len(got) != len(want) {
			t.Fatalf("seed %d: transcript length %d, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d, line %d: %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}

// TestScheduleFireAllocs: in steady state, scheduling and firing a
// callback that captures nothing allocates nothing; boxing an event on
// push or pop would show here.
func TestScheduleFireAllocs(t *testing.T) {
	var e Engine
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.At(e.Now(), fn)
	}
	if err := e.Drain(100); err != nil {
		t.Fatal(err)
	}
	step := rat.New(1, 3)
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now().Add(step), fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per scheduled and fired event, want 0", allocs)
	}
}
