package des

import (
	"testing"

	"bwc/internal/rat"
)

// recording returns an engine whose handler appends each fired event's
// Task to the returned slice.
func recording() (*Engine, *[]int64) {
	var e Engine
	got := new([]int64)
	e.SetHandler(func(ev Event) { *got = append(*got, ev.Task) })
	return &e, got
}

func TestOrderingByTime(t *testing.T) {
	e, got := recording()
	e.Post(rat.Two, Event{Task: 2})
	e.Post(rat.One, Event{Task: 1})
	e.Post(rat.New(3, 2), Event{Task: 15})
	if err := e.Drain(100); err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 15, 2}
	for i := range want {
		if (*got)[i] != want[i] {
			t.Fatalf("order = %v", *got)
		}
	}
	if !e.Now().Equal(rat.Two) {
		t.Fatalf("now = %s", e.Now())
	}
	if e.Processed() != 3 {
		t.Fatalf("processed = %d", e.Processed())
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	e, got := recording()
	for i := int64(0); i < 10; i++ {
		e.Post(rat.One, Event{Task: i})
	}
	if err := e.Drain(100); err != nil {
		t.Fatal(err)
	}
	for i, v := range *got {
		if v != int64(i) {
			t.Fatalf("equal-time events out of order: %v", *got)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var e Engine
	var trail []string
	e.SetHandler(func(ev Event) {
		trail = append(trail, string(rune('a'+ev.Kind)))
		if ev.Kind == 0 {
			e.After(rat.New(1, 2), Event{Kind: 1})
		}
	})
	e.Post(rat.One, Event{Kind: 0})
	e.Post(rat.Two, Event{Kind: 2})
	if err := e.Drain(100); err != nil {
		t.Fatal(err)
	}
	if len(trail) != 3 || trail[0] != "a" || trail[1] != "b" || trail[2] != "c" {
		t.Fatalf("trail = %v", trail)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e, _ := recording()
	e.Post(rat.One, Event{})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Post(rat.New(1, 2), Event{})
}

func TestDrainGuard(t *testing.T) {
	var e Engine
	e.SetHandler(func(ev Event) { e.After(rat.One, ev) })
	e.Post(rat.Zero, Event{})
	if err := e.Drain(50); err == nil {
		t.Fatal("runaway model not caught")
	}
}

func TestStepOnEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
	if !e.Now().IsZero() {
		t.Fatal("clock moved")
	}
}

func TestCancel(t *testing.T) {
	e, fired := recording()
	h1 := e.Post(rat.One, Event{Task: 1})
	e.Post(rat.Two, Event{Task: 2})
	if !e.Cancel(h1) {
		t.Fatal("cancel of pending event failed")
	}
	if e.Cancel(h1) {
		t.Fatal("double cancel succeeded")
	}
	if err := e.Drain(10); err != nil {
		t.Fatal(err)
	}
	if len(*fired) != 1 || (*fired)[0] != 2 {
		t.Fatalf("fired = %v", *fired)
	}
	// Clock must not have been advanced by the cancelled event... it ends
	// at b's time.
	if !e.Now().Equal(rat.Two) {
		t.Fatalf("now = %s", e.Now())
	}
	if e.Processed() != 1 {
		t.Fatalf("processed = %d", e.Processed())
	}
}

func TestCancelAfterFire(t *testing.T) {
	e, _ := recording()
	h := e.Post(rat.One, Event{})
	e.Step()
	if e.Cancel(h) {
		t.Fatal("cancelled an already-fired event")
	}
	if e.Cancel(Handle(0)) || e.Cancel(Handle(999)) {
		t.Fatal("cancelled a bogus handle")
	}
}

func BenchmarkEngine10kEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var e Engine
		e.SetHandler(func(Event) {})
		for j := int64(0); j < 10000; j++ {
			e.Post(rat.New(j%97, 7), Event{Task: j})
		}
		if err := e.Drain(20000); err != nil {
			b.Fatal(err)
		}
	}
}
