package des

import (
	"testing"

	"bwc/internal/rat"
)

func TestOrderingByTime(t *testing.T) {
	var e Engine
	var got []int
	e.At(rat.Two, func() { got = append(got, 2) })
	e.At(rat.One, func() { got = append(got, 1) })
	e.At(rat.New(3, 2), func() { got = append(got, 15) })
	if err := e.Drain(100); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 15, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
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
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		e.At(rat.One, func() { got = append(got, i) })
	}
	if err := e.Drain(100); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events out of order: %v", got)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var e Engine
	var trail []string
	e.At(rat.One, func() {
		trail = append(trail, "a")
		e.At(e.Now().Add(rat.New(1, 2)), func() { trail = append(trail, "b") })
	})
	e.At(rat.Two, func() { trail = append(trail, "c") })
	if err := e.Drain(100); err != nil {
		t.Fatal(err)
	}
	if len(trail) != 3 || trail[0] != "a" || trail[1] != "b" || trail[2] != "c" {
		t.Fatalf("trail = %v", trail)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(rat.One, func() {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(rat.New(1, 2), func() {})
}

func TestRunUntil(t *testing.T) {
	var e Engine
	fired := 0
	e.At(rat.One, func() { fired++ })
	e.At(rat.Two, func() { fired++ })
	e.At(rat.FromInt(5), func() { fired++ })
	e.RunUntil(rat.FromInt(3))
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
	if !e.Now().Equal(rat.FromInt(3)) {
		t.Fatalf("now = %s (clock should advance to the limit)", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
}

func TestDrainGuard(t *testing.T) {
	var e Engine
	var reschedule func()
	reschedule = func() { e.At(e.Now().Add(rat.One), reschedule) }
	e.At(rat.Zero, reschedule)
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
	var e Engine
	fired := []string{}
	h1 := e.AtCancellable(rat.One, func() { fired = append(fired, "a") })
	e.AtCancellable(rat.Two, func() { fired = append(fired, "b") })
	if !e.Cancel(h1) {
		t.Fatal("cancel of pending event failed")
	}
	if e.Cancel(h1) {
		t.Fatal("double cancel succeeded")
	}
	if err := e.Drain(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "b" {
		t.Fatalf("fired = %v", fired)
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
	var e Engine
	h := e.AtCancellable(rat.One, func() {})
	e.Step()
	if e.Cancel(h) {
		t.Fatal("cancelled an already-fired event")
	}
	if e.Cancel(Handle(0)) || e.Cancel(Handle(999)) {
		t.Fatal("cancelled a bogus handle")
	}
}

func TestCancelledEventsSkippedByRunUntil(t *testing.T) {
	var e Engine
	n := 0
	h := e.AtCancellable(rat.One, func() { n++ })
	e.AtCancellable(rat.One, func() { n++ })
	e.Cancel(h)
	e.RunUntil(rat.Two)
	if n != 1 {
		t.Fatalf("n = %d", n)
	}
}

func BenchmarkEngine10kEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := int64(0); j < 10000; j++ {
			e.At(rat.New(j%97, 7), func() {})
		}
		if err := e.Drain(20000); err != nil {
			b.Fatal(err)
		}
	}
}
