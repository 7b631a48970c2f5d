package server

import (
	"testing"

	apiv1 "bwc/api/v1"
)

// TestHubBuildsOnlyDeliveredEvents: with no subscriber a publish only
// takes a sequence number, so a subscriber attached after N events sees
// seq N+1 next; an event no subscriber's filter takes is never built.
func TestHubBuildsOnlyDeliveredEvents(t *testing.T) {
	h := newHub()
	built := 0
	build := func() apiv1.Event { built++; return apiv1.Event{Name: "x"} }
	const n = 5
	for i := 0; i < n; i++ {
		h.publish("r1", "x", build)
	}
	other, cancelOther := h.Subscribe("r2", "", 4)
	defer cancelOther()
	h.publish("r1", "x", build)
	if built != 0 {
		t.Fatalf("%d events built for no subscriber", built)
	}
	ch, cancel := h.Subscribe("", "run.", 4)
	defer cancel()
	h.Publish("r1", "run.done", "summary", "ok")
	ev := <-ch
	if ev.Seq != n+2 || ev.Run != "r1" || ev.Attrs["summary"] != "ok" || ev.Wall.IsZero() {
		t.Fatalf("got %+v, want seq %d", ev, n+2)
	}
	if len(other) != 0 || h.Streamed() != 1 {
		t.Fatalf("%d events for r2's subscriber, %d streamed", len(other), h.Streamed())
	}
}
