// Package server is bwschedd: the multi-tenant scheduling control plane.
// It owns a fleet of bwc.Sessions sharded by platform fingerprint behind
// an LRU bound (shard.go), serves solve/simulate/analyze/adaptive/churn
// requests over the api/v1 wire API (server.go), keeps a bounded
// in-memory run history (store.go), and fans live observability events
// out to SSE subscribers (hub.go).
package server

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "bwc/api/v1"
	"bwc/internal/obs"
)

// subscriber is one SSE client: a buffered channel plus its filters.
// Events are dropped per-subscriber when the buffer is full — a slow
// client must never stall the scheduler or the other subscribers.
type subscriber struct {
	ch   chan apiv1.Event
	run  string // only events of this run ("" = all)
	name string // only events whose name has this prefix ("" = all)
}

// hub is the event fan-out: the bridge between the internal obs event
// bus and the wire. Producers publish through Publish or through the
// obs.Sink returned by Sink; every attached subscriber whose filters
// match receives a copy.
type hub struct {
	mu       sync.Mutex
	subs     map[*subscriber]struct{}
	seq      atomic.Uint64
	streamed atomic.Uint64
	closed   bool
}

func newHub() *hub {
	return &hub{subs: make(map[*subscriber]struct{})}
}

// Subscribe registers a new subscriber with the given filters and buffer
// size. The returned cancel is idempotent and closes the channel, so a
// range over it terminates.
func (h *hub) Subscribe(run, name string, buf int) (<-chan apiv1.Event, func()) {
	if buf <= 0 {
		buf = 64
	}
	s := &subscriber{ch: make(chan apiv1.Event, buf), run: run, name: name}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(s.ch)
		return s.ch, func() {}
	}
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			if _, ok := h.subs[s]; ok {
				delete(h.subs, s)
				close(s.ch)
			}
			h.mu.Unlock()
		})
	}
	return s.ch, cancel
}

// Publish sends the event name of run, with attrs as its key/value
// pairs, to every matching subscriber (see publish).
func (h *hub) Publish(run, name string, attrs ...string) {
	h.publish(run, name, func() apiv1.Event {
		ev := apiv1.Event{Wall: time.Now(), Run: run, Name: name, Attrs: make(map[string]string, len(attrs)/2)}
		for i := 0; i+1 < len(attrs); i += 2 {
			ev.Attrs[attrs[i]] = attrs[i+1]
		}
		return ev
	})
}

// publish numbers one event in the stream-wide sequence and fans it out
// to every subscriber whose filters match; delivery is drop-on-full per
// subscriber. build makes the event only once a subscriber takes it, so
// with nobody listening a publish only takes its number.
func (h *hub) publish(run, name string, build func() apiv1.Event) {
	seq := h.seq.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	var ev apiv1.Event
	for s := range h.subs {
		if s.run != "" && s.run != run || !strings.HasPrefix(name, s.name) {
			continue
		}
		if ev.Seq == 0 {
			ev = build()
			ev.Seq = seq
		}
		select {
		case s.ch <- ev:
			h.streamed.Add(1)
		default:
		}
	}
}

// Streamed returns how many events were delivered to subscribers.
func (h *hub) Streamed() uint64 { return h.streamed.Load() }

// Sink adapts the hub to the internal event bus: attach the returned
// sink to a run's Observer and every obs.Emit during the run reaches the
// wire tagged with runID. The conversion flattens attrs into a map (the
// wire shape) and carries the producer's virtual timestamp through.
func (h *hub) Sink(runID string) obs.Sink {
	return obs.SinkFunc(func(e obs.Event) {
		h.publish(runID, e.Name, func() apiv1.Event { return wireEvent(runID, e) })
	})
}

// wireEvent converts one internal bus event to its api/v1 shape.
func wireEvent(runID string, e obs.Event) apiv1.Event {
	var attrs map[string]string
	if len(e.Attrs) > 0 {
		attrs = make(map[string]string, len(e.Attrs))
		for _, a := range e.Attrs {
			attrs[a.Key] = a.Value
		}
	}
	return apiv1.Event{
		Wall:    e.Wall,
		Virtual: e.Virtual,
		Run:     runID,
		Name:    e.Name,
		Attrs:   attrs,
	}
}

// Close detaches every subscriber (closing their channels) and rejects
// future subscriptions; Publish becomes a no-op.
func (h *hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		close(s.ch)
	}
	h.subs = map[*subscriber]struct{}{}
}
