// Package obs is the unified observability layer of the repository: a
// typed event bus, a metrics registry (counters, gauges, fixed-bucket
// histograms, labeled families) and causal span tracing, with exporters
// for the Chrome trace-event format (chrome://tracing / Perfetto), the
// Prometheus text exposition format, and JSONL structured logs.
//
// It is built for two regimes:
//
//   - Disabled (the default): every producer holds a nil *Scope, and every
//     instrumentation call is a method on a nil receiver that returns
//     immediately — the hot loops of the simulator and the protocol pay
//     roughly one nil check per potential event.
//   - Enabled: instruments are registered once up front and the per-event
//     cost is an atomic add (metrics), a mutex-guarded append (spans) or a
//     non-blocking channel send (async sinks, with drop counting).
//
// Time is rational, like everything else in this repository. Spans and
// events carry exact rat.R timestamps on a scope-wide virtual axis whose
// unit is one second: the discrete-event simulator stamps spans with its
// virtual clock directly, while wall-clock producers (the distributed
// protocol, the real execution engine) use the default clock, which
// returns the exact time since the scope was created. The Chrome exporter
// maps this axis to microseconds.
package obs

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"bwc/internal/rat"
)

// SpanID identifies a span within one Scope. Zero means "no span" (the
// root of the causality forest).
type SpanID int64

// Span is one timed operation: a BW-First transaction, a DES event batch,
// a link transfer, a Gantt interval.
type Span struct {
	ID     SpanID
	Parent SpanID
	// Name is the operation ("tx P0→P1", "batch", "compute").
	Name string
	// Track groups spans into one horizontal lane of the trace viewer
	// ("proto", "P3/C", "link P0→P1").
	Track string
	// Start and End are on the scope's virtual time axis (unit: seconds).
	Start rat.R
	End   rat.R
	Attrs []Attr
}

// spanChunk is the allocation unit of the span store: spans are appended
// into fixed-capacity chunks so recording never copies previously stored
// spans (append-grow on one big slice would) and the per-span amortized
// cost is one bump of a length counter.
const spanChunk = 256

// Scope is one observability session: a registry, a span store and a set
// of event sinks shared by every producer of one run (or of one process).
// The nil *Scope is the disabled state: every method is a cheap no-op, so
// call sites need no conditional instrumentation.
type Scope struct {
	start time.Time

	mu      sync.Mutex
	reg     *Registry
	chunks  [][]Span // fixed-capacity spanChunk blocks, only the last grows
	nspans  int
	pending []func(emit func(Span)) // deferred producers, drained on first read
	clock   func() rat.R

	seq   atomic.Uint64
	sinks atomic.Pointer[[]Sink]
	async []*AsyncSink
}

// New returns an enabled Scope with an empty registry and the wall clock.
func New() *Scope {
	return &Scope{start: time.Now(), reg: NewRegistry()}
}

// Enabled reports whether the scope records anything.
func (s *Scope) Enabled() bool { return s != nil }

// Registry returns the scope's metrics registry (nil when disabled; a nil
// Registry hands out nil instruments whose methods are no-ops).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// SetClock installs a virtual clock (e.g. the DES engine's Now). Passing
// nil restores the default wall clock. Producers that own a virtual time
// axis should set it for the duration of their run and restore it after.
func (s *Scope) SetClock(fn func() rat.R) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.clock = fn
	s.mu.Unlock()
}

// Now returns the current time on the scope's virtual axis: the installed
// clock if any, otherwise the exact seconds since the scope was created.
func (s *Scope) Now() rat.R {
	if s == nil {
		return rat.Zero
	}
	s.mu.Lock()
	fn := s.clock
	s.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return rat.New(time.Since(s.start).Nanoseconds(), 1_000_000_000)
}

// nowLocked is Now with s.mu already held. Installed clocks must not call
// back into the scope (the engine clocks used in practice never do).
func (s *Scope) nowLocked() rat.R {
	if s.clock != nil {
		return s.clock()
	}
	return rat.New(time.Since(s.start).Nanoseconds(), 1_000_000_000)
}

// appendLocked stores sp (its ID already assigned), extending the chunk
// list when the current chunk is full.
func (s *Scope) appendLocked(sp Span) {
	if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) == spanChunk {
		s.chunks = append(s.chunks, make([]Span, 0, spanChunk))
	}
	c := &s.chunks[len(s.chunks)-1]
	*c = append(*c, sp)
	s.nspans++
}

// flushLocked materializes every deferred span producer. Called (with
// s.mu held) before any operation that assigns IDs or reads the store, so
// deferred spans are indistinguishable from eagerly recorded ones.
func (s *Scope) flushLocked() {
	if len(s.pending) == 0 {
		return
	}
	pending := s.pending
	s.pending = nil
	emit := func(sp Span) {
		sp.ID = SpanID(s.nspans + 1)
		s.appendLocked(sp)
	}
	for _, fn := range pending {
		fn(emit)
	}
}

// spanLocked returns the stored span with the given ID (nil if unknown).
func (s *Scope) spanLocked(id SpanID) *Span {
	i := int(id) - 1
	if i < 0 || i >= s.nspans {
		return nil
	}
	return &s.chunks[i/spanChunk][i%spanChunk]
}

// StartSpan opens a span at Now. parent 0 makes it a root of the causality
// forest. The returned ID is passed to EndSpan and used as the parent of
// child spans.
func (s *Scope) StartSpan(name, track string, parent SpanID) SpanID {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	at := s.nowLocked()
	id := SpanID(s.nspans + 1)
	s.appendLocked(Span{ID: id, Parent: parent, Name: name, Track: track, Start: at, End: at})
	return id
}

// EndSpan closes the span at Now and appends attrs. Unknown or zero IDs
// are ignored.
func (s *Scope) EndSpan(id SpanID, attrs ...Attr) {
	if s == nil || id == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	sp := s.spanLocked(id)
	if sp == nil {
		return
	}
	sp.End = s.nowLocked()
	sp.Attrs = append(sp.Attrs, attrs...)
}

// AddSpan records a complete span with explicit times (used by producers
// that know exact interval bounds, like the simulator's Gantt intervals).
// It returns the assigned ID so callers can parent further spans under it.
func (s *Scope) AddSpan(sp Span) SpanID {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	sp.ID = SpanID(s.nspans + 1)
	s.appendLocked(sp)
	return sp.ID
}

// AddDeferredSpans registers a producer whose spans are materialized (and
// assigned IDs) lazily, on the first subsequent read or span write. This
// keeps bulk span conversion entirely off the producing hot path: a run
// that is never inspected never pays for it, and one that is pays once at
// read time. fn passes each span, in order, to emit, which assigns its ID
// and stores it directly, so no intermediate slice is built. fn runs with
// the scope lock held and must not call back into the scope, nor keep
// emit after it returns.
func (s *Scope) AddDeferredSpans(fn func(emit func(Span))) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.pending = append(s.pending, fn)
	s.mu.Unlock()
}

// Spans returns a copy of every recorded span in creation order.
func (s *Scope) Spans() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	out := make([]Span, 0, s.nspans)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// SpanCount returns the number of recorded spans without copying them.
func (s *Scope) SpanCount() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return s.nspans
}

// SpansOnTrack returns the recorded spans whose Track equals track.
func (s *Scope) SpansOnTrack(track string) []Span {
	var out []Span
	for _, sp := range s.Spans() {
		if sp.Track == track {
			out = append(out, sp)
		}
	}
	return out
}

// Attach adds a sink. Attach before producing events: the sink list is
// copied on write and read without locks on the emit path.
func (s *Scope) Attach(sink Sink) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.sinks.Load()
	var next []Sink
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, sink)
	s.sinks.Store(&next)
	if a, ok := sink.(*AsyncSink); ok {
		s.async = append(s.async, a)
	}
}

// AttachJSONL streams events as JSON lines to w through a buffered async
// sink (observability never blocks the scheduler; overflow is counted, see
// Dropped). Close the scope to flush.
func (s *Scope) AttachJSONL(w io.Writer) {
	if s == nil {
		return
	}
	s.Attach(NewAsyncSink(NewJSONLSink(w), 4096))
}

// Emit publishes an event stamped with Now to every attached sink. With
// no sinks attached the cost is one atomic load.
func (s *Scope) Emit(name string, attrs ...Attr) {
	if s != nil && s.sinks.Load() != nil {
		s.EmitAt(s.Now(), name, attrs...)
	}
}

// EmitAt is Emit stamped with the instant at: for producers whose steps
// happen at virtual instants of their own, which the scope's clock does
// not follow.
func (s *Scope) EmitAt(at rat.R, name string, attrs ...Attr) {
	if s == nil {
		return
	}
	sinks := s.sinks.Load()
	if sinks == nil || len(*sinks) == 0 {
		return
	}
	e := Event{
		Seq:     s.seq.Add(1),
		Wall:    time.Now(),
		Virtual: at.String(),
		Name:    name,
		Attrs:   attrs,
	}
	for _, sink := range *sinks {
		sink.Emit(e)
	}
}

// Dropped sums the overflow drops of every attached async sink.
func (s *Scope) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, a := range s.async {
		n += a.Dropped()
	}
	return n
}

// Close drains and stops every attached async sink. The scope's metrics
// and spans remain readable after Close.
func (s *Scope) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	async := s.async
	s.async = nil
	s.sinks.Store(nil)
	s.mu.Unlock()
	for _, a := range async {
		a.Close()
	}
}
