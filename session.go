package bwc

// Session: the concurrent, cache-backed front door of the facade. The
// free functions (Solve, BuildSchedule, Simulate, ...) stay stateless —
// every call re-runs the negotiation wave — while a Session memoizes the
// solver layer across calls: platforms are keyed by a canonical
// fingerprint of their text serialization, so repeated Solve /
// BuildSchedule / Simulate / Analyze calls on the same platform reuse
// the cached BW-First result and materialized schedule instead of
// re-deriving them. The execution layers below a Session all run on the
// one shared scheduling engine (internal/engine); the Session adds the
// memo on top.

import (
	"sync"
	"sync/atomic"

	"bwc/internal/adapt"
	"bwc/internal/bwfirst"
	"bwc/internal/sim"
	"bwc/internal/tree"
)

// PlatformFingerprint returns the canonical fingerprint Sessions key
// their memo by: the hex SHA-256 of the platform's text serialization
// (FormatPlatform). Trees with the same names, shape and weights share a
// fingerprint; any weight change — a degraded link, a slowed node —
// yields a different one. The value is memoized on the tree, so only the
// first call per *Tree serializes and hashes it.
func PlatformFingerprint(t *Tree) string { return t.Fingerprint() }

// Session is a goroutine-safe facade handle that memoizes the solver
// layer. Create one per logical platform deployment (or one per process)
// and share it freely: concurrent calls for the same platform coalesce
// onto a single negotiation wave, and every later call is a cache hit
// until the entry is invalidated.
//
//	sess := bwc.NewSession()
//	res := sess.Solve(platform)           // runs BW-First, memoizes
//	res2 := sess.Solve(platform)          // cache hit: same *Result
//	run, err := sess.Simulate(platform, bwc.WithPeriods(4))
//
// Cached entries stay until they are invalidated: simulated faults
// (Session.SimulateAdaptive / Session.SimulateChurn) perturb a run, not
// the submitted platform, so they leave the memo as it is. Invalidate,
// InvalidateDelta and Reset give manual control.
//
// Observability caveat: solver spans and counters are recorded by the
// call that misses; cache hits return the memoized result without
// re-emitting them.
type Session struct {
	defaults []Option

	mu     sync.Mutex
	solves map[string]*solveEntry
	scheds map[schedKey]*schedEntry
	hits   int
	misses int
	perFP  map[string]*FingerprintStats
}

// solveEntry coalesces concurrent solves of one platform: the first
// caller of result runs the wave inside once, later callers block on it
// and share the result. done flips after res is written, so Cached can
// peek at a completed entry without blocking on a solve still in flight.
type solveEntry struct {
	once sync.Once
	// solve is the pending cold solve, cleared once run so the entry does
	// not keep the first caller's options (observers included) alive.
	solve func() *Result
	res   *Result
	done  atomic.Bool
}

// result returns the entry's result, running its solve if no caller has
// yet. Every reader of a pending entry goes through it, so whichever
// caller comes first runs the real solve and none can complete the
// entry empty.
func (e *solveEntry) result() *Result {
	e.once.Do(func() {
		e.res = e.solve()
		e.solve = nil
		e.done.Store(true)
	})
	return e.res
}

// solvedEntry wraps an already-computed result as a completed entry, the
// installation path shared by Prime and InvalidateDelta.
func solvedEntry(res *Result) *solveEntry {
	e := &solveEntry{res: res}
	e.once.Do(func() {})
	e.done.Store(true)
	return e
}

// schedKey keys materialized schedules by platform fingerprint and the
// construction options they were built with.
type schedKey struct {
	fp  string
	opt ScheduleOptions
}

type schedEntry struct {
	once sync.Once
	s    *Schedule
	err  error
}

// FingerprintStats is one platform fingerprint's slice of a Session's
// memo accounting: how often its entries were served from cache, how
// often they had to be computed, and how many of its entries were
// dropped by invalidation.
type FingerprintStats struct {
	// Hits counts calls for this fingerprint served from the memo.
	Hits int
	// Misses counts calls for this fingerprint that ran the solver or
	// schedule construction.
	Misses int
	// Evictions counts memo entries of this fingerprint dropped by
	// Invalidate / InvalidateDelta.
	Evictions int
}

// SessionStats is a snapshot of a Session's memo.
type SessionStats struct {
	// Hits counts calls served from the memo.
	Hits int
	// Misses counts calls that ran the solver (or schedule construction).
	Misses int
	// Solves and Schedules count the live entries per layer.
	Solves    int
	Schedules int
	// ByFingerprint breaks the counters down per platform fingerprint —
	// the per-tenant view the bwschedd control plane exports as cache
	// metrics. The map is a deep copy: it stays coherent under
	// concurrent eviction.
	ByFingerprint map[string]FingerprintStats
}

// NewSession returns an empty Session. The given options are prepended
// to every call's options (e.g. a session-wide WithObserver).
func NewSession(defaults ...Option) *Session {
	return &Session{
		defaults: defaults,
		solves:   make(map[string]*solveEntry),
		scheds:   make(map[schedKey]*schedEntry),
		perFP:    make(map[string]*FingerprintStats),
	}
}

// fpStatsLocked returns fp's mutable counters; the caller holds se.mu.
func (se *Session) fpStatsLocked(fp string) *FingerprintStats {
	st, ok := se.perFP[fp]
	if !ok {
		st = &FingerprintStats{}
		se.perFP[fp] = st
	}
	return st
}

// hitLocked / missLocked record one memo outcome for fp under se.mu.
func (se *Session) hitLocked(fp string)  { se.hits++; se.fpStatsLocked(fp).Hits++ }
func (se *Session) missLocked(fp string) { se.misses++; se.fpStatsLocked(fp).Misses++ }

func (se *Session) options(opts []Option) []Option {
	if len(se.defaults) == 0 {
		return opts
	}
	return append(append([]Option(nil), se.defaults...), opts...)
}

// Solve returns the BW-First result for t, running the negotiation wave
// only on the first call per fingerprint.
func (se *Session) Solve(t *Tree, opts ...Option) *Result {
	res, _ := se.SolveCached(t, opts...)
	return res
}

// SolveCached is Solve plus the cache outcome: cached is true when the
// result was served from the memo (including a coalesced concurrent
// solve another caller started), false for the one call per fingerprint
// that actually ran the negotiation wave. Under concurrency exactly one
// caller per fingerprint observes cached == false — the observable the
// control plane's cache-hit marker is built on.
func (se *Session) SolveCached(t *Tree, opts ...Option) (res *Result, cached bool) {
	fp := PlatformFingerprint(t)
	se.mu.Lock()
	e, ok := se.solves[fp]
	if !ok {
		e = &solveEntry{solve: func() *Result { return Solve(t, se.options(opts)...) }}
		se.solves[fp] = e
		se.missLocked(fp)
	} else {
		se.hitLocked(fp)
	}
	se.mu.Unlock()
	return e.result(), ok
}

// Cached returns t's memoized BW-First result without solving: ok is
// false when the platform is not in the memo or its solve is still in
// flight. It never blocks — the lookup the shard layer uses to capture
// an evicted platform's state.
func (se *Session) Cached(t *Tree) (*Result, bool) {
	fp := PlatformFingerprint(t)
	se.mu.Lock()
	e, ok := se.solves[fp]
	se.mu.Unlock()
	if !ok || !e.done.Load() {
		return nil, false
	}
	return e.res, true
}

// Prime installs a previously computed result as t's memo entry without
// running the solver, overwriting any existing entry. It is the warm
// handoff path: a control plane re-admitting an evicted platform primes
// the fresh Session with the retained result, and InvalidateDelta can
// then carry it incrementally onto a mutated platform.
func (se *Session) Prime(t *Tree, res *Result) {
	if res == nil {
		return
	}
	fp := PlatformFingerprint(t)
	se.mu.Lock()
	se.solves[fp] = solvedEntry(res)
	se.mu.Unlock()
}

// BuildSchedule returns the event-driven schedule for t, memoizing both
// the solve and the constructed schedule (keyed by fingerprint and
// WithScheduleOptions).
func (se *Session) BuildSchedule(t *Tree, opts ...Option) (*Schedule, error) {
	all := se.options(opts)
	key := schedKey{fp: PlatformFingerprint(t), opt: buildCfg(all).schedOptions}
	se.mu.Lock()
	e, ok := se.scheds[key]
	if !ok {
		e = &schedEntry{}
		se.scheds[key] = e
		se.missLocked(key.fp)
	} else {
		se.hitLocked(key.fp)
	}
	se.mu.Unlock()
	e.once.Do(func() { e.s, e.err = BuildSchedule(se.Solve(t, opts...), all...) })
	return e.s, e.err
}

// Simulate runs t's memoized schedule on the virtual-time backend of the
// shared engine. Horizon options (WithStop / WithPeriods / WithTasks)
// configure the run as in Simulate.
func (se *Session) Simulate(t *Tree, opts ...Option) (*Run, error) {
	s, err := se.BuildSchedule(t, opts...)
	if err != nil {
		return nil, err
	}
	return sim.Simulate(s, buildCfg(se.options(opts)).buildSimOptions())
}

// Analyze simulates t's memoized schedule under an Observer and checks
// the run against the paper's theory, reusing cached solver state across
// repeated calls.
func (se *Session) Analyze(t *Tree, opts ...Option) (*HealthReport, error) {
	all := se.options(opts)
	if buildCfg(all).obs == nil {
		all = append(all, WithObserver(NewObserver()))
	}
	run, err := se.Simulate(t, all...)
	if err != nil {
		return nil, err
	}
	return AnalyzeRun(run, all...), nil
}

// SimulateAdaptive runs the closed adaptation loop on t's memoized
// schedule. The memo is left as it is: the faults are simulated, and the
// platform t stands for has not changed.
func (se *Session) SimulateAdaptive(t *Tree, opts ...Option) (*AdaptReport, error) {
	s, err := se.BuildSchedule(t, opts...)
	if err != nil {
		return nil, err
	}
	return adapt.SimulateAdaptive(s, buildCfg(se.options(opts)).buildAdaptOptions())
}

// SimulateChurn runs the churn-hardened closed loop (SimulateChurn) on
// t's memoized schedule, leaving the memo as it is, like
// SimulateAdaptive.
func (se *Session) SimulateChurn(t *Tree, opts ...Option) (*ChurnReport, error) {
	s, err := se.BuildSchedule(t, opts...)
	if err != nil {
		return nil, err
	}
	return adapt.SimulateChurn(s, buildCfg(se.options(opts)).buildChurnOptions())
}

// Invalidate drops every memo entry for t's fingerprint (all schedule
// options). Use it when the platform was re-measured. Concurrent calls —
// including a double-invalidation of the same platform — are safe: each
// runs as one atomic critical section.
func (se *Session) Invalidate(t *Tree) {
	fp := PlatformFingerprint(t)
	se.mu.Lock()
	defer se.mu.Unlock()
	se.invalidateLocked(fp)
}

// invalidateLocked drops fp's entries, counting each dropped entry as
// one eviction for the fingerprint; the caller holds se.mu.
func (se *Session) invalidateLocked(fp string) {
	evicted := 0
	if _, ok := se.solves[fp]; ok {
		delete(se.solves, fp)
		evicted++
	}
	for k := range se.scheds {
		if k.fp == fp {
			delete(se.scheds, k)
			evicted++
		}
	}
	if evicted > 0 {
		se.fpStatsLocked(fp).Evictions += evicted
	}
}

// InvalidateDelta is the delta-aware Invalidate: it drops the stale
// platform's entries like Invalidate, but instead of leaving the memo
// cold it re-primes the mutated platform's solve entry with an
// incremental re-solve along the affected spine, reusing the stale
// result's unaffected subtree solutions. It returns the re-solved
// result, or nil when nothing could be carried over (the old platform
// was not cached, or the trees do not share a shape) — in that case it
// degrades to a plain Invalidate and the next Solve runs cold.
func (se *Session) InvalidateDelta(old, mutated *Tree) *Result {
	oldFP := PlatformFingerprint(old)
	newFP := PlatformFingerprint(mutated)
	dirty, derr := tree.DiffWeights(old, mutated)
	se.mu.Lock()
	e, ok := se.solves[oldFP]
	se.invalidateLocked(oldFP)
	se.mu.Unlock()
	var prev *Result
	if ok {
		// The entry may still be mid-solve in another goroutine, or its
		// solve not yet started; result waits for or runs it.
		prev = e.result()
	}
	if derr != nil || prev == nil {
		return nil
	}
	res, err := bwfirst.SolveIncremental(prev, mutated, dirty, nil)
	if err != nil {
		return nil
	}
	se.mu.Lock()
	se.solves[newFP] = solvedEntry(res)
	se.mu.Unlock()
	return res
}

// Reset drops every memo entry and zeroes the hit/miss counters.
func (se *Session) Reset() {
	se.mu.Lock()
	defer se.mu.Unlock()
	se.solves = make(map[string]*solveEntry)
	se.scheds = make(map[schedKey]*schedEntry)
	se.perFP = make(map[string]*FingerprintStats)
	se.hits, se.misses = 0, 0
}

// Stats returns a snapshot of the memo, including the per-fingerprint
// breakdown. The snapshot is a deep copy taken under the Session lock,
// so it is safe to read while other goroutines solve, invalidate or
// evict concurrently.
func (se *Session) Stats() SessionStats {
	se.mu.Lock()
	defer se.mu.Unlock()
	by := make(map[string]FingerprintStats, len(se.perFP))
	for fp, st := range se.perFP {
		by[fp] = *st
	}
	return SessionStats{
		Hits:          se.hits,
		Misses:        se.misses,
		Solves:        len(se.solves),
		Schedules:     len(se.scheds),
		ByFingerprint: by,
	}
}

// StatsFor returns one fingerprint's counters (zero values when the
// Session has never seen the fingerprint).
func (se *Session) StatsFor(fp string) FingerprintStats {
	se.mu.Lock()
	defer se.mu.Unlock()
	if st, ok := se.perFP[fp]; ok {
		return *st
	}
	return FingerprintStats{}
}
