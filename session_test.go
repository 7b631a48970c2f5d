package bwc_test

import (
	"sync"
	"testing"

	"bwc"
	"bwc/internal/benchfix"
	"bwc/internal/sched"
)

func sessionTree() *bwc.Tree { return bwc.GeneratePlatform(bwc.Uniform, 24, 11) }

// TestSessionSolveCaches: the second Solve of the same platform is a
// memo hit returning the identical result.
func TestSessionSolveCaches(t *testing.T) {
	sess := bwc.NewSession()
	tr := sessionTree()
	r1 := sess.Solve(tr)
	r2 := sess.Solve(tr)
	if r1 != r2 {
		t.Fatal("cache hit returned a different *Result")
	}
	// A structurally identical rebuild shares the fingerprint, a changed
	// weight does not.
	clone, err := bwc.ParsePlatformString(bwc.FormatPlatform(tr))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Solve(clone) != r1 {
		t.Fatal("identical platform missed the cache")
	}
	st := sess.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Solves != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 2 hits, 1 entry", st)
	}
}

// TestSessionScheduleOptionsKeyed: schedules memoize per construction
// options, so Block and interleaved patterns coexist.
func TestSessionScheduleOptionsKeyed(t *testing.T) {
	sess := bwc.NewSession()
	tr := sessionTree()
	s1, err := sess.BuildSchedule(tr)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sess.BuildSchedule(tr, bwc.WithScheduleOptions(bwc.ScheduleOptions{Block: true}))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("different schedule options shared one memo entry")
	}
	s3, err := sess.BuildSchedule(tr)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s3 {
		t.Fatal("schedule cache hit returned a different *Schedule")
	}
	if st := sess.Stats(); st.Schedules != 2 || st.Solves != 1 {
		t.Fatalf("stats = %+v, want 2 schedule entries over 1 solve", st)
	}
}

// TestSessionConcurrent hammers one Session from many goroutines (run
// under -race in tier 1): concurrent calls for the same platform must
// coalesce onto a single solve and all observe the same result.
func TestSessionConcurrent(t *testing.T) {
	sess := bwc.NewSession()
	tr := sessionTree()
	want := sess.Solve(tr)

	const goroutines = 16
	results := make([]*bwc.Result, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sess.Solve(tr)
			if _, err := sess.BuildSchedule(tr); err != nil {
				t.Error(err)
				return
			}
			if i%4 == 0 {
				if _, err := sess.Simulate(tr, bwc.WithPeriods(2), bwc.WithSkipIntervals()); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r != want {
			t.Fatalf("goroutine %d saw a different result", i)
		}
	}
	if st := sess.Stats(); st.Misses != 2 { // one solve + one schedule
		t.Fatalf("stats = %+v, want exactly 2 misses", st)
	}
}

// TestSessionInvalidate: dropping a platform forces the next call back
// through the solver.
func TestSessionInvalidate(t *testing.T) {
	sess := bwc.NewSession()
	tr := sessionTree()
	r1 := sess.Solve(tr)
	sess.Invalidate(tr)
	if st := sess.Stats(); st.Solves != 0 {
		t.Fatalf("stats = %+v after Invalidate, want no entries", st)
	}
	if sess.Solve(tr) == r1 {
		t.Fatal("invalidated entry still served")
	}
}

// TestSessionInvalidateRace pins satellite safety under -race: many
// goroutines solving, invalidating (double-invalidating the same
// platform), and delta-invalidating one Session concurrently must
// neither race nor corrupt the memo — afterwards a fresh Solve still
// returns a correct, cacheable result.
func TestSessionInvalidateRace(t *testing.T) {
	sess := bwc.NewSession()
	tr := sessionTree()
	mutated, err := tr.WithCommTime(tr.MustLookup("N3"), bwc.RatInt(7))
	if err != nil {
		t.Fatal(err)
	}
	want := bwc.Solve(tr).Throughput

	const goroutines = 24
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				switch (i + j) % 4 {
				case 0:
					if r := sess.Solve(tr); !r.Throughput.Equal(want) {
						t.Error("corrupted memo entry")
						return
					}
				case 1:
					sess.Invalidate(tr)
				case 2:
					sess.Invalidate(tr) // double-invalidation of the same platform
					sess.Invalidate(mutated)
				case 3:
					sess.InvalidateDelta(tr, mutated)
				}
			}
		}(i)
	}
	wg.Wait()
	if r := sess.Solve(tr); !r.Throughput.Equal(want) {
		t.Fatal("memo inconsistent after concurrent invalidation")
	}
}

// TestSessionInvalidateDelta: the delta-aware Invalidate drops the old
// platform and primes the mutated one with an incremental re-solve that
// matches a cold full solve exactly.
func TestSessionInvalidateDelta(t *testing.T) {
	sess := bwc.NewSession()
	tr := sessionTree()
	sess.Solve(tr)
	mutated, err := tr.WithCommTime(tr.MustLookup("N3"), bwc.RatInt(7))
	if err != nil {
		t.Fatal(err)
	}
	res := sess.InvalidateDelta(tr, mutated)
	if res == nil {
		t.Fatal("InvalidateDelta returned nil despite a cached old platform")
	}
	if !res.Throughput.Equal(bwc.Solve(mutated).Throughput) {
		t.Fatalf("incremental re-prime throughput %s != full solve", res.Throughput)
	}
	// The mutated platform is already primed...
	pre := sess.Stats()
	if sess.Solve(mutated) != res {
		t.Fatal("mutated platform not primed with the incremental result")
	}
	if st := sess.Stats(); st.Hits != pre.Hits+1 {
		t.Fatalf("solve of the mutated platform missed (stats %+v -> %+v)", pre, st)
	}
	// ...and the old one was invalidated.
	preMisses := sess.Stats().Misses
	sess.Solve(tr)
	if st := sess.Stats(); st.Misses != preMisses+1 {
		t.Fatalf("stale platform still cached (stats %+v)", st)
	}
	// With no cached old platform, it degrades to a plain Invalidate.
	sess.Reset()
	if sess.InvalidateDelta(tr, mutated) != nil {
		t.Fatal("InvalidateDelta fabricated a result from a cold memo")
	}
}

// TestSessionAdaptiveReprimes: an adaptive or churn run that
// re-negotiated does not re-prime the memo. Its faults are simulated and
// the submitted platform is unchanged, so nothing is evicted and a
// follow-up solve of that platform is a hit on the original entry.
func TestSessionAdaptiveReprimes(t *testing.T) {
	sess := bwc.NewSession()
	tr := bwc.PaperExampleTree()
	fp := bwc.PlatformFingerprint(tr)
	res := sess.Solve(tr)
	rep, err := sess.SimulateAdaptive(tr,
		bwc.WithFaults(bwc.DegradeLink(bwc.RatInt(120), "P1", bwc.RatInt(4))),
		bwc.WithStop(bwc.RatInt(400)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adaptations) != 1 {
		t.Fatalf("%d adaptations, want 1", len(rep.Adaptations))
	}
	churn, err := sess.SimulateChurn(tr,
		bwc.WithChurn(bwc.ChurnConfig{Seed: 6, Rate: 3}),
		bwc.WithStop(bwc.RatInt(600)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(churn.Adaptations) == 0 {
		t.Fatal("churn run never re-negotiated")
	}

	pre := sess.Stats()
	if sess.Solve(tr) != res {
		t.Fatal("the submitted platform's memo entry was replaced")
	}
	st := sess.Stats()
	if st.Hits != pre.Hits+1 || st.Misses != pre.Misses {
		t.Fatalf("follow-up solve missed (stats %+v -> %+v)", pre, st)
	}
	if ev := st.ByFingerprint[fp].Evictions; ev != 0 {
		t.Fatalf("simulated faults evicted %d entries", ev)
	}
	if st.Solves != 1 || st.Schedules != 1 {
		t.Fatalf("memo holds %d solves and %d schedules, want the submitted platform's 1 and 1", st.Solves, st.Schedules)
	}
}

// TestSessionPerFingerprintStats: Stats breaks hits/misses/evictions
// down per platform fingerprint, StatsFor reads one tenant, and the
// ByFingerprint map is a deep copy that stays valid after mutation.
func TestSessionPerFingerprintStats(t *testing.T) {
	sess := bwc.NewSession()
	a := sessionTree()
	b := bwc.GeneratePlatform(bwc.Uniform, 12, 5)
	fpA, fpB := bwc.PlatformFingerprint(a), bwc.PlatformFingerprint(b)
	if fpA == fpB {
		t.Fatal("distinct platforms share a fingerprint")
	}

	sess.Solve(a)
	sess.Solve(a)
	sess.Solve(b)
	st := sess.Stats()
	if got := st.ByFingerprint[fpA]; got.Misses != 1 || got.Hits != 1 {
		t.Fatalf("fpA stats = %+v, want 1 miss / 1 hit", got)
	}
	if got := st.ByFingerprint[fpB]; got.Misses != 1 || got.Hits != 0 {
		t.Fatalf("fpB stats = %+v, want 1 miss / 0 hits", got)
	}

	// Invalidate counts an eviction against the right fingerprint only.
	sess.Invalidate(a)
	if got := sess.StatsFor(fpA); got.Evictions != 1 {
		t.Fatalf("fpA evictions = %d, want 1", got.Evictions)
	}
	if got := sess.StatsFor(fpB); got.Evictions != 0 {
		t.Fatalf("fpB evictions = %d, want 0", got.Evictions)
	}
	if got := sess.StatsFor("unseen"); got != (bwc.FingerprintStats{}) {
		t.Fatalf("unseen fingerprint stats = %+v, want zero", got)
	}

	// The snapshot is a copy: later session activity must not mutate it.
	snap := sess.Stats()
	before := snap.ByFingerprint[fpB]
	sess.Solve(b)
	if snap.ByFingerprint[fpB] != before {
		t.Fatal("Stats snapshot mutated by later session activity")
	}
}

// TestSessionStatsConcurrent reads Stats/StatsFor while other goroutines
// solve and invalidate (run under -race): the deep-copied snapshot is
// coherent under concurrent eviction.
func TestSessionStatsConcurrent(t *testing.T) {
	sess := bwc.NewSession()
	trees := []*bwc.Tree{sessionTree(), bwc.GeneratePlatform(bwc.Uniform, 12, 5)}
	fps := []string{bwc.PlatformFingerprint(trees[0]), bwc.PlatformFingerprint(trees[1])}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				tr := trees[(w+i)%2]
				sess.Solve(tr)
				if i%5 == 0 {
					sess.Invalidate(tr)
				}
				st := sess.Stats()
				for _, fp := range fps {
					fpSt := st.ByFingerprint[fp]
					if fpSt.Hits < 0 || fpSt.Misses < 0 {
						t.Error("negative counters in snapshot")
						return
					}
					sess.StatsFor(fp)
				}
			}
		}(w)
	}
	wg.Wait()
	st := sess.Stats()
	total := 0
	for _, fpSt := range st.ByFingerprint {
		total += fpSt.Hits + fpSt.Misses
	}
	if total != st.Hits+st.Misses {
		t.Fatalf("per-fingerprint counters (%d) do not sum to the totals (%d)",
			total, st.Hits+st.Misses)
	}
}

// TestSessionPrimeAndCached: Prime installs a result without solving,
// Cached reads it without blocking, and a primed entry satisfies
// SolveCached as a hit.
func TestSessionPrimeAndCached(t *testing.T) {
	tr := sessionTree()
	donor := bwc.NewSession()
	res := donor.Solve(tr)

	sess := bwc.NewSession()
	if _, ok := sess.Cached(tr); ok {
		t.Fatal("empty session reports a cached result")
	}
	sess.Prime(tr, res)
	got, ok := sess.Cached(tr)
	if !ok || got != res {
		t.Fatal("primed result not visible through Cached")
	}
	solved, cached := sess.SolveCached(tr)
	if !cached || solved != res {
		t.Fatal("primed entry did not satisfy SolveCached as a hit")
	}
	// Prime(nil) is a no-op, not a poisoned entry.
	fresh := bwc.NewSession()
	fresh.Prime(tr, nil)
	if _, ok := fresh.Cached(tr); ok {
		t.Fatal("Prime(nil) installed an entry")
	}
}

// BenchmarkSessionSolveCold measures the full negotiation wave per call
// (fresh Session each time); BenchmarkSessionSolveCached measures the
// memo hit. The recorded speedup lives in EXPERIMENTS.md and must stay
// ≥10×.
func BenchmarkSessionSolveCold(b *testing.B) {
	tr := benchfix.Uniform64()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bwc.NewSession().Solve(tr)
	}
}

func BenchmarkSessionSolveCached(b *testing.B) {
	tr := benchfix.Uniform64()
	sess := bwc.NewSession()
	sess.Solve(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Solve(tr)
	}
}

// TestSessionSchedulePeriodsConcurrent: a Session hands one schedule to
// every caller, and the schedule computes its periods on first use.
// Goroutines that read them at once must all get the one stored value,
// equal to a fresh build's, and the race detector must find nothing.
func TestSessionSchedulePeriodsConcurrent(t *testing.T) {
	sess := bwc.NewSession()
	tr := sessionTree()
	s, err := sess.BuildSchedule(tr)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := bwc.BuildSchedule(bwc.Solve(tr))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*sched.Periods, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = s.Periods()
			if s.TreePeriod().Cmp(fresh.TreePeriod()) != 0 {
				t.Errorf("tree period %s, a fresh build's %s", s.TreePeriod(), fresh.TreePeriod())
			}
		}(i)
	}
	wg.Wait()
	for _, p := range got[1:] {
		if p != got[0] {
			t.Fatal("concurrent readers got different Periods values")
		}
	}
	for id := range s.Nodes {
		n := bwc.NodeID(id)
		if want := fresh.Periods().T0(n); !got[0].T0(n).Equal(want) {
			t.Fatalf("node %d: T0 %s, a fresh build's %s", id, got[0].T0(n), want)
		}
	}
}
