package server

import (
	"sync"
	"sync/atomic"
	"testing"

	"bwc"
)

const (
	platA = "P0 - - 9\nP1 P0 1/2 8\nP2 P0 2 3\n"
	platB = "Q0 - - 4\nQ1 Q0 1 2\n"
	platC = "R0 - - 6\nR1 R0 1/3 5\nR2 R0 3 7\nR3 R1 2 4\n"
	// platAMut is platA with P1's link degraded: same shape, drifted
	// weight — the incremental re-prime case.
	platAMut = "P0 - - 9\nP1 P0 2 8\nP2 P0 2 3\n"
)

// shardGet admits t, parsed from text, through Get: the tree-level
// admission these tests drive directly.
func shardGet(sh *shard, text string, t *bwc.Tree) (*bwc.Session, string, bool) {
	e, reprimed := sh.Get(textKey{text, ""}, t)
	return e.sess, e.fp, reprimed
}

func mustParse(t *testing.T, text string) *bwc.Tree {
	t.Helper()
	tr, err := bwc.ParsePlatformString(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return tr
}

// TestShardLRUEviction: the shard keeps at most cap tenants, eviction is
// LRU order, and a re-submitted evicted platform re-primes from its
// ghost — its first SolveCached after re-admission is already a hit.
func TestShardLRUEviction(t *testing.T) {
	sh := newShard(2, nil)
	a, b, c := mustParse(t, platA), mustParse(t, platB), mustParse(t, platC)

	sessA, fpA, reprimed := shardGet(sh, platA, a)
	if reprimed {
		t.Fatal("first admission must not be reprimed")
	}
	if _, cached := sessA.SolveCached(a); cached {
		t.Fatal("first solve must be cold")
	}
	shardGet(sh, platB, b)
	if sh.Len() != 2 || sh.Evicted() != 0 {
		t.Fatalf("len=%d evicted=%d, want 2/0", sh.Len(), sh.Evicted())
	}
	shardGet(sh, platC, c) // evicts a (LRU)
	if sh.Len() != 2 || sh.Evicted() != 1 {
		t.Fatalf("len=%d evicted=%d, want 2/1", sh.Len(), sh.Evicted())
	}
	if _, _, ok := sh.Lookup(fpA); ok {
		t.Fatal("evicted fingerprint still live")
	}

	// Re-admission: exact ghost → reprimed, and the solve is warm.
	sessA2, _, reprimed := shardGet(sh, platA, a)
	if !reprimed {
		t.Fatal("re-admitted evicted platform must report reprimed")
	}
	res, cached := sessA2.SolveCached(a)
	if !cached {
		t.Fatal("re-primed platform must not solve cold")
	}
	want := bwc.Solve(a).Throughput
	if !res.Throughput.Equal(want) {
		t.Fatalf("re-primed throughput %s, want %s", res.Throughput, want)
	}
}

// TestShardRepriveIncremental: an evicted platform that comes back with
// drifted weights (same shape) re-primes through the incremental spine
// re-solve instead of solving cold, and the carried result is exact.
func TestShardRepriveIncremental(t *testing.T) {
	sh := newShard(1, nil)
	a, b, aMut := mustParse(t, platA), mustParse(t, platB), mustParse(t, platAMut)

	sessA, _, _ := shardGet(sh, platA, a)
	sessA.SolveCached(a)
	shardGet(sh, platB, b) // evicts a with its solved ghost

	sessMut, _, reprimed := shardGet(sh, platAMut, aMut)
	if !reprimed {
		t.Fatal("mutated re-admission must report reprimed (incremental path)")
	}
	res, cached := sessMut.SolveCached(aMut)
	if !cached {
		t.Fatal("incrementally re-primed platform must not solve cold")
	}
	want := bwc.Solve(aMut).Throughput
	if !res.Throughput.Equal(want) {
		t.Fatalf("incremental re-prime throughput %s, want full re-solve %s", res.Throughput, want)
	}
}

// TestShardInFlightSolveSurvivesEviction: eviction only unhooks the
// Session from the shard map — a handler that already holds the pointer
// completes its solve and reads a correct result.
func TestShardInFlightSolveSurvivesEviction(t *testing.T) {
	sh := newShard(1, nil)
	a, b, c := mustParse(t, platA), mustParse(t, platB), mustParse(t, platC)

	sess, _, _ := shardGet(sh, platA, a)
	done := make(chan *bwc.Result)
	go func() {
		res, _ := sess.SolveCached(a)
		done <- res
	}()
	// Concurrently churn the shard so a's entry is evicted while the
	// solve may still be in flight.
	shardGet(sh, platB, b)
	shardGet(sh, platC, c)
	res := <-done
	want := bwc.Solve(a).Throughput
	if !res.Throughput.Equal(want) {
		t.Fatalf("in-flight solve across eviction: %s, want %s", res.Throughput, want)
	}
}

// TestShardExactlyOneColdSolve: concurrent submits of one new platform
// coalesce — exactly one caller observes cached == false.
func TestShardExactlyOneColdSolve(t *testing.T) {
	sh := newShard(4, nil)
	tr := mustParse(t, platC)
	const clients = 16
	var cold atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, _, _ := shardGet(sh, platC, tr)
			if _, cached := sess.SolveCached(tr); !cached {
				cold.Add(1)
			}
		}()
	}
	wg.Wait()
	if cold.Load() != 1 {
		t.Fatalf("%d cold solves, want exactly 1", cold.Load())
	}
}

// TestShardConcurrentChurn drives submits, evictions and invalidations
// across three platforms from many goroutines (run under -race): no
// solve is ever dropped mid-flight and every final result is exact.
func TestShardConcurrentChurn(t *testing.T) {
	sh := newShard(2, nil) // cap below the working set forces evictions
	texts := []string{platA, platB, platC}
	trees := make([]*bwc.Tree, len(texts))
	wants := make([]bwc.Rational, len(texts))
	for i, text := range texts {
		trees[i] = mustParse(t, text)
		wants[i] = bwc.Solve(trees[i]).Throughput
	}
	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := (w + i) % len(trees)
				tr := trees[k]
				sess, _, _ := shardGet(sh, texts[k], tr)
				res, _ := sess.SolveCached(tr)
				if !res.Throughput.Equal(wants[k]) {
					t.Errorf("worker %d iter %d: wrong throughput %s", w, i, res.Throughput)
					return
				}
				if i%7 == 0 {
					sess.Invalidate(tr)
				}
				if i%11 == 0 {
					sh.Tenants() // stats snapshot racing eviction
				}
			}
		}(w)
	}
	wg.Wait()
	if sh.Len() > 2 {
		t.Fatalf("shard exceeded its bound: %d", sh.Len())
	}
	// Final sanity: every platform still solves to its exact optimum.
	for i, tr := range trees {
		sess, _, _ := shardGet(sh, texts[i], tr)
		res, _ := sess.SolveCached(tr)
		if !res.Throughput.Equal(wants[i]) {
			t.Fatalf("platform %d: final throughput %s, want %s", i, res.Throughput, wants[i])
		}
	}
}

// TestShardTenantStats: per-tenant counters surface through Tenants and
// Tenant, and a ghost-bounded shard never leaks.
func TestShardTenantStats(t *testing.T) {
	sh := newShard(2, nil)
	a := mustParse(t, platA)
	sess, fpA, _ := shardGet(sh, platA, a)
	sess.SolveCached(a)
	sess.SolveCached(a)
	ts, ok := sh.Tenant(fpA)
	if !ok {
		t.Fatal("live tenant not found")
	}
	if ts.Misses != 1 || ts.Hits != 1 {
		t.Fatalf("tenant stats hits=%d misses=%d, want 1/1", ts.Hits, ts.Misses)
	}
	if ts.Throughput == "" {
		t.Fatal("solved tenant must report its throughput")
	}
	all := sh.Tenants()
	if len(all) != 1 || all[0].Fingerprint != fpA {
		t.Fatalf("Tenants = %+v, want the one live tenant", all)
	}
	if _, ok := sh.Tenant("nope"); ok {
		t.Fatal("unknown fingerprint must not resolve")
	}
}
