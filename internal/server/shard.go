package server

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"

	"bwc"
	apiv1 "bwc/api/v1"
	"bwc/internal/obs"
)

// shard is the LRU-bounded session fleet: one bwc.Session per platform
// fingerprint (the tenant key). Eviction drops the Session from the map
// only — handlers holding the pointer finish their in-flight solves
// untouched — and captures the platform's solved state as a bounded
// "ghost" so a re-submitted evicted platform re-primes warm instead of
// solving cold: exactly (same fingerprint) via Session.Prime, or
// incrementally (same shape, drifted weights) via Prime +
// InvalidateDelta's spine re-solve.
//
// Beside the fingerprint map the shard keeps an exact-text index: at
// most one request text per live tenant, so a byte-identical
// resubmission resolves its tenant without parsing or fingerprinting.
type shard struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*shardEntry
	texts   map[textKey]*shardEntry
	order   *list.List // *shardEntry, front = most recently used
	ghosts  map[string]ghost
	gorder  *list.List // fingerprint string, front = most recent
	evicted int
	scope   *obs.Scope
}

// textKey is a request's platform as sent: the exact platform text and
// uniform_return string.
type textKey struct{ platform, uniformReturn string }

type shardEntry struct {
	fp   string
	tree *bwc.Tree
	sess *bwc.Session
	elem *list.Element
	text textKey // the text that admitted this tenant, its index key
	// wire holds the submit fields rendered from the schedule the
	// Session last returned.
	wire atomic.Pointer[wireFields]
}

// ghost is the retained state of an evicted platform: enough to re-prime
// a fresh Session without re-running the negotiation wave.
type ghost struct {
	tree *bwc.Tree
	res  *bwc.Result
	elem *list.Element
}

func newShard(capacity int, scope *obs.Scope) *shard {
	if capacity <= 0 {
		capacity = 64
	}
	return &shard{
		cap:     capacity,
		entries: make(map[string]*shardEntry),
		texts:   make(map[textKey]*shardEntry),
		order:   list.New(),
		ghosts:  make(map[string]ghost),
		gorder:  list.New(),
		scope:   scope,
	}
}

// fpLabel shortens a fingerprint for metric labels.
func fpLabel(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// counter bumps one per-tenant cache counter (no-op without a scope).
func (sh *shard) counter(name, help, fp string) {
	sh.scope.Registry().CounterLabeled(name, help, "fp", fpLabel(fp)).Inc()
}

// CountHit / CountMiss export one submit's cache outcome as per-tenant
// metrics; eviction counting happens inside Get.
func (sh *shard) CountHit(fp string) {
	sh.counter("bwschedd_cache_hits_total", "submits served from a tenant's session memo", fp)
}

func (sh *shard) CountMiss(fp string) {
	sh.counter("bwschedd_cache_misses_total", "submits that ran the negotiation wave cold", fp)
}

// ByText returns the live tenant indexed under key, leaving the LRU
// order as it is.
func (sh *shard) ByText(key textKey) (*shardEntry, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.texts[key]
	return e, ok
}

// Touch moves a tenant found by ByText to the LRU front, as Get does on
// a hit. A tenant evicted since the lookup has left the list, so it
// stays out.
func (sh *shard) Touch(e *shardEntry) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.order.MoveToFront(e.elem)
}

// Get returns the tenant for t, creating (and possibly warm re-priming)
// it on a miss; a created tenant is indexed under key, the request text
// t was parsed from. reprimed is true only for the call that re-admitted
// an evicted platform from its ghost — the submit that gets the
// "reprimed" cache marker.
func (sh *shard) Get(key textKey, t *bwc.Tree) (e *shardEntry, reprimed bool) {
	fp := bwc.PlatformFingerprint(t)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[fp]
	if ok {
		sh.order.MoveToFront(e.elem)
	} else {
		sess := bwc.NewSession()
		if g, ok := sh.ghosts[fp]; ok {
			// Exact match: the evicted platform came back unchanged.
			sess.Prime(g.tree, g.res)
			sh.dropGhostLocked(fp)
			reprimed = true
		} else if g, old, ok := sh.findShapeGhostLocked(t); ok {
			// Same shape, drifted weights: carry the retained result onto
			// the mutated platform along the dirty spine.
			sess.Prime(g.tree, g.res)
			if sess.InvalidateDelta(g.tree, t) != nil {
				reprimed = true
			}
			sh.dropGhostLocked(old)
		}
		e = &shardEntry{fp: fp, tree: t, sess: sess, text: key}
		e.elem = sh.order.PushFront(e)
		sh.entries[fp] = e
		sh.texts[key] = e
	}
	for len(sh.entries) > sh.cap {
		sh.evictLocked()
	}
	return e, reprimed
}

// Lookup returns the live Session for a fingerprint without admitting
// anything.
func (sh *shard) Lookup(fp string) (*bwc.Session, *bwc.Tree, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[fp]
	if !ok {
		return nil, nil, false
	}
	return e.sess, e.tree, true
}

// findShapeGhostLocked scans the retained ghosts, most recently evicted
// first, for one whose platform has the same size as t (the cheap
// precondition of a weight-delta re-prime; DiffWeights inside
// InvalidateDelta does the exact check). The fixed order makes whether a
// miss re-primes a function of the request sequence alone.
func (sh *shard) findShapeGhostLocked(t *bwc.Tree) (ghost, string, bool) {
	for el := sh.gorder.Front(); el != nil; el = el.Next() {
		fp := el.Value.(string)
		if g := sh.ghosts[fp]; g.tree.Len() == t.Len() {
			return g, fp, true
		}
	}
	return ghost{}, "", false
}

func (sh *shard) dropGhostLocked(fp string) {
	if g, ok := sh.ghosts[fp]; ok {
		sh.gorder.Remove(g.elem)
		delete(sh.ghosts, fp)
	}
}

// evictLocked drops the least-recently-used tenant. The Session object
// itself is only unhooked, never torn down: any handler still holding it
// completes its in-flight work. If the platform's solve had completed,
// its state is retained as a ghost (bounded by the same capacity).
func (sh *shard) evictLocked() {
	back := sh.order.Back()
	if back == nil {
		return
	}
	e := back.Value.(*shardEntry)
	sh.order.Remove(back)
	delete(sh.entries, e.fp)
	delete(sh.texts, e.text)
	sh.evicted++
	sh.counter("bwschedd_cache_evictions_total", "tenant sessions evicted by the LRU bound", e.fp)
	if res, ok := e.sess.Cached(e.tree); ok {
		sh.dropGhostLocked(e.fp)
		g := ghost{tree: e.tree, res: res}
		g.elem = sh.gorder.PushFront(e.fp)
		sh.ghosts[e.fp] = g
		for len(sh.ghosts) > sh.cap {
			oldest := sh.gorder.Back()
			sh.gorder.Remove(oldest)
			delete(sh.ghosts, oldest.Value.(string))
		}
	}
}

// Len / Cap / Evicted are the shard-level counters of StatsResponse.
func (sh *shard) Len() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.entries)
}

func (sh *shard) Cap() int { return sh.cap }

func (sh *shard) Evicted() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.evicted
}

// Tenants snapshots every live tenant's per-fingerprint counters (safe
// under concurrent eviction: Session.Stats deep-copies under its own
// lock), sorted most-recently-used first.
func (sh *shard) Tenants() []apiv1.TenantStats {
	sh.mu.Lock()
	ordered := make([]*shardEntry, 0, len(sh.entries))
	for el := sh.order.Front(); el != nil; el = el.Next() {
		ordered = append(ordered, el.Value.(*shardEntry))
	}
	sh.mu.Unlock()
	out := make([]apiv1.TenantStats, 0, len(ordered))
	for _, e := range ordered {
		st := e.sess.StatsFor(e.fp)
		ts := apiv1.TenantStats{
			Fingerprint: e.fp,
			Hits:        st.Hits,
			Misses:      st.Misses,
			Evictions:   st.Evictions,
		}
		if res, ok := e.sess.Cached(e.tree); ok {
			ts.Throughput = res.Throughput.String()
		}
		out = append(out, ts)
	}
	return out
}

// Tenant returns one fingerprint's stats (ok false when not live).
func (sh *shard) Tenant(fp string) (apiv1.TenantStats, bool) {
	sess, tree, ok := sh.Lookup(fp)
	if !ok {
		return apiv1.TenantStats{}, false
	}
	st := sess.StatsFor(fp)
	ts := apiv1.TenantStats{
		Fingerprint: fp,
		Hits:        st.Hits,
		Misses:      st.Misses,
		Evictions:   st.Evictions,
	}
	if res, ok := sess.Cached(tree); ok {
		ts.Throughput = res.Throughput.String()
	}
	return ts, true
}

// Fingerprints returns the live tenant fingerprints, sorted.
func (sh *shard) Fingerprints() []string {
	sh.mu.Lock()
	fps := make([]string, 0, len(sh.entries))
	for fp := range sh.entries {
		fps = append(fps, fp)
	}
	sh.mu.Unlock()
	sort.Strings(fps)
	return fps
}
