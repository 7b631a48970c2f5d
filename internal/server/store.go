package server

import (
	"fmt"
	"sync"
	"time"

	apiv1 "bwc/api/v1"
)

// store is the bounded in-memory run history: a ring of RunRecords keyed
// by ID. When the ring is full the oldest finished record is dropped
// first; running records are only dropped when everything retained is
// still running (a pathological capacity, but never a leak).
type store struct {
	mu     sync.Mutex
	cap    int
	seq    int
	order  []string // oldest first
	byID   map[string]*apiv1.RunRecord
	failed int
}

func newStore(capacity int) *store {
	if capacity <= 0 {
		capacity = 256
	}
	return &store{cap: capacity, byID: make(map[string]*apiv1.RunRecord)}
}

// Start records a new running run and returns its ID.
func (st *store) Start(kind, fingerprint string) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	id := fmt.Sprintf("r%06d", st.seq)
	st.byID[id] = &apiv1.RunRecord{
		ID:          id,
		Kind:        kind,
		Fingerprint: fingerprint,
		Status:      apiv1.RunRunning,
		StartedAt:   time.Now(),
	}
	st.order = append(st.order, id)
	st.evictLocked()
	return id
}

// evictLocked enforces the capacity, preferring to drop the oldest
// finished record.
func (st *store) evictLocked() {
	for len(st.order) > st.cap {
		drop := -1
		for i, id := range st.order {
			if st.byID[id].Status != apiv1.RunRunning {
				drop = i
				break
			}
		}
		if drop < 0 {
			drop = 0
		}
		delete(st.byID, st.order[drop])
		// Shift in place: once the history is full this runs on every
		// request, and a fresh slice each time is capacity-sized garbage.
		copy(st.order[drop:], st.order[drop+1:])
		st.order = st.order[:len(st.order)-1]
	}
}

// Finish marks the run done (or failed, when wireErr is non-nil) with a
// one-line summary. Unknown IDs (already evicted) are ignored.
func (st *store) Finish(id, summary string, wireErr *apiv1.Error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r, ok := st.byID[id]
	if !ok {
		return
	}
	r.FinishedAt = time.Now()
	r.Summary = summary
	if wireErr != nil {
		r.Status = apiv1.RunFailed
		r.Error = wireErr
		st.failed++
	} else {
		r.Status = apiv1.RunDone
	}
}

// Get returns a copy of the record (ok false when unknown or evicted).
func (st *store) Get(id string) (apiv1.RunRecord, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r, ok := st.byID[id]
	if !ok {
		return apiv1.RunRecord{}, false
	}
	return *r, true
}

// List returns copies of every retained record, newest first.
func (st *store) List() []apiv1.RunRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]apiv1.RunRecord, 0, len(st.order))
	for i := len(st.order) - 1; i >= 0; i-- {
		out = append(out, *st.byID[st.order[i]])
	}
	return out
}

// Len returns how many records are retained; Failed how many of all
// recorded runs failed (including evicted ones).
func (st *store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.order)
}

func (st *store) Failed() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.failed
}
