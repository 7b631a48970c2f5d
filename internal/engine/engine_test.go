package engine

import (
	"math/big"
	"strings"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/des"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/tree"
)

func buildSchedule(t *testing.T, tr *tree.Tree) *sched.Schedule {
	t.Helper()
	s, err := sched.Build(bwfirst.Solve(tr), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// twoWorkers is the T=18 platform of the sim tests: P0(w=2),
// P1(c=1,w=3), P2(c=3,w=2).
func twoWorkers(t *testing.T) *sched.Schedule {
	t.Helper()
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		Child("P0", "P2", rat.FromInt(3), rat.Two).
		MustBuild()
	return buildSchedule(t, tr)
}

// testRelease is the tests' own DES kind: the root releases task Task
// to slot destination Arg.
const testRelease = NumKinds

// fireWithReleases is a test core's DES handler: the tests' releases,
// and the core's transitions.
func fireWithReleases(c *Core) des.Handler {
	return func(ev Event) {
		if ev.Kind != testRelease {
			c.Fire(ev)
			return
		}
		c.Release(sched.Dest(ev.Arg), Task{ID: int(ev.Task)})
	}
}

// emptyBunch zeroes a row's ψ counts, so its node routes nothing. The
// row's own count slice is replaced, not written: a clone shares it.
func emptyBunch(ns *sched.NodeSchedule) {
	zero := new(big.Int)
	ns.Psi0, ns.Bunch, ns.Psi = zero, zero, make([]*big.Int, len(ns.Psi))
	for j := range ns.Psi {
		ns.Psi[j] = zero
	}
}

// allNodes lists every node of an n-node platform: the delta that
// restarts every pattern.
func allNodes(n int) []tree.NodeID {
	ids := make([]tree.NodeID, n)
	for i := range ids {
		ids[i] = tree.NodeID(i)
	}
	return ids
}

// runBatch drives a core over the DES clock: release n tasks with the
// pacer's law, then drain.
func runBatch(t *testing.T, c *Core, p Pacer, eng *des.Engine, n int) {
	t.Helper()
	base := eng.Now() // restarted batches anchor past the drained clock
	for released := 0; released < n; released++ {
		dest, at := p.Next()
		eng.Post(base.Add(at), Event{Kind: testRelease, Arg: int64(dest), Task: int64(released)})
	}
	if err := eng.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestBatchConservation(t *testing.T) {
	s := twoWorkers(t)
	eng := &des.Engine{}
	rec := NewRecorder()
	c := New(Config{Schedule: s, Clock: eng, Recorder: rec})
	eng.SetHandler(fireWithReleases(c))
	p := NewPacer(s, false)
	runBatch(t, c, p, eng, 19)

	if c.Released() != 19 || c.Completed() != 19 || c.Dropped() != 0 {
		t.Fatalf("released=%d completed=%d dropped=%d", c.Released(), c.Completed(), c.Dropped())
	}
	var total int64
	for id := 0; id < s.Tree.Len(); id++ {
		total += rec.Computes(tree.NodeID(id))
	}
	if total != 19 {
		t.Fatalf("recorder computes sum to %d, want 19", total)
	}
}

// computeOrderHooks checks at every ComputeFinished that the recorder
// already counts the task the hook reports.
type computeOrderHooks struct {
	NopHooks
	t    *testing.T
	rec  *Recorder
	seen []int64
}

func (h *computeOrderHooks) ComputeFinished(n tree.NodeID, tk Task) {
	h.seen[n]++
	if got := h.rec.Computes(n); got != h.seen[n] {
		h.t.Errorf("node %d: recorder holds %d computes when ComputeFinished reports the %d-th", n, got, h.seen[n])
	}
}

// TestRecorderCountsComputeBeforeHook: a backend may end its run from
// ComputeFinished (the runtime closes its batch on the last task), so
// the recorder must already hold that compute when the hook fires, or a
// fingerprint read right after the run misses it.
func TestRecorderCountsComputeBeforeHook(t *testing.T) {
	s := twoWorkers(t)
	eng := &des.Engine{}
	rec := NewRecorder()
	h := &computeOrderHooks{t: t, rec: rec, seen: make([]int64, s.Tree.Len())}
	c := New(Config{Schedule: s, Clock: eng, Hooks: h, Recorder: rec})
	eng.SetHandler(fireWithReleases(c))
	runBatch(t, c, NewPacer(s, false), eng, 19)
	var total int64
	for _, v := range h.seen {
		total += v
	}
	if total != 19 {
		t.Fatalf("ComputeFinished fired %d times, want 19", total)
	}
}

func TestRecorderDeterministic(t *testing.T) {
	s := twoWorkers(t)
	fp := func() string {
		eng := &des.Engine{}
		rec := NewRecorder()
		c := New(Config{Schedule: s, Clock: eng, Recorder: rec})
		eng.SetHandler(fireWithReleases(c))
		runBatch(t, c, NewPacer(s, false), eng, 38)
		return rec.Fingerprint()
	}
	a, b := fp(), fp()
	if a != b {
		t.Fatalf("fingerprints differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "computes=") {
		t.Fatalf("fingerprint lacks compute counts:\n%s", a)
	}
}

func TestBunchAccounting(t *testing.T) {
	s := twoWorkers(t)
	eng := &des.Engine{}
	rec := NewRecorder()
	c := New(Config{Schedule: s, Clock: eng, Recorder: rec})
	eng.SetHandler(fireWithReleases(c))
	p := NewPacer(s, false)
	periods := 4
	runBatch(t, c, p, eng, int(p.Len())*periods)
	// Every node consumed one Ψ-bunch per full wrap of its cursor: the
	// bunch counter must equal arrivals ÷ Ψ (Lemma 1).
	root := s.Tree.Root()
	sawBunch := false
	for id := 0; id < s.Tree.Len(); id++ {
		n := tree.NodeID(id)
		if n == root {
			continue
		}
		ns := &s.Nodes[n]
		if !ns.Active || ns.Bunch.Sign() == 0 {
			continue
		}
		want := int64(len(rec.Routes(n))) / ns.Bunch.Int64()
		if got := c.Bunches(n); got != want {
			t.Fatalf("node %s: %d bunches, want %d (arrivals=%d Ψ=%s)",
				s.Tree.Name(n), got, want, len(rec.Routes(n)), ns.Bunch)
		}
		if want > 0 {
			sawBunch = true
		}
	}
	if !sawBunch {
		t.Fatal("no node completed a bunch; test platform degenerate")
	}
}

func TestWatermarkTracksBuffering(t *testing.T) {
	s := twoWorkers(t)
	eng := &des.Engine{}
	c := New(Config{Schedule: s, Clock: eng})
	eng.SetHandler(fireWithReleases(c))
	// Burst release: the whole first period lands at t=0, so queues form.
	runBatch(t, c, NewPacer(s, true), eng, 19)
	if c.MaxWatermark() == 0 {
		t.Fatal("burst release should buffer somewhere")
	}
	for id := 0; id < s.Tree.Len(); id++ {
		if got := c.Buffered(tree.NodeID(id)); got != 0 {
			t.Fatalf("node %d still buffers %d after drain", id, got)
		}
	}
}

func TestInstallResetsCursors(t *testing.T) {
	s := twoWorkers(t)
	eng := &des.Engine{}
	c := New(Config{Schedule: s, Clock: eng})
	eng.SetHandler(fireWithReleases(c))
	// Half a period in, install the same schedule listing every node:
	// cursors reset, and the remaining tasks still route without
	// panicking.
	runBatch(t, c, NewPacer(s, false), eng, 5)
	c.InstallDelta(s, allNodes(s.Tree.Len()))
	runBatch(t, c, NewPacer(s, false), eng, 5)
	if c.Completed() != 10 {
		t.Fatalf("completed %d, want 10", c.Completed())
	}
}

func TestBestEffortStranding(t *testing.T) {
	s := twoWorkers(t)
	// Empty every bunch but the root's: arrivals at a non-switch node
	// should fall back to local compute under BestEffort instead of
	// panicking.
	stripped := s.Clone()
	for i := range stripped.Nodes {
		if tree.NodeID(i) != s.Tree.Root() {
			emptyBunch(&stripped.Nodes[i])
		}
	}
	eng := &des.Engine{}
	c := New(Config{Schedule: stripped, Clock: eng, BestEffort: true})
	eng.SetHandler(fireWithReleases(c))
	p := NewPacer(stripped, false)
	runBatch(t, c, p, eng, 6)
	if c.Completed() != 6 {
		t.Fatalf("completed %d, want 6 (stranded tasks compute locally)", c.Completed())
	}
}

func TestSameShape(t *testing.T) {
	a := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		MustBuild()
	faster, err := a.WithCommTime(a.MustLookup("P1"), rat.FromInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := SameShape(a, faster); err != nil {
		t.Fatalf("weight change rejected: %v", err)
	}
	b := tree.NewBuilder().Root("P0", rat.Two).MustBuild()
	if err := SameShape(a, b); err == nil || !strings.Contains(err.Error(), "topology changed") {
		t.Fatalf("want topology-changed error, got %v", err)
	}
}

// TestPacerLaw: slot k of period p leaves at (p + pos_k)·T^w, in the
// root's bunch order, and in burst mode at p·T^w.
func TestPacerLaw(t *testing.T) {
	s := twoWorkers(t)
	root := s.Tree.Root()
	rs := &s.Nodes[root]
	p, burst := NewPacer(s, false), NewPacer(s, true)
	if !p.TW().Equal(rs.TW) || p.Len() != rs.Bunch.Int64() {
		t.Fatalf("pacer tw=%s len=%d, want %s/%s", p.TW(), p.Len(), rs.TW, rs.Bunch)
	}
	for period := int64(0); period < 3; period++ {
		cur := s.Cursor(root, nil)
		for i := range p.Len() {
			if p.Index() != i || burst.Index() != i {
				t.Fatalf("period %d: pacers at slot %d and %d, want %d", period, p.Index(), burst.Index(), i)
			}
			slot := cur.Next()
			start := rs.TW.Mul(rat.FromInt(period))
			dest, at := p.Next()
			if want := start.Add(slot.Pos().Mul(rs.TW)); dest != slot.Dest || !at.Equal(want) {
				t.Fatalf("slot %d period %d: (%d, %s), want (%d, %s)", i, period, dest, at, slot.Dest, want)
			}
			if dest, at := burst.Next(); dest != slot.Dest || !at.Equal(start) {
				t.Fatalf("burst slot %d period %d: (%d, %s), want (%d, %s)", i, period, dest, at, slot.Dest, start)
			}
		}
	}
}

// TestSendQueueStorageStaysBounded: in a long run whose send queue never
// drains, the queue's backing array stays bounded. The root keeps a
// backlog of eight transfers to its only child and releases one more
// task per link time, so the send port is never idle and its queue never
// empties; a queue that only advanced its head would grow with every
// task.
func TestSendQueueStorageStaysBounded(t *testing.T) {
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.One).
		MustBuild()
	s := buildSchedule(t, tr)
	eng := &des.Engine{}
	c := New(Config{Schedule: s, Clock: eng})
	q := &c.nodes[tr.Root()].sendQ
	const backlog, tasks = 8, 100_000
	for id := 0; id < backlog; id++ {
		c.Release(0, Task{ID: id})
	}
	minLen, maxCap := backlog, 0
	eng.SetHandler(func(ev Event) {
		if ev.Kind != testRelease {
			c.Fire(ev)
			return
		}
		c.Release(0, Task{ID: int(ev.Task)})
		minLen, maxCap = min(minLen, q.len()), max(maxCap, cap(q.buf))
		if ev.Task+1 < tasks {
			eng.After(rat.One, Event{Kind: testRelease, Task: ev.Task + 1})
		}
	})
	eng.Post(rat.One, Event{Kind: testRelease, Task: backlog})
	if err := eng.Drain(10 * tasks); err != nil {
		t.Fatal(err)
	}
	if c.Completed() != tasks {
		t.Fatalf("completed %d of %d tasks", c.Completed(), tasks)
	}
	if minLen == 0 {
		t.Fatal("the send queue drained; the run does not exercise a queue that never empties")
	}
	if maxCap > 4*backlog {
		t.Fatalf("send queue backing array reached %d slots for a backlog of %d", maxCap, backlog)
	}
}
