package engine

import (
	"testing"

	"bwc/internal/des"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/tree"
)

func TestChangedNodes(t *testing.T) {
	s := twoWorkers(t)
	if got := ChangedNodes(s, s); got != nil {
		t.Fatalf("identical schedules changed %v", got)
	}
	// Deactivating one node changes exactly that node.
	mod := s.Clone()
	p2 := s.Tree.MustLookup("P2")
	mod.Nodes[p2].Active = false
	mod.Nodes[p2].Pattern = nil
	got := ChangedNodes(s, mod)
	if len(got) != 1 || got[0] != p2 {
		t.Fatalf("changed = %v, want [%d]", got, p2)
	}
	// A re-built schedule of the same result deploys identical patterns.
	rebuilt := twoWorkers(t)
	if got := ChangedNodes(s, rebuilt); got != nil {
		t.Fatalf("re-built twin schedule changed %v", got)
	}
}

// chainWorkers builds P0 → P1 → P2: P1 both computes and forwards, so
// its allocation pattern mixes Self and child slots and its cursor
// position is observable through the routing stream.
func chainWorkers(t *testing.T) *sched.Schedule {
	t.Helper()
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		Child("P1", "P2", rat.Two, rat.FromInt(5)).
		MustBuild()
	return buildSchedule(t, tr)
}

// feed pushes n tasks into P1 one time unit apart, starting after the
// engine's current time, and drains.
func feed(t *testing.T, c *Core, eng *des.Engine, n, firstID int) {
	t.Helper()
	base := eng.Now()
	for i := 0; i < n; i++ {
		eng.Post(base.Add(rat.FromInt(int64(4*(i+1)))), Event{Kind: testRelease, Arg: 0, Task: int64(firstID + i)})
	}
	if err := eng.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestInstallDeltaPreservesCursors: a mid-bunch delta install that lists
// no nodes leaves every pattern cursor where it was — the routing stream
// is identical to an uninterrupted run — while an install listing every
// node at the same point restarts P1's pattern and visibly reroutes the
// tail.
func TestInstallDeltaPreservesCursors(t *testing.T) {
	s := chainWorkers(t)
	p1 := s.Tree.MustLookup("P1")
	if len(s.Nodes[p1].Pattern) < 3 {
		t.Fatalf("degenerate fixture: P1 pattern length %d", len(s.Nodes[p1].Pattern))
	}
	half := len(s.Nodes[p1].Pattern)/2 + 1

	run := func(install func(c *Core)) string {
		eng := &des.Engine{}
		rec := NewRecorder()
		c := New(Config{Schedule: s, Clock: eng, Recorder: rec})
		eng.SetHandler(fireWithReleases(c))
		feed(t, c, eng, half, 0)
		if install != nil {
			install(c)
		}
		feed(t, c, eng, half, half)
		return rec.Fingerprint()
	}

	uninterrupted := run(nil)
	if got := run(func(c *Core) { c.InstallDelta(s, nil) }); got != uninterrupted {
		t.Fatalf("empty-delta install perturbed the routing:\n%s\nvs\n%s", got, uninterrupted)
	}
	if got := run(func(c *Core) { c.InstallDelta(s, []tree.NodeID{p1}) }); got == uninterrupted {
		t.Fatal("listed-node reset did not change the routing; fixture too weak")
	}
	if got := run(func(c *Core) { c.InstallDelta(s, allNodes(s.Tree.Len())) }); got == uninterrupted {
		t.Fatal("installing every node preserved mid-bunch cursors; delta seam is vacuous")
	}
}

// TestInstallDeltaClampsCursor: a node whose pattern shrank but was not
// listed resets defensively instead of indexing out of range.
func TestInstallDeltaClampsCursor(t *testing.T) {
	s := chainWorkers(t)
	p1 := s.Tree.MustLookup("P1")
	eng := &des.Engine{}
	c := New(Config{Schedule: s, Clock: eng, BestEffort: true})
	eng.SetHandler(fireWithReleases(c))
	feed(t, c, eng, len(s.Nodes[p1].Pattern)/2+1, 0)

	short := s.Clone()
	for i := range short.Nodes {
		if len(short.Nodes[i].Pattern) > 1 {
			short.Nodes[i].Pattern = short.Nodes[i].Pattern[:1]
		}
	}
	c.InstallDelta(short, nil)
	c.mu.Lock()
	for i := range c.nodes {
		n := &c.nodes[i]
		if len(n.pattern) != len(short.Nodes[i].Pattern) {
			c.mu.Unlock()
			t.Fatalf("node %d not re-pointed at the installed pattern", i)
		}
		if len(n.pattern) > 0 && n.cursor >= len(n.pattern) {
			c.mu.Unlock()
			t.Fatalf("node %d cursor %d out of range for pattern %d", i, n.cursor, len(n.pattern))
		}
	}
	c.mu.Unlock()
	feed(t, c, eng, 3, 100) // still routes without panicking
}
