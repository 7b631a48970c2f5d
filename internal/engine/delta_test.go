package engine

import (
	"math/big"
	"slices"
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
	got := ChangedNodes(s, mod)
	if len(got) != 1 || got[0] != p2 {
		t.Fatalf("changed = %v, want [%d]", got, p2)
	}
	// Another ψ vector changes exactly that node.
	root := s.Tree.Root()
	mod = s.Clone()
	mod.Nodes[root].Psi0 = big.NewInt(mod.Nodes[root].Psi0.Int64() + 1)
	if got := ChangedNodes(s, mod); len(got) != 1 || got[0] != root {
		t.Fatalf("changed = %v, want [%d]", got, root)
	}
	// The other ordering strategy changes every node.
	mod = s.Clone()
	mod.Block = true
	if got := ChangedNodes(s, mod); len(got) != 3 {
		t.Fatalf("block order changed %v, want all three nodes", got)
	}
	// A re-built schedule of the same result deploys identical orders.
	rebuilt := twoWorkers(t)
	if got := ChangedNodes(s, rebuilt); got != nil {
		t.Fatalf("re-built twin schedule changed %v", got)
	}
}

// chainWorkers builds P0 → P1 → P2: P1 both computes and forwards, so
// its bunch order mixes Self and child slots and its cursor position is
// observable through the routing stream.
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
// no nodes leaves every cursor where it was — the routing stream is
// identical to an uninterrupted run — while an install listing every
// node at the same point restarts P1's bunch and visibly reroutes the
// tail.
func TestInstallDeltaPreservesCursors(t *testing.T) {
	s := chainWorkers(t)
	p1 := s.Tree.MustLookup("P1")
	if s.Nodes[p1].Bunch.Int64() < 3 {
		t.Fatalf("degenerate fixture: P1 Ψ = %s", s.Nodes[p1].Bunch)
	}
	half := int(s.Nodes[p1].Bunch.Int64())/2 + 1

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

// withSelfPsi returns s with P1's ψ_0 replaced by psi0: another bunch
// order for the one node, of length Ψ − ψ_0 + psi0.
func withSelfPsi(s *sched.Schedule, p1 tree.NodeID, psi0 int64) *sched.Schedule {
	mod := s.Clone()
	ns := &mod.Nodes[p1]
	ns.Bunch = big.NewInt(ns.Bunch.Int64() - ns.Psi0.Int64() + psi0)
	ns.Psi0 = big.NewInt(psi0)
	return mod
}

// resumedRoutes feeds P1 `before` tasks under s, installs next without
// listing any node, feeds `after` more, and returns P1's routing stream
// past the install and its cursor index right after it.
func resumedRoutes(t *testing.T, s, next *sched.Schedule, before, after int) ([]sched.Dest, int64) {
	t.Helper()
	p1 := s.Tree.MustLookup("P1")
	eng := &des.Engine{}
	rec := NewRecorder()
	c := New(Config{Schedule: s, Clock: eng, Recorder: rec, BestEffort: true})
	eng.SetHandler(fireWithReleases(c))
	feed(t, c, eng, before, 0)
	c.InstallDelta(next, nil)
	c.mu.Lock()
	at := c.nodes[p1].cur.Index()
	c.mu.Unlock()
	feed(t, c, eng, after, before)
	return rec.Routes(p1)[before:], at
}

// wantRoutes is n slots of next's order at P1 from slot `from`.
func wantRoutes(next *sched.Schedule, from int64, n int) []sched.Dest {
	cur := next.Cursor(next.Tree.MustLookup("P1"), nil)
	cur.SetIndex(from)
	out := make([]sched.Dest, n)
	for i := range out {
		out[i] = cur.Next().Dest
	}
	return out
}

// TestInstallDeltaClampsCursor: a node whose bunch shrank below its
// cursor's index but was not listed restarts its new order at 0 instead
// of indexing past it.
func TestInstallDeltaClampsCursor(t *testing.T) {
	s := chainWorkers(t)
	p1 := s.Tree.MustLookup("P1")
	if s.Nodes[p1].Psi0.Sign() == 0 || s.Nodes[p1].Bunch.Int64() < 3 {
		t.Fatalf("degenerate fixture: P1 ψ_0 = %s, Ψ = %s", s.Nodes[p1].Psi0, s.Nodes[p1].Bunch)
	}
	before := int(s.Nodes[p1].Bunch.Int64()) - 1
	short := withSelfPsi(s, p1, 0) // Ψ − ψ_0 <= before
	if short.Nodes[p1].Bunch.Int64() > int64(before) {
		t.Fatalf("fixture: shortened Ψ = %s not past index %d", short.Nodes[p1].Bunch, before)
	}
	got, at := resumedRoutes(t, s, short, before, 5)
	if at != 0 {
		t.Fatalf("cursor at %d after the install, want 0", at)
	}
	if want := wantRoutes(short, 0, 5); !slices.Equal(got, want) {
		t.Fatalf("routes after the install %v, want %v", got, want)
	}
}

// TestInstallDeltaResumesChangedOrder: an unlisted node whose ψ changed
// takes the new order at its old index when the new bunch still has
// that slot.
func TestInstallDeltaResumesChangedOrder(t *testing.T) {
	s := chainWorkers(t)
	p1 := s.Tree.MustLookup("P1")
	psi0 := s.Nodes[p1].Psi0.Int64()
	longer := withSelfPsi(s, p1, psi0+3)
	if ChangedNodes(s, longer) == nil {
		t.Fatal("fixture: the longer bunch deploys identically")
	}
	before := int(s.Nodes[p1].Bunch.Int64()) - 1
	got, at := resumedRoutes(t, s, longer, before, 6)
	if at != int64(before) {
		t.Fatalf("cursor at %d after the install, want the old index %d", at, before)
	}
	if want := wantRoutes(longer, int64(before), 6); !slices.Equal(got, want) {
		t.Fatalf("routes after the install %v, want %v", got, want)
	}
	// Listing the node restarts it instead.
	eng := &des.Engine{}
	c := New(Config{Schedule: s, Clock: eng})
	eng.SetHandler(fireWithReleases(c))
	feed(t, c, eng, before, 0)
	c.InstallDelta(longer, []tree.NodeID{p1})
	if at := c.nodes[p1].cur.Index(); at != 0 {
		t.Fatalf("listed node's cursor at %d, want 0", at)
	}
}
