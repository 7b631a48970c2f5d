package infinite

import (
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/rat"
	"bwc/internal/tree"
)

func TestRateClosedForm(t *testing.T) {
	cases := []struct {
		k    int
		w, c rat.R
		want rat.R
	}{
		{1, rat.One, rat.One, rat.Two},
		{2, rat.Two, rat.New(1, 2), rat.New(5, 2)}, // 1/2 + 2
		{4, rat.FromInt(3), rat.FromInt(5), rat.New(8, 15)},
	}
	for _, c := range cases {
		got, err := Spec{Fanout: c.k, Proc: c.w, Comm: c.c}.Rate()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(c.want) {
			t.Errorf("k=%d w=%s c=%s: rate %s, want %s", c.k, c.w, c.c, got, c.want)
		}
	}
}

func TestTruncationMonotoneAndBounded(t *testing.T) {
	s := Spec{Fanout: 3, Proc: rat.Two, Comm: rat.New(3, 2)}
	limit, err := s.Rate()
	if err != nil {
		t.Fatal(err)
	}
	prev := rat.Zero
	for d := 0; d <= 12; d++ {
		x, err := s.TruncatedRate(d)
		if err != nil {
			t.Fatal(err)
		}
		if x.Less(prev) {
			t.Fatalf("depth %d: rate decreased %s -> %s", d, prev, x)
		}
		if limit.Less(x) {
			t.Fatalf("depth %d: rate %s exceeds the infinite limit %s", d, x, limit)
		}
		prev = x
	}
	// By depth 12 the gap must be tiny (geometric convergence).
	gap := limit.Sub(prev)
	if !gap.Less(limit.Mul(rat.New(1, 100))) {
		t.Fatalf("gap after depth 12 still %s of limit %s", gap, limit)
	}
}

// TestTruncationMatchesExplicitTree: the iterated reduction must equal
// BW-First's throughput on an explicitly built uniform tree of the same
// depth (with the root's virtual-parent cap removed by comparing the
// bottom-up equivalent rate instead — here the root cap never binds since
// t_max = r + b = the infinite rate ≥ any truncation).
func TestTruncationMatchesExplicitTree(t *testing.T) {
	s := Spec{Fanout: 2, Proc: rat.Two, Comm: rat.One}
	for depth := 0; depth <= 4; depth++ {
		b := tree.NewBuilder().Root("n", s.Proc)
		build(b, "n", s, depth)
		tr := b.MustBuild()
		want := bwfirst.Solve(tr).Throughput
		got, err := s.TruncatedRate(depth)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("depth %d: iterated %s != explicit tree %s", depth, got, want)
		}
	}
}

func build(b *tree.Builder, parent string, s Spec, depth int) {
	if depth == 0 {
		return
	}
	for i := 0; i < s.Fanout; i++ {
		name := parent + "." + string(rune('a'+i))
		b.Child(parent, name, s.Comm, s.Proc)
		build(b, name, s, depth-1)
	}
}

func TestChainConvergesLinearly(t *testing.T) {
	// In the compute-limited regime of a chain the truncation gains
	// exactly r per level until the link saturates, then lands exactly on
	// the infinite rate — finite exact convergence.
	s := Spec{Fanout: 1, Proc: rat.One, Comm: rat.New(1, 4)}
	limit, _ := s.Rate() // 1 + 4 = 5
	if !limit.Equal(rat.FromInt(5)) {
		t.Fatalf("limit = %s", limit)
	}
	for d, want := range []int64{1, 2, 3, 4, 5, 5, 5} {
		x, err := s.TruncatedRate(d)
		if err != nil {
			t.Fatal(err)
		}
		if !x.Equal(rat.FromInt(want)) {
			t.Fatalf("depth %d: rate %s, want %d", d, x, want)
		}
	}
}

// TestConvergenceTableGeometric: the table of depth-0..8 truncations
// closes its gap to the infinite rate level by level.
func TestConvergenceTableGeometric(t *testing.T) {
	s := Spec{Fanout: 2, Proc: rat.Two, Comm: rat.One}
	limit, err := s.Rate()
	if err != nil {
		t.Fatal(err)
	}
	var gaps []rat.R
	for d := 0; d <= 8; d++ {
		x, err := s.TruncatedRate(d)
		if err != nil {
			t.Fatal(err)
		}
		gaps = append(gaps, limit.Sub(x))
	}
	// Gaps shrink (at least weakly) every level and strictly overall.
	for i := 1; i < len(gaps); i++ {
		if gaps[i-1].Less(gaps[i]) {
			t.Fatalf("gap grew at depth %d: %s -> %s", i, gaps[i-1], gaps[i])
		}
	}
	if !gaps[8].Less(gaps[0]) {
		t.Fatal("no overall convergence")
	}
}

func TestValidation(t *testing.T) {
	bad := []Spec{
		{Fanout: 0, Proc: rat.One, Comm: rat.One},
		{Fanout: 1, Proc: rat.Zero, Comm: rat.One},
		{Fanout: 1, Proc: rat.One, Comm: rat.Zero},
	}
	for _, s := range bad {
		if _, err := s.Rate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	if _, err := (Spec{Fanout: 1, Proc: rat.One, Comm: rat.One}).TruncatedRate(-1); err == nil {
		t.Error("negative depth accepted")
	}
}

func TestRemainingErrorBranches(t *testing.T) {
	badSpec := Spec{Fanout: 1, Proc: rat.Zero, Comm: rat.One}
	if _, err := badSpec.TruncatedRate(2); err == nil {
		t.Error("bad spec truncated")
	}
}
