package perf

import (
	"fmt"
	"io"
	"sort"
)

// Thresholds configures what Compare treats as a regression.
//
// Two classes of gate exist because two classes of metric exist:
//
//   - Machine-bound metrics (ns/op) are only gated when the two
//     trajectories' environment fingerprints are Comparable; a baseline
//     recorded on different hardware silently skips them (the report says
//     so) instead of failing on noise.
//   - Portable metrics — allocs/op, which the compiler makes
//     deterministic, and derived ratios/floors — are gated regardless of
//     environment. They are what makes a committed baseline meaningful
//     on CI runners that share nothing with the machine that wrote it.
type Thresholds struct {
	// NsRel is the allowed relative ns/op increase (0.10 = +10%). Applied
	// per bench; PerBench overrides it by name.
	NsRel    float64
	PerBench map[string]float64
	// MinNs skips the ns/op gate for benches whose baseline is faster
	// than this floor (sub-microsecond benches are timer noise).
	MinNs float64
	// AllocsRel is the allowed relative allocs/op increase. Allocation
	// counts are deterministic, so this gate is active even across
	// environments; one alloc of absolute slack absorbs amortized
	// once-costs. Zero disables.
	AllocsRel float64
	// Min and Max are absolute floors/ceilings on derived metrics of the
	// NEW trajectory (e.g. obs_enabled_overhead_pct <= 25,
	// cached_solve_speedup >= 10) — the portable acceptance bounds.
	Min map[string]float64
	Max map[string]float64
	// RequireAll makes every baseline bench missing from the new
	// trajectory a regression (off for short-suite runs compared against
	// a full baseline).
	RequireAll bool
	// Normalize compensates for host-speed drift before gating ns/op:
	// the median relative ns/op change across all shared benches above
	// the noise floor estimates how much the machine itself sped up or
	// slowed down between the two runs (same fingerprint, different
	// load), and each bench is gated on its drift RELATIVE to that
	// median. A localized regression sticks out from the median and
	// still fails; a uniform 25% slowdown — the weather on a shared
	// host — cancels out. The blind spot is a real regression that slows
	// every bench by the same factor; that is what the trajectory's
	// absolute history and the allocation gates are for. Normalization
	// needs at least three shared benches to be meaningful; below that
	// the median is taken as zero.
	Normalize bool
}

// DefaultThresholds is the CI gate: 10% on time, 10%+1 on allocations.
func DefaultThresholds() Thresholds {
	return Thresholds{
		NsRel:     0.10,
		MinNs:     1000,
		AllocsRel: 0.10,
	}
}

// Delta is one compared metric.
type Delta struct {
	// Metric is "<bench> ns/op", "<bench> allocs/op", or
	// "derived <name>".
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	Rel    float64 `json:"rel"` // (new-old)/old; 0 when old == 0
	// AdjRel is Rel with the comparison's MedianDrift divided out — the
	// bench's drift beyond what the host itself drifted. Equal to Rel
	// when normalization is off. ns/op gates test AdjRel.
	AdjRel     float64 `json:"adj_rel,omitempty"`
	Regression bool    `json:"regression"`
	// Why is non-empty exactly when Regression is true.
	Why string `json:"why,omitempty"`
	// Skipped marks metrics excluded from gating (environment mismatch,
	// noise floor) — reported for the record, never failing.
	Skipped string `json:"skipped,omitempty"`
}

// Comparison is the result of Compare.
type Comparison struct {
	// EnvMatch reports whether raw timings were comparable; when false
	// the ns/op gates were skipped.
	EnvMatch bool `json:"env_match"`
	// MedianDrift is the estimated host-speed drift (the median relative
	// ns/op change across shared benches); ns/op gates compare against
	// it when Thresholds.Normalize is set. Zero when normalization is
	// off or fewer than three benches are shared.
	MedianDrift float64 `json:"median_drift,omitempty"`
	// Deltas lists every examined metric, regressions first.
	Deltas []Delta `json:"deltas"`
	// Missing lists baseline benches absent from the new trajectory.
	Missing []string `json:"missing,omitempty"`
	// Regressions counts failing deltas (plus Missing under RequireAll).
	Regressions int `json:"regressions"`
}

// Ok reports whether the gate passes.
func (c *Comparison) Ok() bool { return c.Regressions == 0 }

func rel(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old
}

// Compare gates the new trajectory against a baseline.
func Compare(old, new *Trajectory, th Thresholds) *Comparison {
	c := &Comparison{EnvMatch: old.Env.Comparable(new.Env)}
	if th.Normalize {
		var drifts []float64
		for _, ob := range old.Results {
			if nb, ok := new.Result(ob.Name); ok && ob.NsPerOp >= th.MinNs && ob.NsPerOp > 0 {
				drifts = append(drifts, rel(ob.NsPerOp, nb.NsPerOp))
			}
		}
		if len(drifts) >= 3 {
			sort.Float64s(drifts)
			c.MedianDrift = drifts[len(drifts)/2]
			if len(drifts)%2 == 0 {
				c.MedianDrift = (c.MedianDrift + drifts[len(drifts)/2-1]) / 2
			}
		}
	}
	for _, ob := range old.Results {
		nb, ok := new.Result(ob.Name)
		if !ok {
			c.Missing = append(c.Missing, ob.Name)
			if th.RequireAll {
				c.Regressions++
			}
			continue
		}
		// ns/op: machine-bound, gated only on matching environments.
		limit := th.NsRel
		if v, ok := th.PerBench[ob.Name]; ok {
			limit = v
		}
		d := Delta{
			Metric: ob.Name + " ns/op",
			Old:    ob.NsPerOp,
			New:    nb.NsPerOp,
			Rel:    rel(ob.NsPerOp, nb.NsPerOp),
		}
		// The bench's drift beyond the host's own: (1+rel)/(1+median)-1.
		d.AdjRel = d.Rel
		if c.MedianDrift != 0 {
			d.AdjRel = (1+d.Rel)/(1+c.MedianDrift) - 1
		}
		switch {
		case limit <= 0:
			d.Skipped = "no threshold"
		case !c.EnvMatch:
			d.Skipped = "environment mismatch"
		case ob.NsPerOp < th.MinNs:
			d.Skipped = "below noise floor"
		case d.AdjRel > limit:
			d.Regression = true
			d.Why = fmt.Sprintf("+%.1f%% beyond host drift > +%.0f%% allowed", 100*d.AdjRel, 100*limit)
		}
		c.Deltas = append(c.Deltas, d)

		// allocs/op: deterministic, gated across environments, one alloc
		// of absolute slack.
		if th.AllocsRel > 0 {
			da := Delta{
				Metric: ob.Name + " allocs/op",
				Old:    float64(ob.AllocsPerOp),
				New:    float64(nb.AllocsPerOp),
				Rel:    rel(float64(ob.AllocsPerOp), float64(nb.AllocsPerOp)),
			}
			if float64(nb.AllocsPerOp) > float64(ob.AllocsPerOp)*(1+th.AllocsRel)+1 {
				da.Regression = true
				da.Why = fmt.Sprintf("%d -> %d allocs/op (+%.0f%% allowed)",
					ob.AllocsPerOp, nb.AllocsPerOp, 100*th.AllocsRel)
			}
			c.Deltas = append(c.Deltas, da)
		}
	}

	// Derived metrics: portable floors and ceilings on the new point,
	// with the baseline value reported for trend context.
	names := map[string]bool{}
	for k := range th.Min {
		names[k] = true
	}
	for k := range th.Max {
		names[k] = true
	}
	ordered := make([]string, 0, len(names))
	for k := range names {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	for _, name := range ordered {
		nv, ok := new.Derived[name]
		d := Delta{Metric: "derived " + name, Old: old.Derived[name], New: nv}
		d.Rel = rel(d.Old, d.New)
		if !ok {
			c.Missing = append(c.Missing, "derived "+name)
			if th.RequireAll {
				c.Regressions++
			}
			continue
		}
		if min, has := th.Min[name]; has && nv < min {
			d.Regression = true
			d.Why = fmt.Sprintf("%.4g below the floor %.4g", nv, min)
		}
		if max, has := th.Max[name]; has && nv > max {
			d.Regression = true
			d.Why = fmt.Sprintf("%.4g above the ceiling %.4g", nv, max)
		}
		c.Deltas = append(c.Deltas, d)
	}

	for _, d := range c.Deltas {
		if d.Regression {
			c.Regressions++
		}
	}
	sort.SliceStable(c.Deltas, func(i, j int) bool {
		return c.Deltas[i].Regression && !c.Deltas[j].Regression
	})
	return c
}

// WriteText renders the comparison as a human-readable report.
func (c *Comparison) WriteText(w io.Writer) error {
	if !c.EnvMatch {
		if _, err := fmt.Fprintf(w, "note: environment fingerprints differ; ns/op gates skipped\n"); err != nil {
			return err
		}
	}
	if c.MedianDrift != 0 {
		if _, err := fmt.Fprintf(w, "note: host drifted %+.1f%% (median across benches); ns/op gated on the residual\n",
			100*c.MedianDrift); err != nil {
			return err
		}
	}
	for _, d := range c.Deltas {
		mark := "ok  "
		note := ""
		switch {
		case d.Regression:
			mark = "FAIL"
			note = "  " + d.Why
		case d.Skipped != "":
			mark = "skip"
			note = "  (" + d.Skipped + ")"
		}
		if _, err := fmt.Fprintf(w, "%s %-42s %14.4g -> %-14.4g %+6.1f%%%s\n",
			mark, d.Metric, d.Old, d.New, 100*d.Rel, note); err != nil {
			return err
		}
	}
	for _, m := range c.Missing {
		if _, err := fmt.Fprintf(w, "miss %-42s absent from the new trajectory\n", m); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "regressions: %d\n", c.Regressions)
	return err
}
