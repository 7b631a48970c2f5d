package analyze_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/obs"
	"bwc/internal/obs/analyze"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/sim"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_reports.sha256")

// goldenTasks and goldenMaxPsi size the corpus runs: 120 tasks, as a
// simulate request with analyze does, on schedules whose largest bunch
// stays at or below 2^12 slots.
const (
	goldenTasks  = 120
	goldenMaxPsi = 1 << 12
)

// goldenCorpus replays the analyzer over a fixed corpus and returns one
// JSON document per output, keyed by case name, plus every report it
// produced (for the verdict tally). The corpus covers every treegen
// family at n ∈ {8, 16, 32} and seeds 1–3, forward and uniform-return-1/2
// platforms, interleaved and block schedules. Each run yields its live
// report, the Chrome-trace and JSONL round trips, the report on the
// second half clipped out with ClipEvidence, and WindowStats over four
// windows. On a subset, the run as it stood at its stop (before the
// wind-down drained) and degraded-physics runs under a stale schedule
// follow: a slow link, a slow processor, and a slow link whose re-solved
// schedule is swapped in half-way.
//
// Every run is also analyzed from its record (analyze.FromRun), and each
// such output must be byte-identical to the one its spans give: the live
// report, the reports without a schedule and without a stop, both
// clipped halves (the first without a stop, so the clipped horizon
// bounds its windows), the windows, and the dynamic runs' live reports
// and windows. It returns how many of these pairs it compared.
func goldenCorpus(t *testing.T) (map[string][]byte, []*analyze.HealthReport, int) {
	t.Helper()
	out := map[string][]byte{}
	var reports []*analyze.HealthReport
	marshal := func(name string, v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return b
	}
	put := func(name string, v any) {
		out[name] = marshal(name, v)
		if rep, ok := v.(*analyze.HealthReport); ok {
			reports = append(reports, rep)
		}
	}
	pairs := 0
	same := func(name string, spans, record any) {
		pairs++
		if b, r := marshal(name, spans), marshal(name, record); !bytes.Equal(b, r) {
			t.Errorf("%s: record evidence gives\n%s\nspan evidence gives\n%s", name, r, b)
		}
	}
	c := goldenCase{put: put, same: same}
	half := rat.New(1, 2)
	for _, kind := range treegen.Kinds {
		for _, n := range []int{8, 16, 32} {
			for seed := int64(1); seed <= 3; seed++ {
				base := treegen.Generate(kind, n, seed)
				for _, ret := range []string{"fwd", "ret"} {
					tr := base
					if ret == "ret" {
						var err error
						if tr, err = base.WithUniformReturnTime(half); err != nil {
							t.Fatal(err)
						}
					}
					res := bwfirst.Solve(tr)
					for _, block := range []bool{false, true} {
						s, ok := goldenSchedule(t, res, block)
						if !ok {
							continue
						}
						name := fmt.Sprintf("%s/n%d/s%d/%s/%s", kind, n, seed, ret, map[bool]string{false: "il", true: "blk"}[block])
						live, stop := goldenStatic(t, name, s, c)
						if !block && seed == 1 && n <= 16 {
							put(name+"/atstop", analyze.Analyze(atStop(live, stop), analyze.Options{Schedule: s, Stop: stop}))
							goldenDynamic(t, "dyn/"+name, s, c)
						}
					}
				}
			}
		}
	}
	return out, reports, pairs
}

// goldenCase is how a corpus run reports: put records a digested output,
// and same asserts that record and span evidence agree on one.
type goldenCase struct {
	put  func(name string, v any)
	same func(name string, spans, record any)
}

// goldenSchedule builds res's schedule, reporting false when its largest
// bunch exceeds the corpus bound.
func goldenSchedule(t *testing.T, res *bwfirst.Result, block bool) (*sched.Schedule, bool) {
	t.Helper()
	s, err := sched.Build(res, sched.Options{Block: block})
	if err != nil {
		t.Fatal(err)
	}
	limit := big.NewInt(goldenMaxPsi)
	for i := range s.Nodes {
		if b := s.Nodes[i].Bunch; s.Nodes[i].Active && b != nil && b.Cmp(limit) > 0 {
			return nil, false
		}
	}
	return s, true
}

// goldenStatic runs one 120-task observed simulation and records its five
// outputs. It returns the live evidence and the run's stop.
func goldenStatic(t *testing.T, name string, s *sched.Schedule, c goldenCase) (*analyze.Evidence, rat.R) {
	t.Helper()
	sc := obs.New()
	run, err := sim.Simulate(s, sim.Options{Tasks: goldenTasks, Obs: sc})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	stop := run.Stats.StopAt
	opt := analyze.Options{Schedule: s, Stop: stop}
	live, rec := analyze.FromScope(sc), analyze.FromRun(run.Trace, sc)
	report := analyze.Analyze(live, opt)
	c.put(name+"/live", report)
	c.same(name+"/live", report, analyze.Analyze(rec, opt))
	c.same(name+"/nosched", analyze.Analyze(live, analyze.Options{}), analyze.Analyze(rec, analyze.Options{}))
	nostop := analyze.Options{Schedule: s}
	c.same(name+"/nostop", analyze.Analyze(live, nostop), analyze.Analyze(rec, nostop))

	var chrome, jsonl bytes.Buffer
	if err := sc.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := sc.WriteSpansJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		buf  *bytes.Buffer
	}{{"chrome", &chrome}, {"jsonl", &jsonl}} {
		ev, err := analyze.ReadEvidence(f.buf)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, f.name, err)
		}
		c.put(name+"/"+f.name, analyze.Analyze(ev, opt))
	}

	mid := stop.Div(rat.Two)
	end := stop
	for _, sp := range live.Spans {
		end = rat.Max(end, sp.End)
	}
	for _, half := range []struct {
		name           string
		from, to, stop rat.R
		digest         bool
	}{{"/clip0", rat.Zero, mid, rat.Zero, false}, {"/clip", mid, end, stop.Sub(mid), true}} {
		hopt := analyze.Options{Schedule: s, Stop: half.stop}
		clipped := analyze.Analyze(analyze.ClipEvidence(live, half.from, half.to), hopt)
		if half.digest {
			c.put(name+half.name, clipped)
		}
		c.same(name+half.name, clipped, analyze.Analyze(analyze.ClipEvidence(rec, half.from, half.to), hopt))
	}

	if stop.IsPos() {
		wopt := analyze.WindowOptions{Schedule: s, Window: stop.Div(rat.FromInt(4)), End: stop}
		windows := analyze.WindowStats(live, wopt)
		c.put(name+"/windows", windows)
		c.same(name+"/windows", windows, analyze.WindowStats(rec, wopt))
	}
	return live, stop
}

// atStop is the evidence as a live observer would have held it at the
// stop instant, before the wind-down drained: spans clipped to [0, stop)
// and the completion counter short by every task that finished later.
// Task conservation must FAIL on it.
func atStop(ev *analyze.Evidence, stop rat.R) *analyze.Evidence {
	out := analyze.ClipEvidence(ev, rat.Zero, stop)
	done := 0
	for _, sp := range ev.Spans {
		if strings.HasSuffix(sp.Track, "/C") && sp.End.LessEq(stop) {
			done++
		}
	}
	for _, m := range ev.Metrics {
		if m.Name == "bwc_sim_tasks_completed_total" {
			m.Points = []obs.Point{{Value: float64(done)}}
		}
		out.Metrics = append(out.Metrics, m)
	}
	return out
}

// goldenDynamic runs s, unchanged, against degraded physics and records
// each run's report and windows against the stale schedule: the busiest
// root link three times slower, the busiest processor twice slower, and
// the slow link again with the schedule re-solved for it activated at
// the stop's midpoint (the engine re-routes the tasks it strands).
func goldenDynamic(t *testing.T, name string, s *sched.Schedule, c goldenCase) {
	t.Helper()
	static, err := sim.Simulate(s, sim.Options{Tasks: goldenTasks})
	if err != nil {
		t.Fatal(err)
	}
	stop := static.Stats.StopAt
	if !stop.IsPos() {
		return
	}
	tr := s.Tree
	link, cpu := busiestLink(s), busiestCPU(s)
	type variant struct {
		name   string
		slow   *tree.Tree
		resolv bool
	}
	var vs []variant
	if link != tree.None {
		slow, err := tr.WithCommTime(link, tr.CommTime(link).Mul(rat.FromInt(3)))
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, variant{"link", slow, false}, variant{"swap", slow, true})
	}
	if cpu != tree.None {
		w, _ := tr.ProcTime(cpu)
		slow, err := tr.WithProcTime(cpu, w.Mul(rat.Two))
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, variant{"cpu", slow, false})
	}
	for _, v := range vs {
		var phases []sim.Phase
		if v.resolv {
			next, ok := goldenSchedule(t, bwfirst.Solve(v.slow), false)
			if !ok {
				continue
			}
			phases = append(phases, sim.Phase{At: stop.Div(rat.Two), Schedule: next})
		}
		sc := obs.New()
		run, err := sim.Simulate(s, sim.Options{
			Stop:    stop,
			Phases:  phases,
			Physics: []sim.PhysicsChange{{Tree: v.slow}},
			Obs:     sc,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", name, v.name, err)
		}
		ev, rec := analyze.FromScope(sc), analyze.FromRun(run.Trace, sc)
		opt := analyze.Options{Schedule: s, Stop: stop}
		report := analyze.Analyze(ev, opt)
		c.put(name+"/"+v.name+"/live", report)
		c.same(name+"/"+v.name+"/live", report, analyze.Analyze(rec, opt))
		wopt := analyze.WindowOptions{Schedule: s, Window: stop.Div(rat.FromInt(4)), End: stop}
		windows := analyze.WindowStats(ev, wopt)
		c.put(name+"/"+v.name+"/windows", windows)
		c.same(name+"/"+v.name+"/windows", windows, analyze.WindowStats(rec, wopt))
	}
}

// busiestLink is the root child with the largest scheduled send rate
// (tree.None when the root sends nothing).
func busiestLink(s *sched.Schedule) tree.NodeID {
	root := s.Tree.Root()
	best, bestRate := tree.None, rat.Zero
	for j, eta := range s.Nodes[root].Sends {
		if bestRate.Less(eta) {
			best, bestRate = s.Tree.Children(root)[j], eta
		}
	}
	return best
}

// busiestCPU is the computing node with the largest α (tree.None when
// no node computes).
func busiestCPU(s *sched.Schedule) tree.NodeID {
	best, bestRate := tree.None, rat.Zero
	for i := range s.Nodes {
		if ns := &s.Nodes[i]; ns.Active && bestRate.Less(ns.Alpha) {
			best, bestRate = ns.Node, ns.Alpha
		}
	}
	return best
}

// TestGoldenReports pins the SHA-256 of every corpus output's JSON, so
// any change to a verdict, detail or evidence line — or to a window
// statistic — fails here. Run with -update to re-record.
func TestGoldenReports(t *testing.T) {
	outputs, reports, pairs := goldenCorpus(t)
	got := make(map[string]string, len(outputs))
	for name, b := range outputs {
		sum := sha256.Sum256(b)
		got[name] = hex.EncodeToString(sum[:])
	}
	path := filepath.Join("testdata", "golden_reports.sha256")
	if *updateGolden {
		writeDigests(t, path, got)
	}
	want := readDigests(t, path)
	if len(want) != len(got) {
		t.Errorf("corpus has %d outputs, golden file %d", len(got), len(want))
	}
	mismatches := 0
	for name, sum := range got {
		if w, ok := want[name]; !ok || w != sum {
			mismatches++
			if mismatches <= 10 {
				t.Errorf("%s: digest %s, golden %q\n%s", name, sum, w, outputs[name])
			}
		}
	}
	if mismatches > 10 {
		t.Errorf("... %d mismatching outputs in all", mismatches)
	}

	// The corpus must exercise every failure path the analyzer has,
	// except single-port (the simulator never overlaps a port; the
	// out-of-order evidence test covers that FAIL).
	tally := map[string]map[analyze.Verdict]int{}
	for _, rep := range reports {
		for _, c := range rep.Checks {
			if tally[c.Name] == nil {
				tally[c.Name] = map[analyze.Verdict]int{}
			}
			tally[c.Name][c.Verdict]++
		}
	}
	names := make([]string, 0, len(tally))
	for name := range tally {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := tally[name]
		t.Logf("%-24s PASS %4d  FAIL %4d  SKIP %4d", name, v[analyze.Pass], v[analyze.Fail], v[analyze.Skip])
		if name != "single-port" && v[analyze.Fail] == 0 {
			t.Errorf("check %s never FAILs in the corpus", name)
		}
	}
	t.Logf("%d outputs, %d reports, %d record-vs-span comparisons", len(outputs), len(reports), pairs)
}

func writeDigests(t *testing.T, path string, sums map[string]string) {
	t.Helper()
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", sums[name], name)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden digests missing (run with -update): %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
