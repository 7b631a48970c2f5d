// Command e2ebench is the repository's end-to-end benchmark. It starts
// the real daemon (`bwsched serve`), drives it over loopback with a
// seeded api/v1 request sequence from one closed-loop client on one
// keep-alive connection, checks every response against an in-process
// oracle, and prints every metric with its name and unit. With -trace 1
// it additionally replays the sequence in-process through the same
// public calls the handlers make and attributes time to layers.
//
// Build the daemon first and run from the repository root:
//
//	bash e2ebench/run.sh --workload submit-hot --seed 1 --seconds 6 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	apiv1 "bwc/api/v1"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin, out string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: submit-cold, submit-hot or simulate-analyze")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same requests")
	flag.IntVar(&cfg.seconds, "seconds", 6, "nominal run length; each workload's request count is fixed and sized to it")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced in-process replay and reports per-layer metrics instead")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bwsched", "the bwsched binary under test")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for the daemon's address file and the span dump")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setups is how many fresh daemons an untraced run sets up; setup_s is
// their median, and the last one serves the timed phase.
const setups = 5

func run(cfg config) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if err := printEnv(cfg); err != nil {
		return nil, err
	}
	if w.timed%roundSize != 0 {
		return nil, fmt.Errorf("workload %s: %d timed requests are not whole rounds of %d", w.name, w.timed, roundSize)
	}
	in, err := generate(w, cfg.seed, w.timed)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	fmt.Printf("inputs: workload=%s seed=%d prime=%d warm=%d timed=%d max_psi=%d digest=%s\n",
		w.name, cfg.seed, len(in.prime), len(in.warm), len(in.timed), in.maxPsi, in.digest)
	fmt.Printf("why: %s; psi bound %d: %s\n", w.why, w.psiBound, w.psiWhy)

	res := &result{Metrics: map[string]metric{}}
	n := setups
	if cfg.trace {
		n = 1
	}
	var setupS []float64
	var d *daemon
	var c *client
	var hint int
	for range n {
		if d != nil {
			c.close()
			d.stop()
		}
		var s float64
		d, c, s, hint, err = setUp(cfg, in, res)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	defer d.stop()
	defer c.close()

	before, err := c.stats()
	if err != nil {
		return nil, err
	}
	rssBefore, err := d.procKB("VmRSS")
	if err != nil {
		return nil, err
	}
	t := timedPhase(c, in.timed, hint, res)
	rssAfter, err := d.procKB("VmRSS")
	if err != nil {
		return nil, err
	}
	hwm, err := d.procKB("VmHWM")
	if err != nil {
		return nil, err
	}
	after, err := c.stats()
	if err != nil {
		return nil, err
	}
	c.close()
	d.stop()

	if t.broken {
		return res, nil // the connection broke; every unsent request counts as failed
	}
	fmt.Printf("timed: %d requests in %d rounds of %d over one keep-alive connection (closed loop, 1 client); "+
		"%d samples beyond p99 in each round; markers %v\n", len(in.timed), len(t.rps), roundSize,
		beyond(roundSize, 99), t.markers)
	fmt.Printf("per round: throughput_rps %.1f latency_p50_ms %.4f latency_p99_ms %.4f\n", t.rps, t.p50s, t.p99s)
	fmt.Printf("setup_s per daemon: %.4f\n", setupS)
	p50 := median(t.p50s)

	if !cfg.trace {
		res.Metrics["throughput_rps"] = metric{median(t.rps), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{p50, "ms"}
		res.Metrics["latency_p99_ms"] = metric{median(t.p99s), "ms"}
		res.Metrics["peak_rss_mb"] = metric{float64(hwm) / 1024, "MB"}
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		return res, nil
	}

	var submits float64
	for _, k := range t.markers {
		submits += float64(k)
	}
	hit, reprimed := 0.0, 0.0
	if submits > 0 {
		hit = float64(t.markers["hit"]) / submits
		reprimed = float64(t.markers["reprimed"]) / submits
	} else {
		hit = statsHitRatio(after)
	}
	res.Metrics["server.hit_ratio"] = metric{hit, "ratio"}
	res.Metrics["server.reprimed_ratio"] = metric{reprimed, "ratio"}
	res.Metrics["server.evictions"] = metric{float64(after.Evicted - before.Evicted), "count"}
	res.Metrics["server.rss_growth_kb_per_req"] = metric{float64(rssAfter-rssBefore) / float64(len(in.timed)), "KB"}

	layers, err := replay(w, in, cfg)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	res.Failed += layers.failed
	res.Attempted += layers.attempted
	res.Correct = res.Failed == 0
	for name, m := range layers.metrics {
		res.Metrics[name] = m
	}
	res.Metrics["server.unattributed_pct"] = metric{100 * (1 - layers.attributedMs/p50), "%"}
	return res, nil
}

// setUp starts a fresh daemon and sends the prime and warm-up requests,
// which leave its caches in the state the timed phase measures. It
// returns the seconds from exec to the end of the warm-up, and the mean
// response size seen, for sizing the timed phase's buffers.
func setUp(cfg config, in *inputs, res *result) (*daemon, *client, float64, int, error) {
	d, err := startDaemon(cfg.bin, cfg.out)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	c, err := dial(d.addr)
	if err != nil {
		d.stop()
		return nil, nil, 0, 0, err
	}
	hint := 0
	for _, reqs := range [][]request{in.prime, in.warm} {
		tally(res, c.drive(reqs, 4096))
		hint = max(hint, c.meanBody())
	}
	return d, c, time.Since(d.start).Seconds(), hint + hint/4, nil
}

// roundSize is the number of requests in one round of the timed phase:
// the fewest that leave ten samples beyond p99. Each timing is reported
// as the median over rounds. Host contention on a shared machine comes
// in bursts of a second or two, and the median keeps a burst from
// deciding a run.
var roundSize = minSamplesFor(99, 10)

// timedResult is the outcome of the timed phase, per round.
type timedResult struct {
	rps, p50s, p99s []float64
	markers         map[string]int
	broken          bool // the connection failed; later requests were not sent
}

// timedPhase sends reqs in rounds of roundSize. Responses are checked
// between rounds, outside the timed intervals.
func timedPhase(c *client, reqs []request, hint int, res *result) timedResult {
	t := timedResult{markers: map[string]int{}}
	for from := 0; from < len(reqs); from += roundSize {
		p := c.drive(reqs[from:from+roundSize], hint)
		tally(res, p)
		if p.broken {
			t.broken = true
			return t
		}
		t.rps = append(t.rps, float64(len(p.latMs))/p.wall.Seconds())
		t.p50s = append(t.p50s, percentile(p.latMs, 50))
		t.p99s = append(t.p99s, percentile(p.latMs, 99))
		for m, n := range p.markers {
			t.markers[m] += n
		}
	}
	return t
}

// statsHitRatio is the memo hit ratio over every live tenant.
func statsHitRatio(st *apiv1.StatsResponse) float64 {
	var hits, all int
	for _, t := range st.Tenants {
		hits += t.Hits
		all += t.Hits + t.Misses
	}
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}

// tally adds a phase's counts to the result and reports its first error.
func tally(res *result, p phase) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	res.Correct = res.Failed == 0
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %d of %d requests failed, first: %v\n", p.failed, p.attempted, p.firstErr)
	}
}

// printEnv records what the figures were measured on.
func printEnv(cfg config) error {
	info, err := buildinfo.ReadFile(cfg.bin)
	if err != nil {
		return fmt.Errorf("read build info of %s: %w", cfg.bin, err)
	}
	commit := ""
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			commit = s.Value
		}
	}
	if commit == "" {
		// Built outside a git checkout: name the source by its content.
		if commit, err = sourceDigest("."); err != nil {
			return err
		}
		commit = "source-sha256:" + commit
	}
	fmt.Printf("env: go=%s daemon_go=%s GOMAXPROCS=%d nproc=%d GOOS=%s GOARCH=%s commit=%s seconds=%d\n",
		runtime.Version(), info.GoVersion, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH,
		commit, cfg.seconds)
	return nil
}

// sourceDigest hashes the repository's Go sources and module file, in
// path order, leaving out the benchmark and build outputs.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "e2ebench") {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}
