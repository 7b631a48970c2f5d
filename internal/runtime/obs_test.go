package runtime

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bwc/internal/obs"
	"bwc/internal/paperexample"
	"bwc/internal/rat"
	"bwc/internal/sim"
	"bwc/internal/tree"
)

// TestExecuteObserved: the per-node executed counters must equal the
// Report exactly, and every delegated task must leave one transfer span
// on its edge track.
func TestExecuteObserved(t *testing.T) {
	tr := paperexample.Tree()
	s := schedule(t, tr)
	const n = 40

	sc := obs.New()
	rep, err := Execute(Config{Schedule: s, Tasks: n, Scale: 50 * time.Microsecond, Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	reg := sc.Registry()
	for id := range rep.Executed {
		name := tr.Name(tree.NodeID(id))
		got := reg.CounterLabeled("bwc_runtime_tasks_executed_total", "", "node", name).Value()
		if got != int64(rep.Executed[id]) {
			t.Errorf("node %s: counter %d, report %d", name, got, rep.Executed[id])
		}
	}

	// Root computed rep.Executed[root] tasks locally; the other n-root
	// tasks each crossed at least the root's outgoing edge, so the root's
	// edge tracks together hold exactly that many spans.
	root := tr.Root()
	fromRoot := 0
	for _, sp := range sc.Spans() {
		if strings.HasPrefix(sp.Track, tr.Name(root)+"→") {
			fromRoot++
			if sp.End.Less(sp.Start) {
				t.Fatalf("span %q ends before it starts", sp.Name)
			}
		}
	}
	if want := n - rep.Executed[root]; fromRoot != want {
		t.Errorf("%d transfer spans out of the root, want %d", fromRoot, want)
	}
}

// TestServeMetrics scrapes a live endpoint mid-run.
func TestServeMetrics(t *testing.T) {
	sc := obs.New()
	sc.Registry().Counter("bwc_probe_total", "test probe").Add(7)

	ms, err := ServeMetrics(sc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", ms.Addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "bwc_probe_total 7") {
		t.Fatalf("metrics body missing counter:\n%s", body)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", ms.Addr))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}

	if _, err := ServeMetrics(nil, "127.0.0.1:0"); err == nil {
		t.Fatal("nil scope accepted")
	}
}

// TestConcurrentScrape hammers /metrics from many goroutines while
// instruments keep writing — the data-race gate for the whole metrics
// pipeline (run under -race by the Makefile).
func TestConcurrentScrape(t *testing.T) {
	sc := obs.New()
	if _, err := sim.Simulate(schedule(t, paperexample.Tree()), sim.Options{Stop: rat.FromInt(200), Obs: sc}); err != nil {
		t.Fatal(err)
	}
	ms, err := ServeMetrics(sc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	reg := sc.Registry()
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			ctr := reg.Counter("bwc_scrape_churn_total", "")
			g := reg.GaugeLabeled("bwc_node_buffer_tasks", "", "node", "P1")
			h := reg.HistogramLabeled("bwc_scrape_hist", "", []float64{1, 2, 4}, "w", fmt.Sprint(w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctr.Inc()
				g.Set(int64(i % 3))
				h.Observe(float64(i % 5))
				h.Quantile(0.99)
			}
		}(w)
	}

	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(fmt.Sprintf("http://%s/metrics", ms.Addr))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()
}
