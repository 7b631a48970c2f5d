package analyze

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"bwc/internal/obs"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/tree"
)

// netReplay is what every replay of a node's ±1 buffer steps samples:
// the net step at each instant, in the order the steps list them.
func netReplay(ds []heldDelta) []string {
	var out []string
	for i := 0; i < len(ds); {
		at, net := ds[i].at, 0
		for ; i < len(ds) && ds[i].at.Equal(at); i++ {
			net += ds[i].d
		}
		out = append(out, fmt.Sprintf("%s:%+d", at, net))
	}
	return out
}

// overlappingRecv returns the paper run's JSONL export with one more
// receive span on P1's port: it starts with P1's first receive and ends
// 50 units after it, so P1's receive spans overlap and their ends come
// out of start order.
func overlappingRecv(t testing.TB, sc *obs.Scope) []byte {
	t.Helper()
	var first obs.Span
	for _, sp := range sc.Spans() {
		if sp.Track == "P1/R" {
			first = sp
			break
		}
	}
	extra := obs.New()
	extra.AddSpan(obs.Span{Name: first.Name, Track: first.Track, Start: first.Start, End: first.End.Add(rat.FromInt(50))})
	var buf bytes.Buffer
	if err := sc.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n := strings.Count(buf.String(), "\n")
	var xb bytes.Buffer
	if err := extra.WriteSpansJSONL(&xb); err != nil {
		t.Fatal(err)
	}
	line := strings.Replace(xb.String(), `"id":1,`, fmt.Sprintf(`"id":%d,`, n+1), 1)
	return append(buf.Bytes(), line...)
}

// TestMergedReplayMatchesSorted: each node's buffer replay, merged from
// its three time-ordered lists, nets to the sorted replay at every
// instant. That holds on a simulator run, where the merge runs, and on
// evidence whose receive spans overlap, where the receive ends are out
// of order and the replay must fall back to the sort.
func TestMergedReplayMatchesSorted(t *testing.T) {
	s, sc := paperRun(t, rat.FromInt(200))
	overlap, err := ReadEvidence(bytes.NewReader(overlappingRecv(t, sc)))
	if err != nil {
		t.Fatal(err)
	}
	for name, ev := range map[string]*Evidence{"run": FromScope(sc), "overlapping receives": overlap} {
		a := &analysis{ev: ev, opt: Options{Schedule: s}.withDefaults(), s: s, t: s.Tree}
		a.parse()
		outOfOrder := 0
		for i := range a.nodes {
			ne := &a.nodes[i]
			if !slices.IsSortedFunc(ne.recv, func(p, q int32) int { return a.end(p).Cmp(a.end(q)) }) {
				outOfOrder++
			}
			got := netReplay(a.held(tree.NodeID(i)))
			want := netReplay(a.sortedHeld(nil, ne))
			if !slices.Equal(got, want) {
				t.Fatalf("%s, node %s: merged replay\n%v\nsorted replay\n%v", name, a.t.Name(tree.NodeID(i)), got, want)
			}
		}
		if wantOut := name != "run"; (outOfOrder > 0) != wantOut {
			t.Fatalf("%s: %d nodes with receive ends out of order", name, outOfOrder)
		}
	}
}

// FuzzAnalyzeEvidence feeds arbitrary bytes through ReadEvidence and,
// when they parse, through Analyze and WindowStats with the paper's
// schedule — the input path of `bwsched analyze`. Neither may panic. The
// seeds are exports of a short paper run (stop 40), so mutated inputs
// stay small enough to minimize quickly.
func FuzzAnalyzeEvidence(f *testing.F) {
	s, sc := paperRun(f, rat.FromInt(40))
	var jsonl, chrome bytes.Buffer
	if err := sc.WriteSpansJSONL(&jsonl); err != nil {
		f.Fatal(err)
	}
	if err := sc.WriteChromeTrace(&chrome); err != nil {
		f.Fatal(err)
	}
	f.Add(jsonl.Bytes())
	f.Add(chrome.Bytes())
	f.Add(overlappingRecv(f, sc))
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := ReadEvidence(bytes.NewReader(data))
		if err != nil {
			return
		}
		fuzzAnalyze(ev, s)
	})
}

func fuzzAnalyze(ev *Evidence, s *sched.Schedule) {
	Analyze(ev, Options{Schedule: s})
	Analyze(ev, Options{Schedule: s, Stop: rat.FromInt(40)})
	WindowStats(ev, WindowOptions{Schedule: s, Window: rat.FromInt(10), End: rat.FromInt(40)})
}

// TestFarHorizonIsBounded: one span that ends far past the run (a
// corrupt or hand-edited file) must not size the windowed checks' count
// arrays by its end. Analyzed without a stop, the horizon is 10^11 time
// units; every windowed check scans at most maxWindows windows.
func TestFarHorizonIsBounded(t *testing.T) {
	s, sc := paperRun(t, rat.FromInt(40))
	var buf bytes.Buffer
	if err := sc.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"type":"span","id":100000,"name":"batch","track":"des","start":"0","end":"100000000000"}` + "\n")
	ev, err := ReadEvidence(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(ev, Options{Schedule: s})
	c := rep.Check("throughput-conformance")
	if c.Verdict != Fail || len(c.Evidence) == 0 {
		t.Fatalf("throughput-conformance = %+v, want a FAIL over the empty tail", c)
	}
	for _, line := range c.Evidence {
		_, list, _ := strings.Cut(line, "windows [")
		list, _, _ = strings.Cut(list, "]")
		if n := len(strings.Fields(list)); n != maxWindows {
			t.Fatalf("evidence line lists %d windows, want the %d the check scans", n, maxWindows)
		}
	}
}
