package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bwc"
)

// platformFile writes the paper platform to a temp file and returns its
// path.
func platformFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "platform.txt")
	if err := os.WriteFile(path, []byte(bwc.FormatPlatform(bwc.PaperExampleTree())), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture redirects stdout while fn runs and returns what was printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errCh := make(chan error, 1)
	outCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 1<<20)
		n := 0
		for {
			m, err := r.Read(buf[n:])
			n += m
			if err != nil {
				break
			}
		}
		outCh <- string(buf[:n])
	}()
	errCh <- fn()
	w.Close()
	os.Stdout = old
	if err := <-errCh; err != nil {
		t.Fatalf("command failed: %v", err)
	}
	return <-outCh
}

func TestCmdThroughput(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error { return cmdThroughput([]string{"-f", f, "-tx"}) })
	for _, frag := range []string{"throughput:  10/9", "unused:", "P0 -> P1", "bottlenecks:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestCmdSchedule(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error { return cmdSchedule([]string{"-f", f}) })
	for _, frag := range []string{"tree period:     360", "rootless period: 40", "P1: every"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestCmdSimulate(t *testing.T) {
	f := platformFile(t)
	svg := filepath.Join(t.TempDir(), "g.svg")
	out := capture(t, func() error {
		return cmdSimulate([]string{"-f", f, "-stop", "115", "-ascii", "-gantt", svg})
	})
	for _, frag := range []string{"wind-down:    93/10", "max buffered: 3", "P0    S"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
	data, err := os.ReadFile(svg)
	if err != nil || !strings.Contains(string(data), "<svg") {
		t.Fatalf("svg not written: %v", err)
	}
}

func TestCmdVerify(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error { return cmdVerify([]string{"-f", f}) })
	if !strings.Contains(out, "all agree: throughput 10/9") {
		t.Fatalf("output: %s", out)
	}
}

// TestCmdVerifyResultReturn: on a result-return platform verify names
// only the oracles that ran (bottom-up has no return model) and prints
// both values when the greedy falls short of the LP optimum.
func TestCmdVerifyResultReturn(t *testing.T) {
	for _, tc := range []struct{ platform, want string }{
		{"P0 - - inf -\nP1 P0 1/2 1 1\nP2 P0 1/2 1 1\n",
			"OK: BW-First, the distributed protocol and the exact LP all agree\n" +
				"on this result-return platform: throughput 1 tasks/unit\n"},
		// The greedy fills A's cheaper round trip and exhausts the root's
		// send port; the LP splits both ports between A and B.
		{"R - - inf\nA R 1 1/100 1/10\nB R 1/5 1/100 1\n",
			"OK: BW-First and the distributed protocol agree on this result-return\n" +
				"platform: greedy throughput 1 tasks/unit, exact LP optimum 85/49\n"},
	} {
		f := filepath.Join(t.TempDir(), "platform.txt")
		if err := os.WriteFile(f, []byte(tc.platform), 0o644); err != nil {
			t.Fatal(err)
		}
		if out := capture(t, func() error { return cmdVerify([]string{"-f", f}) }); out != tc.want {
			t.Fatalf("output:\n%s\nwant:\n%s", out, tc.want)
		}
	}
}

func TestCmdCompare(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error {
		return cmdCompare([]string{"-f", f, "-stop", "80", "-interruptible"})
	})
	if !strings.Contains(out, "event-driven") || !strings.Contains(out, "demand-driven") {
		t.Fatalf("output: %s", out)
	}
}

func TestCmdGen(t *testing.T) {
	out := capture(t, func() error { return cmdGen([]string{"-kind", "seti", "-n", "12", "-seed", "4"}) })
	tr, err := bwc.ParsePlatformString(out)
	if err != nil {
		t.Fatalf("gen output unparseable: %v\n%s", err, out)
	}
	if tr.Len() != 12 {
		t.Fatalf("generated %d nodes", tr.Len())
	}
	if err := cmdGen([]string{"-kind", "bogus"}); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if err := cmdGen([]string{"-n", "0"}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestCmdDot(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error { return cmdDot([]string{"-f", f, "-used"}) })
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "filled") {
		t.Fatalf("output: %s", out)
	}
}

func TestCmdMakespan(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error { return cmdMakespan([]string{"-f", f, "-n", "100", "-demand"}) })
	for _, frag := range []string{"lower bound:   90", "event-driven:", "demand-driven:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestCmdInfinite(t *testing.T) {
	out := capture(t, func() error { return cmdInfinite([]string{"-k", "1", "-w", "4", "-c", "1/2", "-depth", "3"}) })
	if !strings.Contains(out, "rate = 1/w + 1/c = 9/4") {
		t.Fatalf("output: %s", out)
	}
	if err := cmdInfinite([]string{"-w", "x"}); err == nil {
		t.Fatal("bad w accepted")
	}
	if err := cmdInfinite([]string{"-c", "x"}); err == nil {
		t.Fatal("bad c accepted")
	}
	if err := cmdInfinite([]string{"-k", "0"}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestLoadPlatformErrors(t *testing.T) {
	if _, err := loadPlatform(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("not a platform"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadPlatform(bad); err == nil {
		t.Fatal("malformed platform accepted")
	}
	for _, cmd := range []func([]string) error{cmdThroughput, cmdSchedule, cmdVerify, cmdDot, cmdMakespan} {
		if err := cmd([]string{"-f", bad}); err == nil {
			t.Fatal("command accepted malformed platform")
		}
	}
}

func TestCmdSimulateBadFlags(t *testing.T) {
	f := platformFile(t)
	if err := cmdSimulate([]string{"-f", f, "-stop", "xx"}); err == nil {
		t.Fatal("bad stop accepted")
	}
	if err := cmdSimulate([]string{"-f", f}); err == nil {
		t.Fatal("no stopping rule accepted")
	}
	if err := cmdCompare([]string{"-f", f, "-stop", "zz"}); err == nil {
		t.Fatal("bad compare stop accepted")
	}
}

func TestCmdOverlay(t *testing.T) {
	f := filepath.Join(t.TempDir(), "graph.txt")
	g := "node m 2\nswitch core\nnode w1 3\nnode w2 1/2\nlink m core 1/2\nlink core w1 1\nlink core w2 2\nlink w1 w2 1\nmaster m\n"
	if err := os.WriteFile(f, []byte(g), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error { return cmdOverlay([]string{"-f", f}) })
	for _, frag := range []string{"graph optimum: 3/2", "greedy", "100.0%"} {
		if !strings.Contains(out, frag) {
			t.Errorf("overlay output missing %q:\n%s", frag, out)
		}
	}
	// Emitting an overlay produces a parseable platform.
	out = capture(t, func() error { return cmdOverlay([]string{"-f", f, "-emit", "greedy"}) })
	tr, err := bwc.ParsePlatformString(out)
	if err != nil {
		t.Fatalf("emitted overlay unparseable: %v\n%s", err, out)
	}
	if tr.Len() != 4 {
		t.Fatalf("overlay has %d nodes", tr.Len())
	}
	if err := cmdOverlay([]string{"-f", f, "-emit", "nope"}); err == nil {
		t.Fatal("unknown overlay accepted")
	}
	if err := cmdOverlay([]string{"-f", filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Fatal("missing graph accepted")
	}
}

// TestCmdDynamic pins the full transcript of the two documented
// scenarios: a degradation renegotiated after a 40-unit lag, and the
// stale schedule CI feeds to the analyzer (the switch at 1000 falls
// after the stop, so the old schedule runs on the degraded link to the
// end).
func TestCmdDynamic(t *testing.T) {
	f := platformFile(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-degrade", "P1=4", "-at", "120", "-lag", "40", "-stop", "400"}, `rates:        10/9 before, 137/180 after the change
change at:    120; schedules switch at 160 (lag 40)
tasks:        360 generated, 360 completed, 0 dropped
wind-down:    823/10; max buffered 49
`},
		{[]string{"-degrade", "P4=6", "-at", "0", "-lag", "1000", "-stop", "360"}, `rates:        10/9 before, 37/36 after the change
change at:    0; schedules switch at 1000 (lag 1000)
tasks:        400 generated, 400 completed, 0 dropped
wind-down:    2773/10; max buffered 57
`},
		// A switch at t = 0 runs the re-solved schedule from the start:
		// the run of 'simulate -stop 400' on the degraded platform.
		{[]string{"-degrade", "P1=4", "-at", "0", "-lag", "0", "-stop", "400"}, `rates:        10/9 before, 137/180 after the change
change at:    0; schedules switch at 0 (lag 0)
tasks:        304 generated, 304 completed, 0 dropped
wind-down:    1364/109; max buffered 4
`},
	} {
		out := capture(t, func() error { return cmdDynamic(append([]string{"-f", f}, c.args...)) })
		if out != c.want {
			t.Errorf("dynamic %v:\n%s\nwant:\n%s", c.args, out, c.want)
		}
	}
	bad := [][]string{
		{"-f", f},                                   // no degrade
		{"-f", f, "-degrade", "ZZ=4"},               // unknown node
		{"-f", f, "-degrade", "P1=x"},               // bad comm
		{"-f", f, "-degrade", "P1=4", "-at", "x"},   // bad at
		{"-f", f, "-degrade", "P1=4", "-lag", "x"},  // bad lag
		{"-f", f, "-degrade", "P1=4", "-stop", "x"}, // bad stop
		{"-f", f, "-degrade", "P0=4"},               // root has no link
	}
	for i, args := range bad {
		if err := cmdDynamic(args); err == nil {
			t.Errorf("bad case %d accepted", i)
		}
	}
}

func TestCmdUpgrade(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error { return cmdUpgrade([]string{"-f", f, "-top", "3"}) })
	for _, frag := range []string{"current throughput: 10/9", "gain", "link"} {
		if !strings.Contains(out, frag) {
			t.Errorf("upgrade output missing %q:\n%s", frag, out)
		}
	}
	if err := cmdUpgrade([]string{"-f", f, "-speedup", "1"}); err == nil {
		t.Fatal("speedup 1 accepted")
	}
	if err := cmdUpgrade([]string{"-f", f, "-speedup", "zz"}); err == nil {
		t.Fatal("bad speedup accepted")
	}
}

func TestCmdScheduleQuantize(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error { return cmdSchedule([]string{"-f", f, "-quantize", "40"}) })
	if !strings.Contains(out, "quantized to D=40") {
		t.Fatalf("output: %s", out)
	}
}

func TestCmdDotRates(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error { return cmdDot([]string{"-f", f, "-rates"}) })
	for _, frag := range []string{"digraph schedule", `α=1/9`, "1/2 / 1/2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("dot -rates missing %q:\n%s", frag, out)
		}
	}
}

func TestCmdExecute(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error {
		return cmdExecute([]string{"-f", f, "-n", "20", "-scale", "50us"})
	})
	if !strings.Contains(out, "executed 20 tasks") {
		t.Fatalf("output: %s", out)
	}
}

func TestCmdSimulateBuffers(t *testing.T) {
	f := platformFile(t)
	out := capture(t, func() error {
		return cmdSimulate([]string{"-f", f, "-stop", "80", "-ascii", "-buffers", "-window", "40"})
	})
	if !strings.Contains(out, "B ") {
		t.Fatalf("no buffer rows:\n%s", out)
	}
}
