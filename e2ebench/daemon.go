package main

// One daemon per set-up: `bwsched serve` on a free loopback port,
// driven over one keep-alive connection by a closed-loop client that
// sends the pre-encoded requests one at a time.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	apiv1 "bwc/api/v1"
)

// daemon is one running `bwsched serve` process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	start   time.Time // when it was exec'd
	stopped bool
}

// startDaemon execs bin and waits for the address it writes once bound.
func startDaemon(bin, dir string) (*daemon, error) {
	addrFile := filepath.Join(dir, fmt.Sprintf("addr-%d", os.Getpid()))
	_ = os.Remove(addrFile) // a stale file from an earlier run would be read as this daemon's
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stderr = os.Stderr
	d := &daemon{cmd: cmd, start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		b, err := os.ReadFile(addrFile)
		if err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.addr = strings.TrimSpace(string(b))
			_ = os.Remove(addrFile)
			return d, nil
		}
	}
	d.stop()
	return nil, errors.New("daemon did not report its address within 30 s")
}

// stop sends SIGTERM and waits for the process to exit, killing it if
// it has not within five seconds. Stopping twice is a no-op.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// procKB reads one "<key>: <n> kB" line of the daemon's /proc status.
func (d *daemon) procKB(key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, d.cmd.Process.Pid)
}

// client is one keep-alive HTTP/1.1 connection to the daemon.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	// arena holds every response body of the current phase back to back;
	// ends[i] is where the i-th body ends.
	arena bytes.Buffer
	ends  []int
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial daemon: %w", err)
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { _ = c.conn.Close() }

// reset empties the arena, keeping room for n bodies of size bytes in
// all.
func (c *client) reset(n, size int) {
	c.arena.Reset()
	c.arena.Grow(size)
	c.ends = make([]int, 0, n)
}

// body returns the i-th response body of the current phase.
func (c *client) body(i int) []byte {
	from := 0
	if i > 0 {
		from = c.ends[i-1]
	}
	return c.arena.Bytes()[from:c.ends[i]]
}

// do sends one raw request and reads its whole response into the arena.
func (c *client) do(raw []byte) (status int, err error) {
	if _, err := c.conn.Write(raw); err != nil {
		return 0, fmt.Errorf("send: %w", err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, fmt.Errorf("read response: %w", err)
	}
	_, err = c.arena.ReadFrom(resp.Body)
	resp.Body.Close()
	c.ends = append(c.ends, c.arena.Len())
	if err != nil {
		return 0, fmt.Errorf("read response body: %w", err)
	}
	return resp.StatusCode, nil
}

// stats fetches GET /api/v1/stats.
func (c *client) stats() (*apiv1.StatsResponse, error) {
	raw := []byte("GET " + apiv1.PathPrefix + "/stats HTTP/1.1\r\nHost: bwschedd\r\n\r\n")
	c.reset(1, 4096)
	status, err := c.do(raw)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("stats: HTTP %d", status)
	}
	var st apiv1.StatsResponse
	if err := json.Unmarshal(c.body(0), &st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &st, nil
}

// phase is the outcome of sending one request sequence.
type phase struct {
	attempted, failed int
	latMs             []float64 // per request, send to last response byte
	wall              time.Duration
	markers           map[string]int // submit cache markers seen
	firstErr          error
	broken            bool // the connection failed; later requests were not sent
}

// drive sends reqs one at a time, each after the previous response has
// been read, then checks every response against its oracle. Checking
// waits until the sequence is done so the client's decoding stays out
// of the timed interval.
func (c *client) drive(reqs []request, bodyHint int) phase {
	p := phase{attempted: len(reqs), latMs: make([]float64, len(reqs)), markers: map[string]int{}}
	statuses := make([]int, len(reqs))
	c.reset(len(reqs), len(reqs)*bodyHint)
	begin := time.Now()
	for i := range reqs {
		t := time.Now()
		status, err := c.do(reqs[i].raw)
		p.latMs[i] = float64(time.Since(t).Nanoseconds()) / 1e6
		if err != nil {
			// The connection is unusable; the rest of the sequence fails.
			p.wall = time.Since(begin)
			p.failed = len(reqs) - i
			p.firstErr = fmt.Errorf("request %d: %w", i, err)
			p.latMs = p.latMs[:i]
			p.broken = true
			return p
		}
		statuses[i] = status
	}
	p.wall = time.Since(begin)
	for i := range reqs {
		body := c.body(i)
		if err := check(&reqs[i], statuses[i], body); err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("request %d (%s): %w", i, opPaths[reqs[i].op], err)
			}
			continue
		}
		if reqs[i].op == opSubmit {
			var m struct {
				Cache string `json:"cache"`
			}
			_ = json.Unmarshal(body, &m) // check has already decoded it
			p.markers[m.Cache]++
		}
	}
	return p
}

// meanBody is the mean response size of the current phase.
func (c *client) meanBody() int {
	if len(c.ends) == 0 {
		return 0
	}
	return c.arena.Len() / len(c.ends)
}
