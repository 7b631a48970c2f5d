package main

// Seeded request generation. Every input the daemon sees is produced
// here, from the workload name and --seed alone, before the daemon
// starts; the daemon receives only the encoded bodies. Platforms are
// admitted on an input property (their largest bunch Ψ), never on a
// timing, and each request carries the answer an in-process oracle
// computed for it.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/big"
	"math/rand"

	"bwc"
	apiv1 "bwc/api/v1"
)

// op is one api/v1 endpoint the benchmark drives.
type op int

const (
	opSubmit op = iota
	opSimulate
)

var opPaths = [...]string{
	opSubmit:   apiv1.PathPrefix + "/platforms",
	opSimulate: apiv1.PathPrefix + "/simulate",
}

// cell is one treegen family at one size.
type cell struct {
	kind bwc.PlatformKind
	n    int
}

// cross returns every family × size pair.
func cross(kinds []bwc.PlatformKind, sizes ...int) []cell {
	var out []cell
	for _, k := range kinds {
		for _, n := range sizes {
			out = append(out, cell{k, n})
		}
	}
	return out
}

var (
	allKinds = []bwc.PlatformKind{bwc.Uniform, bwc.BandwidthLimited, bwc.ComputeLimited,
		bwc.DeepChain, bwc.WideStar, bwc.SwitchHeavy, bwc.SETI}
	// cheapKinds leaves out the compute-limited and SETI families, whose
	// periods (lcm of the rate denominators) are long even at small n.
	cheapKinds = []bwc.PlatformKind{bwc.Uniform, bwc.BandwidthLimited,
		bwc.DeepChain, bwc.WideStar, bwc.SwitchHeavy}
	// coldCells: compute-limited trees above 16 nodes almost never pass
	// the Ψ bound, so that family stays small.
	coldCells = append(append(cross(cheapKinds, 16, 32, 64),
		cross([]bwc.PlatformKind{bwc.ComputeLimited}, 8, 16)...),
		cross([]bwc.PlatformKind{bwc.SETI}, 16, 32, 64)...)
)

// workload is one traffic mix. Every run of a workload sends the same
// fixed number of timed requests, never a duration's worth, so runs do
// the same work and peak_rss_mb (which grows with every request a live
// tenant serves) stays comparable between them.
type workload struct {
	name string
	// why the workload exists: the layers it loads and the ones it
	// bypasses.
	why string
	// psiBound admits a platform only if its largest bunch Ψ is at most
	// this; psiWhy records why the bound sits where it does.
	psiBound int64
	psiWhy   string
	cells    []cell
	// tenants is the number of distinct platforms cycled round-robin;
	// zero makes every request a distinct platform.
	tenants int
	// timed is the number of requests in the timed phase: whole rounds
	// of roundSize, sized so the phase lasts 5-30 s on a 2-vCPU x86-64
	// host with GOMAXPROCS=1. Doubling submit-cold from 6000 to 12000
	// cut its run-to-run spread from 0.09-0.20 to about 0.05.
	timed int
	// replay is how many of the timed requests the traced in-process
	// replay runs through each pass.
	replay int
	// warm is the number of warm-up requests after each tenant has been
	// primed once (for distinct-platform workloads: the number of
	// distinct warm-up submits).
	warm int
	// makeReq turns an admitted platform into its request, with its
	// oracle.
	makeReq func(p *platform) (*request, error)
}

// Simulation and churn parameters. A simulation runs to a fixed number
// of tasks rather than a fixed stop: with a stop, a tenant's cost grows
// with its throughput, and the fastest of a seed's tenants alone set
// p99 (spread 0.9 of the median over five seeds). The traced run's
// churn probe uses rate 2 over 150 time units, which completes without
// adapt timeouts, where rate 4 over 300 on 32–64-node trees returned
// adapt_timeout for one request in eight.
const (
	simTasks     = 120
	churnRate    = 2
	churnHorizon = "150"
	// uniformReturn is applied to every fourth submit-cold platform, so
	// the Section-9 two-budget solver is on that path.
	uniformReturn = "1/2"
)

var workloads = []*workload{
	{
		name: "submit-cold",
		why: "distinct platforms, so every submit misses: parse, fingerprint, solve and schedule build do the work, " +
			"and each miss also evicts an LRU tenant and leaves a ghost",
		psiBound: 1 << 14,
		psiWhy: "a cold submit materializes every node's Ψ-long pattern; up to 2^14 a platform costs at most a few ms, " +
			"while the unbounded treegen mix reaches seconds and a few such platforms would decide the run",
		cells:  coldCells,
		timed:  12000,
		replay: 300,
		// 64 submits fill the 64-tenant LRU, 64 more fill the ghost list.
		warm:    128,
		makeReq: submitReq,
	},
	{
		name: "submit-hot",
		why: "32 primed tenants resubmitted round-robin, so every submit hits: solve and build are bypassed and " +
			"decode, parse, two fingerprints, deployment re-marshal and encode remain",
		psiBound: 1 << 14,
		psiWhy:   "Ψ does not enter the hit path; the bound only keeps priming as cheap as submit-cold",
		cells:    cross(allKinds, 16, 32),
		tenants:  32,
		timed:    15000,
		replay:   1000,
		warm:     1000,
		makeReq:  submitReq,
	},
	{
		name: "simulate-analyze",
		why: "simulate with analyze on primed tenants to a fixed task count: engine, obs and the analyzer do the work, " +
			"the solver and schedule are cached",
		psiBound: 1 << 10,
		psiWhy: "short periods let a 120-task run get past start-up on most tenants, so the analyzer's steady-state " +
			"checks have something to check; the oracle pins every verdict count either way",
		cells:   cross(cheapKinds, 8, 16),
		tenants: 32,
		timed:   12000,
		replay:  120,
		warm:    32,
		makeReq: simulateReq,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// platform is one admitted input.
type platform struct {
	text string // the wire form the daemon parses
	ret  string // uniform_return field, "" for forward-only
	tree *bwc.Tree
	res  *bwc.Result
	psi  int64
}

// asReceived parses platform text and applies uniform_return exactly as
// the daemon's handlers do.
func asReceived(text, ret string) (*bwc.Tree, error) {
	t, err := bwc.ParsePlatformString(text)
	if err != nil || ret == "" {
		return t, err
	}
	d, err := bwc.ParseRat(ret)
	if err != nil {
		return nil, err
	}
	return bwc.PlatformWithUniformResultReturn(t, d)
}

// maxPsi is the largest bunch Ψ of res's schedule. A one-slot pattern
// bound computes every Ψ without materializing any pattern.
func maxPsi(res *bwc.Result) (int64, bool) {
	s, err := bwc.BuildSchedule(res, bwc.WithScheduleOptions(bwc.ScheduleOptions{MaxPatternLen: 1}))
	if err != nil {
		return 0, false
	}
	m := new(big.Int)
	for i := range s.Nodes {
		if b := s.Nodes[i].Bunch; b != nil && b.Cmp(m) > 0 {
			m = b
		}
	}
	return m.Int64(), m.IsInt64()
}

// gen draws platforms for one workload and seed.
type gen struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newGen(w *workload, seed int64) *gen {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	return &gen{
		rng:  rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1))),
		seen: make(map[string]bool),
	}
}

// admit draws platforms of cell c until one is new and has max Ψ ≤ bound.
func (g *gen) admit(c cell, ret string, bound int64) (*platform, error) {
	const maxAttempts = 5000
	for range maxAttempts {
		text := bwc.FormatPlatform(bwc.GeneratePlatform(c.kind, c.n, g.rng.Int63()))
		t, err := asReceived(text, ret)
		if err != nil {
			return nil, fmt.Errorf("generated platform does not parse: %w", err)
		}
		fp := bwc.PlatformFingerprint(t)
		if g.seen[fp] {
			continue
		}
		res := bwc.Solve(t)
		psi, ok := maxPsi(res)
		if !ok || psi > bound || !res.Throughput.IsPos() {
			continue
		}
		g.seen[fp] = true
		return &platform{text: text, ret: ret, tree: t, res: res, psi: psi}, nil
	}
	return nil, fmt.Errorf("no %v platform of %d nodes with Ψ ≤ %d in %d draws", c.kind, c.n, bound, maxAttempts)
}

// cellOrder deals cells in seeded shuffled rounds, so every workload
// keeps the same family mix whatever the seed.
func (g *gen) cellOrder(cells []cell, n int) []cell {
	out := make([]cell, 0, n+len(cells))
	for len(out) < n {
		for _, i := range g.rng.Perm(len(cells)) {
			out = append(out, cells[i])
		}
	}
	return out[:n]
}

// request is one pre-encoded api/v1 call and the answer it must get.
type request struct {
	op   op
	raw  []byte // the whole HTTP/1.1 request
	body []byte // its JSON body
	want *expect
}

// inputs is a workload's whole request sequence for one seed.
type inputs struct {
	prime  []request // one cold request per tenant (empty without tenants)
	warm   []request
	timed  []request
	maxPsi int64
	digest string
}

// generate builds the workload's request sequence for seed.
func generate(w *workload, seed int64, timed int) (*inputs, error) {
	g := newGen(w, seed)
	in := &inputs{}
	if w.tenants == 0 {
		reqs := make([]request, w.warm+timed)
		for i, c := range g.cellOrder(w.cells, len(reqs)) {
			ret := ""
			if i%4 == 3 {
				ret = uniformReturn
			}
			p, err := g.admit(c, ret, w.psiBound)
			if err != nil {
				return nil, err
			}
			in.maxPsi = max(in.maxPsi, p.psi)
			r, err := w.makeReq(p)
			if err != nil {
				return nil, err
			}
			r.want.markers = []string{apiv1.CacheMiss, apiv1.CacheReprimed}
			reqs[i] = *r
		}
		in.warm, in.timed = reqs[:w.warm], reqs[w.warm:]
	} else {
		var cycle []request
		for _, c := range g.cellOrder(w.cells, w.tenants) {
			p, r, err := g.tenant(w, c)
			if err != nil {
				return nil, err
			}
			in.maxPsi = max(in.maxPsi, p.psi)
			// A tenant's first request solves it cold.
			first := *r
			if r.op == opSubmit {
				first.want = &expect{throughput: r.want.throughput, nodes: r.want.nodes,
					markers: []string{apiv1.CacheMiss}}
				r.want.markers = []string{apiv1.CacheHit}
			}
			in.prime = append(in.prime, first)
			cycle = append(cycle, *r)
		}
		in.warm = rotate(cycle, w.warm)
		in.timed = rotate(cycle, timed)
	}
	in.digest = digest(in)
	return in, nil
}

// tenant admits one platform of cell c and builds its request. A
// platform whose oracle run fails is redrawn.
func (g *gen) tenant(w *workload, c cell) (*platform, *request, error) {
	const maxDraws = 200
	var last error
	for range maxDraws {
		p, err := g.admit(c, "", w.psiBound)
		if err != nil {
			return nil, nil, err
		}
		r, err := w.makeReq(p)
		if err == nil {
			return p, r, nil
		}
		last = err
	}
	return nil, nil, fmt.Errorf("no %v tenant of %d nodes passed its oracle in %d draws: %w", c.kind, c.n, maxDraws, last)
}

// rotate repeats cycle round-robin to n requests (sharing the encoded
// bytes).
func rotate(cycle []request, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = cycle[i%len(cycle)]
	}
	return out
}

// digest hashes every request the daemon will receive, in order, so two
// runs can show they sent identical inputs.
func digest(in *inputs) string {
	h := sha256.New()
	for _, part := range [][]request{in.prime, in.warm, in.timed} {
		for _, r := range part {
			h.Write(r.raw)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// newRequest encodes body as an HTTP/1.1 request for o.
func newRequest(o op, body any, want *expect) (*request, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bwschedd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		opPaths[o], len(b))
	raw := append([]byte(head), b...)
	return &request{op: o, raw: raw, body: raw[len(head):], want: want}, nil
}

func submitReq(p *platform) (*request, error) {
	return newRequest(opSubmit, apiv1.SubmitRequest{Platform: p.text, UniformReturn: p.ret},
		&expect{throughput: p.res.Throughput.String(), nodes: p.tree.Len()})
}

func simulateReq(p *platform) (*request, error) {
	want, err := simulateOracle(p)
	if err != nil {
		return nil, err
	}
	return newRequest(opSimulate, apiv1.SimulateRequest{Platform: p.text, Tasks: simTasks, Analyze: true}, want)
}
