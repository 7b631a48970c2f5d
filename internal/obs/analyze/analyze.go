package analyze

import (
	"fmt"
	"slices"
	"strings"

	"bwc/internal/bwfirst"
	"bwc/internal/obs"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/trace"
	"bwc/internal/tree"
)

// Options configures an analysis.
type Options struct {
	// Schedule supplies the expected values (η rates, periods, χ bounds).
	// Without it only schedule-free checks (single-port) can run; the
	// rest SKIP.
	Schedule *sched.Schedule
	// Stop is the instant the root stopped releasing tasks, when known.
	// Windowed estimators then ignore the wind-down after it; zero means
	// "use the last recorded instant".
	Stop rat.R
	// MinRateRatio is the minimum achieved/η ratio counted as conforming
	// (default 0.99).
	MinRateRatio float64
	// BufferSlack is the number of buffered tasks a node may exceed its
	// χ bound by before the watermark check fails (default 0: Section
	// 6.3's interleaving claims the bound exactly).
	BufferSlack int
	// OnsetWindow overrides the window the steady-state-onset estimator
	// buckets completions into (default: the schedule's rootless
	// period). A quantized schedule whose root period exceeds the
	// rootless period delivers tasks in bursts, making rootless-period
	// counts oscillate around the quota in steady state; a window
	// spanning a whole tree period keeps the quota exact.
	OnsetWindow rat.R
}

func (o Options) withDefaults() Options {
	if o.MinRateRatio == 0 {
		o.MinRateRatio = 0.99
	}
	return o
}

// Fixed conformance tolerances.
const (
	// minStartupRatio is the minimum useful-work ratio during start-up:
	// tasks completed before steady state over the steady rate times the
	// onset time (Section 7's claim that start-up is productive).
	minStartupRatio = 0.5
	// utilTolerance is the relative tolerance on link busy fractions
	// before a link counts as over-driven.
	utilTolerance = 0.05
	// latencyTolerance is the relative tolerance on the p99 compute
	// latency over the platform's w.
	latencyTolerance = 0.05
)

// nodeEvid indexes one node's activity: positions into the evidence,
// each list in start order. A node's compute, send and receive lists are
// its "<node>/C", "/S" and "/R" track lists. sendTo splits the sends per
// destination, and held is the node's ±1 buffer replay, built on first
// use and shared by every check that needs it.
type nodeEvid struct {
	compute []int32
	send    []int32
	recv    []int32
	sendTo  []destSends
	held    []heldDelta
}

// destSends is one destination's share of a node's sends, in start order.
type destSends struct {
	dest tree.NodeID
	pos  []int32
}

// sendsTo returns the positions of the node's sends to dest (nil when
// none were recorded).
func (ne *nodeEvid) sendsTo(dest tree.NodeID) []int32 {
	for i := range ne.sendTo {
		if ne.sendTo[i].dest == dest {
			return ne.sendTo[i].pos
		}
	}
	return nil
}

// serialTrack is one serial resource's activity: a node's port or CPU
// ("<node>/S", "/R", "/C") or a runtime link ("A→B"), in start order.
type serialTrack struct {
	name string
	pos  []int32
}

// analysis is one pass over read-only evidence. Every index into the
// evidence is a position in ev.Spans or, for a run's record, in
// ev.rec.Intervals; nothing is copied, and neither list is ever
// reordered — only the position lists are sorted.
type analysis struct {
	ev      *Evidence
	opt     Options
	s       *sched.Schedule
	t       *tree.Tree
	nodes   []nodeEvid
	serial  []serialTrack // sorted by name
	horizon rat.R
	haveSim bool       // any exact simulator activity (C/S/R track) present
	cover   []interval // busyCover's buffer, reused node to node
}

// Analyze runs every conformance check against the evidence and returns
// the structured report. Checks degrade to SKIP when the evidence or the
// schedule they need is absent, so the same analyzer serves exact
// simulator traces, wall-clock runtime scopes and offline files.
func Analyze(ev *Evidence, opt Options) *HealthReport {
	a := &analysis{ev: ev, opt: opt.withDefaults()}
	if a.opt.Schedule != nil {
		a.s = a.opt.Schedule
		a.t = a.s.Tree
	}
	a.parse()

	rep := &HealthReport{}
	rep.add(a.singlePort())
	rep.add(a.throughputConformance())
	rep.add(a.linkUtilization())
	rep.add(a.bufferWatermark())
	onsetCheck, onset, onsetOK := a.steadyStateOnset()
	rep.add(onsetCheck)
	rep.add(a.startupUsefulWork(onset, onsetOK))
	rep.add(a.idleWhileBacklogged())
	rep.add(a.computeLatency())
	rep.add(a.taskConservation())
	rep.add(a.resultReturn())
	return rep
}

// parse indexes the evidence: one position list per serial track and
// (when a schedule names the platform) per node and activity. Track
// naming follows the simulator's convention: "<node>/C", "<node>/S",
// "<node>/R"; the live runtime uses "<parent>→<child>" link tracks
// instead. Nodes resolve by name against the schedule's tree.
func (a *analysis) parse() {
	if a.ev.rec != nil {
		a.parseRun()
	} else {
		a.parseSpans()
	}

	// Producers record every track in start order, so the check is
	// usually all the sorting there is; out-of-order evidence (a
	// hand-edited or merged file) falls back to a stable sort, which
	// keeps equal starts in evidence order.
	byStart := func(p, q int32) int { return a.start(p).Cmp(a.start(q)) }
	for k := range a.serial {
		if pos := a.serial[k].pos; !slices.IsSortedFunc(pos, byStart) {
			slices.SortStableFunc(pos, byStart)
		}
	}
	slices.SortFunc(a.serial, func(x, y serialTrack) int { return strings.Compare(x.name, y.name) })

	if a.t == nil {
		return
	}
	a.nodes = make([]nodeEvid, a.t.Len())
	for _, st := range a.serial {
		kind := st.name[len(st.name)-2:]
		if kind != "/C" && kind != "/S" && kind != "/R" {
			continue
		}
		id, ok := a.t.Lookup(st.name[:len(st.name)-2])
		if !ok {
			continue
		}
		a.haveSim = true
		ne := &a.nodes[id]
		switch kind {
		case "/C":
			ne.compute = st.pos
		case "/S":
			ne.send = st.pos
			a.splitSends(ne)
		case "/R":
			ne.recv = st.pos
		}
	}
}

// parseSpans indexes span evidence. Each distinct track name is resolved
// once; other tracks ("des", "proto") only extend the horizon.
func (a *analysis) parseSpans() {
	spans := a.ev.Spans
	// First pass: resolve each span's track to a list index (-1 for
	// tracks no check reads) and count the list sizes, so the lists can
	// share one backing array.
	index := map[string]int32{}
	var names []string
	var sizes []int32
	track := make([]int32, len(spans))
	last := int32(-1)
	for i := range spans {
		sp := &spans[i]
		if a.horizon.Less(sp.End) {
			a.horizon = sp.End
		}
		if i == 0 || sp.Track != spans[i-1].Track {
			k, ok := index[sp.Track]
			if !ok {
				k = -1
				if isSerialTrack(sp.Track) {
					k = int32(len(names))
					names = append(names, sp.Track)
					sizes = append(sizes, 0)
				}
				index[sp.Track] = k
			}
			last = k
		}
		track[i] = last
		if last >= 0 {
			sizes[last]++
		}
	}
	a.serial = newTracks(names, sizes)
	for i, k := range track {
		if k >= 0 {
			a.serial[k].pos = append(a.serial[k].pos, int32(i))
		}
	}
}

// parseRun indexes a run's record: one list per (node, activity) with
// any interval, named as the simulator exports its spans, and filled by
// a counting pass. The horizon is the record's end.
func (a *analysis) parseRun() {
	rec, ivs := a.ev.rec, a.ev.rec.Intervals
	a.horizon = rec.End
	list := func(i int) int { return 3*int(ivs[i].Node) + int(ivs[i].Kind) }
	count := make([]int32, 3*rec.Tree.Len())
	for i := range ivs {
		count[list(i)]++
	}
	// Name the lists that have intervals with substrings of one string;
	// count[k] then becomes list k's track index.
	var b strings.Builder
	ends, sizes := make([]int, 0, len(count)), make([]int32, 0, len(count))
	for k, c := range count {
		if c > 0 {
			b.WriteString(rec.Tree.Name(tree.NodeID(k / 3)))
			b.WriteByte('/')
			b.WriteString(trace.Kind(k % 3).String())
			count[k] = int32(len(sizes))
			ends, sizes = append(ends, b.Len()), append(sizes, c)
		}
	}
	all, names, start := b.String(), make([]string, len(ends)), 0
	for j, end := range ends {
		names[j], start = all[start:end], end
	}
	a.serial = newTracks(names, sizes)
	for i := range ivs {
		st := &a.serial[count[list(i)]]
		st.pos = append(st.pos, int32(i))
	}
}

// newTracks returns one serial track per name, with room for sizes[k]
// positions, all in one backing array.
func newTracks(names []string, sizes []int32) []serialTrack {
	total := int32(0)
	for _, n := range sizes {
		total += n
	}
	backing := make([]int32, total)
	tracks := make([]serialTrack, len(names))
	off := int32(0)
	for k, name := range names {
		tracks[k] = serialTrack{name: name, pos: backing[off : off : off+sizes[k]]}
		off += sizes[k]
	}
	return tracks
}

// start and end return the bounds of the activity at position p.
func (a *analysis) start(p int32) rat.R {
	if a.ev.rec != nil {
		return a.ev.rec.Intervals[p].Start
	}
	return a.ev.Spans[p].Start
}

func (a *analysis) end(p int32) rat.R {
	if a.ev.rec != nil {
		return a.ev.rec.Intervals[p].End
	}
	return a.ev.Spans[p].End
}

// name returns the name of the activity at position p; a record
// interval's is built as the simulator names its exported span.
func (a *analysis) name(p int32) string {
	if a.ev.rec == nil {
		return a.ev.Spans[p].Name
	}
	rec := a.ev.rec
	switch iv := &rec.Intervals[p]; iv.Kind {
	case trace.Send:
		return "send " + rec.Tree.Name(iv.Peer)
	case trace.Recv:
		return "recv " + rec.Tree.Name(iv.Peer)
	}
	return "compute"
}

// splitSends groups a node's sends by the node each one is addressed to
// (the interval's peer, or the span's "send <name>"), keeping start
// order within each destination.
func (a *analysis) splitSends(ne *nodeEvid) {
	dests := make([]tree.NodeID, len(ne.send))
	var order []tree.NodeID
	for i, p := range ne.send {
		var name string
		if rec := a.ev.rec; rec != nil {
			name = rec.Tree.Name(rec.Intervals[p].Peer)
		} else {
			name = strings.TrimPrefix(a.ev.Spans[p].Name, "send ")
		}
		id, ok := a.t.Lookup(name)
		if !ok {
			id = tree.None
		} else if !slices.Contains(order, id) {
			order = append(order, id)
		}
		dests[i] = id
	}
	backing := make([]int32, 0, len(ne.send))
	ne.sendTo = make([]destSends, len(order))
	for j, d := range order {
		start := len(backing)
		for i, p := range ne.send {
			if dests[i] == d {
				backing = append(backing, p)
			}
		}
		ne.sendTo[j] = destSends{dest: d, pos: backing[start:len(backing):len(backing)]}
	}
}

// analysisEnd is the instant windowed estimators measure up to: the
// known stop when supplied (excluding wind-down), otherwise the last
// recorded instant.
func (a *analysis) analysisEnd() rat.R {
	if a.opt.Stop.IsPos() && a.opt.Stop.Less(a.horizon) {
		return a.opt.Stop
	}
	return a.horizon
}

// ---------------------------------------------------------------------------
// Windowed rate estimation

// spanStart and spanEnd pick the instant windowCounts buckets.
func spanStart(a *analysis, p int32) rat.R { return a.start(p) }
func spanEnd(a *analysis, p int32) rat.R   { return a.end(p) }

// windowCounts adds each listed activity's instant (its start or end) to
// its window [k·period, (k+1)·period) in counts, ignoring instants
// outside the len(counts) windows. Input order does not matter.
func (a *analysis) windowCounts(counts []int64, pos []int32, at func(*analysis, int32) rat.R, period rat.R) {
	for _, p := range pos {
		k, ok := rat.FloorDiv(at(a, p), period)
		if ok && k >= 0 && k < int64(len(counts)) {
			counts[k]++
		}
	}
}

// steadyOnset returns the first window index from which every later
// window meets the quota (ok=false when even the last window misses it).
func steadyOnset(counts []int64, quota int64) (int64, bool) {
	k := int64(len(counts))
	for k > 0 && counts[k-1] >= quota {
		k--
	}
	return k, k < int64(len(counts))
}

// maxWindows bounds the windows a windowed check scans, and so the size
// of its count array and of the window list its evidence prints.
const maxWindows = 1 << 16

// fullWindows returns how many complete windows of the given period fit
// before the analysis end, at most maxWindows: evidence whose end lies
// further out (a corrupt or hand-edited file, or a run of more periods
// than that analyzed without a stop) is measured over its first
// maxWindows windows instead of sizing the counts by its end alone.
func (a *analysis) fullWindows(period rat.R) int64 {
	if !period.IsPos() {
		return 0
	}
	L, ok := rat.FloorDiv(a.analysisEnd(), period)
	if !ok && a.analysisEnd().IsPos() {
		return maxWindows
	}
	if !ok || L < 0 {
		return 0
	}
	return min(L, maxWindows)
}

// ---------------------------------------------------------------------------
// Checks

// singlePort verifies the Section 3 port model on the recorded spans:
// every serial resource track — a node's send port (/S), receive port
// (/R), CPU (/C) or a runtime link ("A→B") — must hold pairwise
// non-overlapping spans (shared endpoints are allowed).
func (a *analysis) singlePort() Check {
	c := Check{Name: "single-port"}
	if len(a.serial) == 0 {
		c.Verdict, c.Detail = Skip, "no port tracks in evidence"
		return c
	}
	violations := 0
	for _, tr := range a.serial {
		maxEnd := a.end(tr.pos[0])
		for _, p := range tr.pos[1:] {
			start, end := a.start(p), a.end(p)
			if start.Less(maxEnd) {
				violations++
				if len(c.Evidence) < 16 {
					c.Evidence = append(c.Evidence, fmt.Sprintf(
						"%s: %q [%s,%s] overlaps preceding activity ending at %s",
						tr.name, a.name(p), start, end, maxEnd))
				}
			}
			if maxEnd.Less(end) {
				maxEnd = end
			}
		}
	}
	if violations > 0 {
		c.Verdict = Fail
		c.Detail = fmt.Sprintf("%d overlapping activities across %d port tracks", violations, len(a.serial))
		return c
	}
	c.Verdict = Pass
	c.Detail = fmt.Sprintf("%d port tracks serialized, no overlap", len(a.serial))
	return c
}

func isSerialTrack(track string) bool {
	if strings.Contains(track, "→") {
		return true
	}
	if len(track) < 2 {
		return false
	}
	switch track[len(track)-2:] {
	case "/C", "/S", "/R":
		return true
	}
	return false
}

// throughputConformance compares every active computing node's achieved
// rate against its solver rate α = η_0, using windows of the node's own
// synchronized period T_0 (Proposition 3): from the steady-state onset
// on, every full window must complete α·T_0 tasks.
func (a *analysis) throughputConformance() Check {
	c := Check{Name: "throughput-conformance"}
	if a.s == nil || !a.haveSim {
		c.Verdict, c.Detail = Skip, needSchedSim(a)
		return c
	}
	checked, failed := 0, 0
	worst := 1.0
	for i := range a.s.Nodes {
		ns := &a.s.Nodes[i]
		if !ns.Active || !ns.Alpha.IsPos() {
			continue
		}
		id := ns.Node
		t0 := a.s.Periods().T0(id)
		L := a.fullWindows(t0)
		if L == 0 {
			continue
		}
		quota := ns.Alpha.Mul(t0)
		q, _ := quota.Int64() // integer by Prop. 3 (T_0 is a multiple of T^c)
		counts := make([]int64, L)
		a.windowCounts(counts, a.nodes[id].compute, spanEnd, t0)
		onset, ok := steadyOnset(counts, q)
		checked++
		ratio := 0.0
		if ok {
			total := int64(0)
			for _, n := range counts[onset:] {
				total += n
			}
			achieved := rat.FromInt(total).Div(t0.Mul(rat.FromInt(L - onset)))
			ratio = achieved.Div(ns.Alpha).Float64()
		}
		if !ok || ratio < a.opt.MinRateRatio {
			failed++
			line := fmt.Sprintf("%s: α=%s over T0=%s windows %v: no steady suffix reaches quota %d",
				a.t.Name(id), ns.Alpha, t0, counts, q)
			if ok {
				line = fmt.Sprintf("%s: α=%s over T0=%s windows %v, steady from window %d, achieved/α=%.3f",
					a.t.Name(id), ns.Alpha, t0, counts, onset, ratio)
			}
			c.Evidence = append(c.Evidence, line)
		}
		if ok && ratio < worst {
			worst = ratio
		}
	}
	switch {
	case checked == 0:
		c.Verdict, c.Detail = Skip, "no full node period before the analysis end"
	case failed > 0:
		c.Verdict = Fail
		c.Detail = fmt.Sprintf("%d of %d computing nodes below %.0f%% of α", failed, checked, a.opt.MinRateRatio*100)
	default:
		c.Verdict = Pass
		c.Detail = fmt.Sprintf("%d computing nodes at their solver rate (worst achieved/α %.3f)", checked, worst)
	}
	return c
}

// linkUtilization verifies Lemma 1 on every scheduled link: the parent
// must start φ_i = η_i·T^s transfers per sending period (from some onset
// on) and keep the link busy for no more than η_i·c_i of the time — a
// link driven hotter than planned is the signature of a stale schedule
// running against degraded physics.
func (a *analysis) linkUtilization() Check {
	c := Check{Name: "link-utilization"}
	if a.s == nil || !a.haveSim {
		c.Verdict, c.Detail = Skip, needSchedSim(a)
		return c
	}
	checked, failed := 0, 0
	for i := range a.s.Nodes {
		ns := &a.s.Nodes[i]
		if !ns.Active {
			continue
		}
		id := ns.Node
		children := a.t.Children(id)
		for j, eta := range ns.Sends {
			if !eta.IsPos() {
				continue
			}
			child := children[j]
			ts := ns.TS
			L := a.fullWindows(ts)
			if L == 0 {
				continue
			}
			checked++
			sends := a.nodes[id].sendsTo(child)
			if len(sends) == 0 {
				failed++
				c.Evidence = append(c.Evidence, fmt.Sprintf("%s→%s: scheduled at η=%s but no transfers recorded",
					a.t.Name(id), a.t.Name(child), eta))
				continue
			}
			quota := ns.Phi[j].Int64()
			counts := make([]int64, L)
			a.windowCounts(counts, sends, spanStart, ts)
			_, ok := steadyOnset(counts, quota)
			// Busy fraction over the measured range vs the plan η·c.
			window := ts.Mul(rat.FromInt(L))
			util := a.busyUntil(sends, window).Div(window).Float64()
			planned := eta.Mul(a.t.CommTime(child)).Float64()
			if !ok || util > planned*(1+utilTolerance) {
				failed++
				c.Evidence = append(c.Evidence, fmt.Sprintf("%s→%s: η=%s, φ=%d/T^s=%s windows %v, busy %.3f vs planned %.3f",
					a.t.Name(id), a.t.Name(child), eta, quota, ts, counts, util, planned))
			}
		}
	}
	switch {
	case checked == 0:
		c.Verdict, c.Detail = Skip, "no full sending period before the analysis end"
	case failed > 0:
		c.Verdict = Fail
		c.Detail = fmt.Sprintf("%d of %d links off plan (starved or over-driven)", failed, checked)
	default:
		c.Verdict = Pass
		c.Detail = fmt.Sprintf("%d links at their planned rate and utilization", checked)
	}
	return c
}

// bufferWatermark reconstructs every non-root node's buffered-task count
// from its span stream (+1 per completed receive, −1 per started compute
// or send, net per instant) and compares the peak against Proposition
// 3's χ = η_{-1}·T_0 — the bound Section 6.3's interleaved order is
// designed to respect.
func (a *analysis) bufferWatermark() Check {
	c := Check{Name: "buffer-watermark"}
	if a.s == nil || !a.haveSim {
		c.Verdict, c.Detail = Skip, needSchedSim(a)
		return c
	}
	checked, failed := 0, 0
	peakOver := 0
	for i := range a.s.Nodes {
		ns := &a.s.Nodes[i]
		id := ns.Node
		if !ns.Active || id == a.t.Root() || len(a.nodes[id].recv) == 0 {
			continue
		}
		checked++
		peak := maxHeld(a.held(id))
		chi := a.s.Periods().Chi(id)
		if chi.Add(rat.FromInt(int64(a.opt.BufferSlack))).Less(rat.FromInt(int64(peak))) {
			failed++
			c.Evidence = append(c.Evidence, fmt.Sprintf("%s: peak %d buffered vs χ=%s (+%d slack)",
				a.t.Name(id), peak, chi, a.opt.BufferSlack))
			chi64, _ := chi.Int64()
			if over := peak - int(chi64); over > peakOver {
				peakOver = over
			}
		}
	}
	switch {
	case checked == 0:
		c.Verdict, c.Detail = Skip, "no receiving nodes in evidence"
	case failed > 0:
		c.Verdict = Fail
		c.Detail = fmt.Sprintf("%d of %d nodes exceed χ (worst by %d tasks)", failed, checked, peakOver)
	default:
		c.Verdict = Pass
		c.Detail = fmt.Sprintf("%d nodes within their χ bound", checked)
	}
	return c
}

// heldDelta is one ±1 step of the reconstructed buffer occupancy.
type heldDelta struct {
	at rat.R
	d  int
}

// held returns the node's ±1 buffer steps in time order, building them on
// first use: a task is buffered from the end of its receive until the
// start of its compute or send. The order among steps at one instant is
// left arbitrary — every replay (maxHeld, backloggedIdleTime,
// WindowStats) nets all steps at an instant before it samples, so that
// order cannot change a result.
//
// The three lists are each in time order already (compute and send
// starts by the parse, receive ends because a serial receive port's
// spans end in the order they start), so the steps are their merge. Only
// overlapping receives, which a port never records but a hand-edited
// file may hold, end out of order; those replays are sorted instead.
func (a *analysis) held(id tree.NodeID) []heldDelta {
	ne := &a.nodes[id]
	if ne.held != nil {
		return ne.held
	}
	ds := make([]heldDelta, 0, len(ne.recv)+len(ne.compute)+len(ne.send))
	byEnd := func(p, q int32) int { return a.end(p).Cmp(a.end(q)) }
	if !slices.IsSortedFunc(ne.recv, byEnd) {
		ne.held = a.sortedHeld(ds, ne)
		return ne.held
	}
	r, c, s := ne.recv, ne.compute, ne.send
	for len(r) > 0 || len(c) > 0 || len(s) > 0 {
		// Take the earliest of the three heads.
		head, at := 0, rat.Zero
		if len(r) > 0 {
			head, at = 1, a.end(r[0])
		}
		if len(c) > 0 {
			if t := a.start(c[0]); head == 0 || t.Less(at) {
				head, at = 2, t
			}
		}
		if len(s) > 0 {
			if t := a.start(s[0]); head == 0 || t.Less(at) {
				head, at = 3, t
			}
		}
		switch head {
		case 1:
			r, ds = r[1:], append(ds, heldDelta{at, +1})
		case 2:
			c, ds = c[1:], append(ds, heldDelta{at, -1})
		default:
			s, ds = s[1:], append(ds, heldDelta{at, -1})
		}
	}
	ne.held = ds
	return ds
}

// sortedHeld is held's replay built by sorting, for receive ends out of
// order.
func (a *analysis) sortedHeld(ds []heldDelta, ne *nodeEvid) []heldDelta {
	for _, p := range ne.recv {
		ds = append(ds, heldDelta{a.end(p), +1})
	}
	for _, p := range ne.compute {
		ds = append(ds, heldDelta{a.start(p), -1})
	}
	for _, p := range ne.send {
		ds = append(ds, heldDelta{a.start(p), -1})
	}
	slices.SortFunc(ds, func(x, y heldDelta) int { return x.at.Cmp(y.at) })
	return ds
}

// maxHeld replays the deltas, netting all events at one instant before
// sampling — a task that enters service the moment it arrives is never
// counted as buffered, matching the simulator's accounting.
func maxHeld(ds []heldDelta) int {
	held, peak := 0, 0
	for i := 0; i < len(ds); {
		j := i
		for j < len(ds) && ds[j].at.Equal(ds[i].at) {
			held += ds[j].d
			j++
		}
		if held > peak {
			peak = held
		}
		i = j
	}
	return peak
}

// steadyStateOnset finds when the rootless tree (every node but the root,
// the Section 8 lens on start-up) reaches its aggregate steady rate, and
// verifies it happens within Proposition 4's bound Σ T^s over ancestors,
// rounded up to a whole rootless period.
func (a *analysis) steadyStateOnset() (Check, rat.R, bool) {
	c := Check{Name: "steady-state-onset"}
	if a.s == nil || !a.haveSim {
		c.Verdict, c.Detail = Skip, needSchedSim(a)
		return c, rat.Zero, false
	}
	period := a.s.Periods().Rootless()
	if a.opt.OnsetWindow.IsPos() {
		period = a.opt.OnsetWindow
	}
	rate := a.s.RootlessRate()
	if !rate.IsPos() {
		c.Verdict, c.Detail = Skip, "root delegates nothing; no rootless steady state"
		return c, rat.Zero, false
	}
	L := a.fullWindows(period)
	if L == 0 {
		c.Verdict, c.Detail = Skip, fmt.Sprintf("no full rootless period (%s) before the analysis end", period)
		return c, rat.Zero, false
	}
	quota, _ := rate.Mul(period).Int64()
	root := a.t.Root()
	counts := make([]int64, L)
	for i := range a.nodes {
		if tree.NodeID(i) != root {
			a.windowCounts(counts, a.nodes[i].compute, spanEnd, period)
		}
	}
	onset, ok := steadyOnset(counts, quota)
	// Proposition 4's bound, rounded up to the window the estimator can
	// actually resolve.
	bound := a.s.MaxStartupBound()
	allowed := bound.Div(period).Ceil()
	onsetAt := period.Mul(rat.FromInt(onset))
	if !ok {
		c.Verdict = Fail
		c.Detail = fmt.Sprintf("rootless tree never reaches %d tasks per %s window", quota, period)
		c.Evidence = append(c.Evidence, fmt.Sprintf("windows %v, quota %d", counts, quota))
		return c, rat.Zero, false
	}
	if allowed.Less(rat.FromInt(onset)) {
		c.Verdict = Fail
		c.Detail = fmt.Sprintf("steady state from t=%s, after the Prop. 4 bound %s (allowed window %s)",
			onsetAt, bound, allowed)
		c.Evidence = append(c.Evidence, fmt.Sprintf("windows %v, quota %d", counts, quota))
		return c, onsetAt, true
	}
	c.Verdict = Pass
	c.Detail = fmt.Sprintf("steady from t=%s (windows %v at quota %d), within Prop. 4 bound %s",
		onsetAt, counts, quota, bound)
	return c, onsetAt, true
}

// startupUsefulWork quantifies Section 7's claim that the start-up phase
// "allows useful computation": tasks completed before the steady-state
// onset must be a healthy fraction of what the steady rate would have
// produced over the same time.
func (a *analysis) startupUsefulWork(onset rat.R, onsetOK bool) Check {
	c := Check{Name: "startup-useful-work"}
	if a.s == nil || !a.haveSim {
		c.Verdict, c.Detail = Skip, needSchedSim(a)
		return c
	}
	if !onsetOK {
		c.Verdict, c.Detail = Skip, "no steady-state onset to measure start-up against"
		return c
	}
	if !onset.IsPos() {
		c.Verdict, c.Detail = Pass, "steady from t=0; no start-up phase"
		return c
	}
	rate := a.s.Throughput()
	done := 0
	for i := range a.nodes {
		for _, p := range a.nodes[i].compute {
			if a.end(p).LessEq(onset) {
				done++
			}
		}
	}
	expected := rate.Mul(onset).Float64()
	ratio := float64(done) / expected
	c.Detail = fmt.Sprintf("%d tasks before steady state at t=%s (%.0f%% of the steady rate's %.0f)",
		done, onset, ratio*100, expected)
	if ratio < minStartupRatio {
		c.Verdict = Fail
		c.Evidence = append(c.Evidence, fmt.Sprintf("useful-work ratio %.3f below minimum %.3f",
			ratio, minStartupRatio))
		return c
	}
	c.Verdict = Pass
	return c
}

// idleWhileBacklogged detects scheduling pathologies the rate checks can
// miss: an interval during which a node holds buffered tasks yet neither
// computes nor sends. (A necessary condition: with tasks backlogged, at
// least one of the node's resources must be active.)
func (a *analysis) idleWhileBacklogged() Check {
	c := Check{Name: "idle-while-backlogged"}
	if a.t == nil || !a.haveSim {
		c.Verdict, c.Detail = Skip, needSchedSim(a)
		return c
	}
	checked, failed := 0, 0
	for i := range a.nodes {
		ne := &a.nodes[i]
		if len(ne.recv) == 0 {
			continue
		}
		checked++
		a.cover = a.busyCover(a.cover[:0], ne)
		idle := backloggedIdleTime(a.held(tree.NodeID(i)), a.cover)
		if idle.IsPos() {
			failed++
			c.Evidence = append(c.Evidence, fmt.Sprintf("%s: %s time units idle with tasks buffered",
				a.t.Name(tree.NodeID(i)), idle))
		}
	}
	switch {
	case checked == 0:
		c.Verdict, c.Detail = Skip, "no receiving nodes in evidence"
	case failed > 0:
		c.Verdict = Fail
		c.Detail = fmt.Sprintf("%d of %d nodes sat idle while backlogged", failed, checked)
	default:
		c.Verdict = Pass
		c.Detail = fmt.Sprintf("%d nodes never idle with a backlog", checked)
	}
	return c
}

// backloggedIdleTime returns the total time the node spends with a
// positive reconstructed buffer while no interval of its busy cover
// holds the instant. The buffer segments and the cover are both in time
// order, so one forward sweep pairs them. Exact rational interval
// arithmetic throughout.
func backloggedIdleTime(ds []heldDelta, cover []interval) rat.R {
	idle := rat.Zero
	held, next := 0, 0
	var segStart rat.R
	for i := 0; i < len(ds); {
		at := ds[i].at
		if held > 0 {
			idle = idle.Add(uncovered(segStart, at, cover, &next))
		}
		for i < len(ds) && ds[i].at.Equal(at) {
			held += ds[i].d
			i++
		}
		segStart = at
	}
	return idle
}

// interval is a half-open rational interval [start, end).
type interval struct{ start, end rat.R }

// busyCover appends to out the disjoint cover of the node's compute and
// send spans: both lists are in start order, so merging them yields the
// spans in start order, and overlapping or adjacent ones fuse.
func (a *analysis) busyCover(out []interval, ne *nodeEvid) []interval {
	cs, ss := ne.compute, ne.send
	for len(cs) > 0 || len(ss) > 0 {
		var p int32
		if len(ss) == 0 || (len(cs) > 0 && a.start(cs[0]).LessEq(a.start(ss[0]))) {
			p, cs = cs[0], cs[1:]
		} else {
			p, ss = ss[0], ss[1:]
		}
		start, end := a.start(p), a.end(p)
		if n := len(out); n > 0 && start.LessEq(out[n-1].end) {
			if out[n-1].end.Less(end) {
				out[n-1].end = end
			}
			continue
		}
		out = append(out, interval{start, end})
	}
	return out
}

// uncovered returns the length of [from, to) not covered by cover. Calls
// must come with non-decreasing from: *next skips the cover intervals
// that end at or before from, and only intervals starting before to are
// read, so a whole sweep reads each interval about once.
func uncovered(from, to rat.R, cover []interval, next *int) rat.R {
	for *next < len(cover) && cover[*next].end.LessEq(from) {
		*next++
	}
	gap := to.Sub(from)
	for _, iv := range cover[*next:] {
		if !iv.start.Less(to) {
			break
		}
		lo := rat.Max(from, iv.start)
		hi := rat.Min(to, iv.end)
		if lo.Less(hi) {
			gap = gap.Sub(hi.Sub(lo))
		}
	}
	return gap
}

// busyUntil sums the time the listed activities occupy before end.
func (a *analysis) busyUntil(pos []int32, end rat.R) rat.R {
	busy := rat.Zero
	for _, p := range pos {
		start := a.start(p)
		if e := rat.Min(a.end(p), end); start.Less(e) {
			busy = busy.Add(e.Sub(start))
		}
	}
	return busy
}

// computeLatency checks that every node's p99 compute time stays at its
// platform w: per-task latency collapsing or inflating would conform to
// neither the platform model nor the η accounting built on it.
func (a *analysis) computeLatency() Check {
	c := Check{Name: "compute-latency"}
	if a.t == nil || !a.haveSim {
		c.Verdict, c.Detail = Skip, needSchedSim(a)
		return c
	}
	reg := obs.NewRegistry()
	checked, failed := 0, 0
	for i := range a.nodes {
		ne := &a.nodes[i]
		if len(ne.compute) == 0 {
			continue
		}
		id := tree.NodeID(i)
		w, ok := a.t.ProcTime(id)
		if !ok {
			continue
		}
		checked++
		// Durations are normalized by the node's w so one family-wide
		// bucket layout (labeled histograms share the first registration's
		// bounds) resolves every node around ratio 1.
		h := reg.HistogramLabeled("analyze_compute_ratio", "per-task compute time over platform w",
			[]float64{0.5, 0.9, 0.99, 1, 1.01, 1.1, 2},
			"node", a.t.Name(id))
		for _, p := range ne.compute {
			h.Observe(a.end(p).Sub(a.start(p)).Div(w).Float64())
		}
		q99 := h.Quantile(0.99)
		if q99 > 1+latencyTolerance {
			failed++
			c.Evidence = append(c.Evidence, fmt.Sprintf("%s: p99 compute/w = %.4f (w=%s)", a.t.Name(id), q99, w))
		}
	}
	switch {
	case checked == 0:
		c.Verdict, c.Detail = Skip, "no compute spans in evidence"
	case failed > 0:
		c.Verdict = Fail
		c.Detail = fmt.Sprintf("%d of %d nodes off their platform w at p99", failed, checked)
	default:
		c.Verdict = Pass
		c.Detail = fmt.Sprintf("%d nodes compute at their platform w (p99)", checked)
	}
	return c
}

// taskConservation cross-checks the run's counters: every task the root
// released must have completed (the drain invariant the simulator's
// CheckConservation asserts, here recovered from metrics alone).
func (a *analysis) taskConservation() Check {
	c := Check{Name: "task-conservation"}
	gen, genOK := a.counterValue("bwc_sim_tasks_generated_total")
	done, doneOK := a.counterValue("bwc_sim_tasks_completed_total")
	if !genOK || !doneOK {
		c.Verdict, c.Detail = Skip, "no task counters in evidence (offline traces carry spans only)"
		return c
	}
	c.Detail = fmt.Sprintf("%d generated, %d completed", int64(gen), int64(done))
	if gen != done {
		c.Verdict = Fail
		c.Evidence = append(c.Evidence, fmt.Sprintf("%d tasks unaccounted for", int64(gen-done)))
		return c
	}
	c.Verdict = Pass
	return c
}

// resultReturn verifies the upward flow of a Section-9 run along three
// axes: result conservation (every computed task's result reached the
// root, recovered from counters), upward port utilization (each node's
// result traffic stays at its planned ReturnRate·d share of the send
// port without starving), and folded-model-error detection — when the
// separate-flows schedule plans a throughput strictly above what the
// folded model (d_i merged into c_i on one serialized port pair) could
// reach, the measured completion rate must actually exceed the folded
// bound, proving the engine overlapped the two flows rather than
// serializing them. SKIPs on forward-only runs.
func (a *analysis) resultReturn() Check {
	c := Check{Name: "result-return"}
	if a.s == nil || !a.s.ResultReturn {
		c.Verdict, c.Detail = Skip, "forward-only run (no result returns scheduled)"
		return c
	}
	failed := 0

	// Result conservation from counters (either backend's).
	done, doneOK := a.counterValue("bwc_sim_tasks_completed_total")
	ret, retOK := a.counterValue("bwc_sim_results_returned_total")
	if !retOK {
		ret, retOK = a.counterValue("bwc_runtime_results_returned_total")
	}
	if doneOK && retOK && done != ret {
		failed++
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"conservation: %d tasks completed but %d results returned", int64(done), int64(ret)))
	}

	// Upward port utilization per node: result transfers to the parent
	// share the node's single send port with task transfers; their busy
	// fraction must track the plan η_ret·d (over-driven ⇒ stale schedule,
	// absent ⇒ results not flowing).
	links := 0
	if a.haveSim {
		end := a.analysisEnd()
		for i := range a.s.Nodes {
			ns := &a.s.Nodes[i]
			id := ns.Node
			if !ns.Active || !ns.ReturnRate.IsPos() || id == a.t.Root() {
				continue
			}
			d := a.t.ReturnTime(id)
			if !d.IsPos() {
				continue // free returns never touch the port
			}
			links++
			parent := a.t.Parent(id)
			sends := a.nodes[id].sendsTo(parent)
			if len(sends) == 0 {
				if len(a.nodes[id].compute) > 0 || countSubtreeComputes(a, id) > 0 {
					failed++
					c.Evidence = append(c.Evidence, fmt.Sprintf(
						"%s→%s: results planned at η=%s but none recorded", a.t.Name(id), a.t.Name(parent), ns.ReturnRate))
				}
				continue
			}
			util := a.busyUntil(sends, end).Div(end).Float64()
			planned := ns.ReturnRate.Mul(d).Float64()
			if util > planned*(1+utilTolerance) {
				failed++
				c.Evidence = append(c.Evidence, fmt.Sprintf(
					"%s→%s: upward busy %.3f exceeds planned η·d %.3f", a.t.Name(id), a.t.Name(parent), util, planned))
			}
		}
	}

	// Folded-model-error detection: measure the platform-wide completion
	// rate over tree-period windows and compare it with the folded model's
	// optimum when the plan claims an advantage. The folded model merges
	// every d_i into c_i and solves forward-only (Section 9's baseline).
	foldedNote := ""
	if a.haveSim && a.s.Res != nil {
		folded := bwfirst.Solve(a.t.WithFoldedReturns()).Throughput
		planned := a.s.Throughput()
		if folded.Less(planned) {
			period := a.s.Periods().Tree()
			L := a.fullWindows(period)
			if L > 0 {
				counts := make([]int64, L)
				for i := range a.nodes {
					a.windowCounts(counts, a.nodes[i].compute, spanEnd, period)
				}
				best := int64(0)
				for _, n := range counts {
					if n > best {
						best = n
					}
				}
				achieved := rat.FromInt(best).Div(period)
				foldedNote = fmt.Sprintf("; separate-flows rate %s > folded %s confirmed at %s",
					planned, folded, achieved)
				if !folded.Less(achieved) {
					failed++
					foldedNote = ""
					c.Evidence = append(c.Evidence, fmt.Sprintf(
						"folded-model error: plan %s beats folded bound %s but best window rate is only %s — the run serialized the flows",
						planned, folded, achieved))
				}
			}
		}
	}

	if failed > 0 {
		c.Verdict = Fail
		c.Detail = fmt.Sprintf("%d result-return violations", failed)
		return c
	}
	c.Verdict = Pass
	switch {
	case doneOK && retOK:
		c.Detail = fmt.Sprintf("%d results home for %d completions over %d upward links%s",
			int64(ret), int64(done), links, foldedNote)
	default:
		c.Detail = fmt.Sprintf("%d upward links at plan%s", links, foldedNote)
	}
	return c
}

// countSubtreeComputes counts compute spans recorded anywhere in id's
// subtree — a node relaying its children's results upward has upward
// traffic even when it computes nothing itself.
func countSubtreeComputes(a *analysis, id tree.NodeID) int {
	n := len(a.nodes[id].compute)
	for _, ch := range a.t.Children(id) {
		n += countSubtreeComputes(a, ch)
	}
	return n
}

func (a *analysis) counterValue(name string) (float64, bool) {
	for _, m := range a.ev.Metrics {
		if m.Name == name && len(m.Points) > 0 {
			return m.Points[0].Value, true
		}
	}
	return 0, false
}

// needSchedSim explains why a check skipped.
func needSchedSim(a *analysis) string {
	if a.s == nil {
		return "no schedule supplied to derive expected values from"
	}
	return "no exact simulator spans in evidence (wall-clock runs carry link tracks only)"
}
