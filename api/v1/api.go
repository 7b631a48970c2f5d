package apiv1

import (
	"encoding/json"
	"time"
)

// Cache markers on SubmitResponse.Cache: how the control plane served
// the solve.
const (
	// CacheMiss: this submit ran the negotiation wave cold.
	CacheMiss = "miss"
	// CacheHit: the solve was served from the tenant's memo (including
	// a coalesced concurrent solve another client started).
	CacheHit = "hit"
	// CacheReprimed: the platform had been evicted from the session
	// shard; its retained result was re-installed — via the incremental
	// spine re-solve when the weights drifted — instead of solving cold.
	CacheReprimed = "reprimed"
)

// SubmitRequest asks the control plane to solve a platform and build
// its schedule: the Lemma-1 periods and ψ counts the deployment ships
// (every node derives its bunch order from ψ). Platform is the
// line-oriented text format
// ("name parent comm proc" lines, '-' for the root, "inf" for
// switches).
type SubmitRequest struct {
	Platform string `json:"platform"`
	// Block selects block allocation instead of interleaving.
	Block bool `json:"block,omitempty"`
	// Quantize, when > 0, rounds rates to denominators dividing it,
	// bounding every period at a small throughput loss.
	Quantize int64 `json:"quantize,omitempty"`
	// UniformReturn, when set (rational string), applies the same
	// result-return time d to every link before solving (Section 9).
	// Per-link values travel in the platform text's optional 5th column.
	// Additive field: absent means forward-only, as before.
	UniformReturn string `json:"uniform_return,omitempty"`
}

// SubmitResponse is the solved steady state: throughput, periods, and
// the deployment document each node needs to derive its own schedule.
type SubmitResponse struct {
	APIVersion  string `json:"api_version"`
	Fingerprint string `json:"fingerprint"`
	// Cache is CacheMiss, CacheHit or CacheReprimed.
	Cache string `json:"cache"`
	// Throughput is the exact optimal rate (tasks/unit) as a rational
	// string; ThroughputFloat is its advisory float rendering.
	Throughput      string  `json:"throughput"`
	ThroughputFloat float64 `json:"throughput_float"`
	// Quantized is the achieved rate after quantization (only set when
	// the request quantized).
	Quantized string `json:"quantized,omitempty"`
	Nodes     int    `json:"nodes"`
	Visited   int    `json:"visited"`
	// TreePeriod / RootlessPeriod / StartupBound are the schedule's
	// structural quantities (integer / rational strings).
	TreePeriod     string `json:"tree_period"`
	RootlessPeriod string `json:"rootless_period"`
	StartupBound   string `json:"startup_bound"`
	// Deployment is the compact per-node schedule document
	// (bwc.MarshalDeployment): ψ quantities and consuming periods.
	Deployment json.RawMessage `json:"deployment"`
	// ResultReturn marks a Section-9 platform (some link has d > 0);
	// FoldedThroughput is then the rate the folded model (d merged into
	// c) would reach — the gap to Throughput is the modeling error.
	// Additive fields: omitted on forward-only platforms.
	ResultReturn     bool   `json:"result_return,omitempty"`
	FoldedThroughput string `json:"folded_throughput,omitempty"`
}

// SimulateRequest runs a platform's memoized schedule on the
// virtual-time backend. Exactly one of Stop (rational string), Periods
// or Tasks sets the horizon; all empty defaults to 3 root periods.
type SimulateRequest struct {
	Platform string `json:"platform"`
	Block    bool   `json:"block,omitempty"`
	Stop     string `json:"stop,omitempty"`
	Periods  int    `json:"periods,omitempty"`
	Tasks    int    `json:"tasks,omitempty"`
	// Analyze additionally replays the run's telemetry through the
	// conformance analyzer and attaches the report.
	Analyze bool `json:"analyze,omitempty"`
	// UniformReturn applies the same result-return time d to every link
	// before solving and simulating (additive; see SubmitRequest).
	UniformReturn string `json:"uniform_return,omitempty"`
}

// SimulateResponse summarizes a completed simulation.
type SimulateResponse struct {
	APIVersion  string  `json:"api_version"`
	Fingerprint string  `json:"fingerprint"`
	RunID       string  `json:"run_id"`
	Throughput  string  `json:"throughput"`
	StopAt      string  `json:"stop_at"`
	Generated   int     `json:"generated"`
	Completed   int     `json:"completed"`
	SteadyStart string  `json:"steady_start,omitempty"`
	SteadyOK    bool    `json:"steady_ok"`
	WindDown    string  `json:"wind_down"`
	MaxBuffered int     `json:"max_buffered"`
	Report      *Report `json:"report,omitempty"`
	// ResultsReturned counts task results that reached the root; equal
	// to Completed after drain on result-return platforms. Additive
	// field: omitted (zero) on forward-only runs.
	ResultsReturned int `json:"results_returned,omitempty"`
}

// AnalyzeRequest simulates a platform under an observer and replays the
// telemetry through the paper's conformance checks.
type AnalyzeRequest struct {
	Platform string `json:"platform"`
	Block    bool   `json:"block,omitempty"`
	Stop     string `json:"stop,omitempty"`
	Periods  int    `json:"periods,omitempty"`
}

// AnalyzeResponse carries the verdicts. Each check is also published on
// the event stream as one "analyze.verdict" event.
type AnalyzeResponse struct {
	APIVersion  string `json:"api_version"`
	Fingerprint string `json:"fingerprint"`
	RunID       string `json:"run_id"`
	Report      Report `json:"report"`
}

// Verdict is one conformance check's outcome: PASS, FAIL or SKIP.
type Verdict struct {
	Name    string `json:"name"`
	Verdict string `json:"verdict"`
	Detail  string `json:"detail"`
}

// Report aggregates a run's verdicts.
type Report struct {
	Healthy bool      `json:"healthy"`
	Passed  int       `json:"passed"`
	Failed  int       `json:"failed"`
	Skipped int       `json:"skipped"`
	Checks  []Verdict `json:"checks"`
}

// FaultSpec is one scripted perturbation on an adaptive run's timeline.
// Kind is one of "degrade-link" (Value = new comm time), "slow-node"
// (Value = slowdown factor), "restore-link", "restore-node", "crash".
type FaultSpec struct {
	At    string `json:"at"`
	Kind  string `json:"kind"`
	Node  string `json:"node"`
	Value string `json:"value,omitempty"`
}

// AdaptiveRequest runs the closed adaptation loop: inject the scripted
// faults, detect drift, re-negotiate on the measured platform, hot-swap
// mid-run.
type AdaptiveRequest struct {
	Platform string      `json:"platform"`
	Stop     string      `json:"stop,omitempty"`
	Faults   []FaultSpec `json:"faults,omitempty"`
	// Threshold is the drift detector's worst-node achieved/α ratio
	// (default 0.85); MaxAdapts bounds re-negotiations (default 4).
	Threshold  float64 `json:"threshold,omitempty"`
	MaxAdapts  int     `json:"max_adapts,omitempty"`
	DetectOnly bool    `json:"detect_only,omitempty"`
}

// AdaptiveResponse summarizes the loop's outcome.
type AdaptiveResponse struct {
	APIVersion  string `json:"api_version"`
	Fingerprint string `json:"fingerprint"`
	RunID       string `json:"run_id"`
	Adaptations int    `json:"adaptations"`
	Healed      bool   `json:"healed"`
	// FinalThroughput is the last deployed schedule's steady-state rate.
	FinalThroughput string  `json:"final_throughput"`
	Pre             *Report `json:"pre,omitempty"`
	Post            *Report `json:"post,omitempty"`
}

// ChurnRequest runs the churn-hardened loop under seeded stochastic
// fleet churn with incremental spine re-solves.
type ChurnRequest struct {
	Platform string `json:"platform"`
	Seed     int64  `json:"seed"`
	// Rate is expected churn events per 100 virtual time units at peak
	// intensity; Duration is the horizon (rational string).
	Rate           float64 `json:"rate,omitempty"`
	Duration       string  `json:"duration,omitempty"`
	CrashFraction  float64 `json:"crash_fraction,omitempty"`
	RetentionFloor float64 `json:"retention_floor,omitempty"`
}

// ChurnResponse summarizes retention against the oracle re-solve.
type ChurnResponse struct {
	APIVersion  string   `json:"api_version"`
	Fingerprint string   `json:"fingerprint"`
	RunID       string   `json:"run_id"`
	Baseline    string   `json:"baseline"`
	Oracle      string   `json:"oracle"`
	Final       string   `json:"final"`
	Retention   float64  `json:"retention"`
	Cycles      int      `json:"cycles"`
	Quarantined []string `json:"quarantined,omitempty"`
	Collapsed   bool     `json:"collapsed"`
	Healed      bool     `json:"healed"`
}

// Run statuses.
const (
	RunRunning = "running"
	RunDone    = "done"
	RunFailed  = "failed"
)

// RunRecord is one entry of the control plane's bounded run history.
type RunRecord struct {
	ID          string    `json:"id"`
	Kind        string    `json:"kind"` // submit|simulate|analyze|adaptive|churn
	Fingerprint string    `json:"fingerprint"`
	Status      string    `json:"status"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// Summary is a one-line human-readable outcome.
	Summary string `json:"summary,omitempty"`
	Error   *Error `json:"error,omitempty"`
}

// RunsResponse lists the retained run history, newest first.
type RunsResponse struct {
	APIVersion string      `json:"api_version"`
	Runs       []RunRecord `json:"runs"`
}

// TenantStats is one platform fingerprint's slice of the session
// shard: its cache counters and, when the solve is cached, its
// throughput.
type TenantStats struct {
	Fingerprint string `json:"fingerprint"`
	Hits        int    `json:"hits"`
	Misses      int    `json:"misses"`
	Evictions   int    `json:"evictions"`
	Throughput  string `json:"throughput,omitempty"`
}

// StatsResponse is the control plane's cache and fleet view.
type StatsResponse struct {
	APIVersion string `json:"api_version"`
	// Sessions / Capacity are the shard's live size and LRU bound;
	// Evicted counts sessions dropped over the server's lifetime.
	Sessions int `json:"sessions"`
	Capacity int `json:"capacity"`
	Evicted  int `json:"evicted"`
	// Runs is how many runs the bounded history currently retains.
	Runs    int           `json:"runs"`
	Tenants []TenantStats `json:"tenants"`
}

// Event is one server-sent event on the /api/v1/events stream: run
// lifecycle markers, analyzer verdicts, drift detections, churn cycles,
// and every event the underlying observability bus emits during an
// instrumented run.
type Event struct {
	Seq  uint64    `json:"seq"`
	Wall time.Time `json:"wall"`
	// Virtual is the producer's rational virtual time, when it has one.
	Virtual string `json:"virtual,omitempty"`
	// Run is the run the event belongs to ("" for server-wide events).
	Run  string `json:"run,omitempty"`
	Name string `json:"name"`
	// Attrs are the event's key/value annotations.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// HealthResponse is the /healthz document.
type HealthResponse struct {
	Status         string  `json:"status"`
	APIVersion     string  `json:"api_version"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Sessions       int     `json:"sessions"`
	Runs           int     `json:"runs"`
	RunsFailed     int     `json:"runs_failed"`
	EventsStreamed uint64  `json:"events_streamed"`
}

// VersionResponse is the GET /api/v1/version document.
type VersionResponse struct {
	APIVersion string `json:"api_version"`
	Server     string `json:"server"`
}
