# Tier-1 verification: everything a change must pass before merging.
# `make tier1` = format gate + build + tests + vet + race detector on the
# packages that actually run concurrent code (the distributed protocol,
# the goroutine runtime, the adaptive controller, the observability
# layer's lock-free paths, and the tree's shared fingerprint memo).

GO ?= go

.PHONY: tier1 fmt build test vet race bench bench-trajectory bench-baseline adapt-demo engine-diff churn-smoke serve-smoke resultreturn-smoke

tier1: fmt build test vet race

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

build:
	$(GO) build ./...

# -count=2 runs every test twice in one process, catching state leaked
# between runs (package-level caches, leftover goroutines, sync.Once
# misuse in the Session memo).
test:
	$(GO) test -count=2 ./...

# e2ebench is a module of its own (replace bwc => ../), so the root
# ./... never compiles it; vet it too so a facade change that breaks the
# benchmark fails here.
vet:
	$(GO) vet ./...
	cd e2ebench && $(GO) vet ./...

race:
	$(GO) test -race . ./internal/tree ./internal/engine ./internal/proto ./internal/runtime ./internal/adapt ./internal/sim ./internal/obs ./internal/obs/analyze ./internal/server ./api/v1 ./cmd/bwsched

# Differential smoke: the virtual-time and wall-clock backends must
# produce byte-identical per-node event streams through the shared
# engine (run twice, under the race detector). Covers the forward-only
# sim-vs-runtime proof, the zero-return byte-identity sweep across
# every treegen family, and the sim-vs-runtime proof on result-return
# platforms.
engine-diff:
	$(GO) test -race -count=2 -run TestDifferential -v ./internal/engine

# Observability overhead benchmarks (EXPERIMENTS.md records the numbers).
bench:
	$(GO) test -bench 'BenchmarkObs' -benchmem -run '^$$' .

# Perf trajectory: run the registered suite (internal/perf/suite) and
# gate it against the committed baseline. This is what the CI bench-gate
# job runs; exit code 8 means a metric regressed. BENCHTIME is pinned so
# every point on the trajectory measures the same way.
BENCHTIME ?= 1s
BASELINE  ?= BENCH_PR30.json
bench-trajectory:
	$(GO) run ./cmd/bwsched bench -short -benchtime $(BENCHTIME) -compare $(BASELINE)

# Refresh the committed baseline (full suite, with profiles). Run on the
# machine whose fingerprint the trajectory should carry, then commit the
# updated $(BASELINE) — refreshing it is a deliberate act, not a test fix.
bench-baseline:
	$(GO) run ./cmd/bwsched bench -benchtime $(BENCHTIME) -label $(patsubst BENCH_%.json,%,$(BASELINE)) \
		-out $(BASELINE) -profile bench-profiles

# The Section 5 adaptation loop end to end: degrade P1's link mid-run,
# watch the drift fire, the schedule re-negotiate and hot-swap, and the
# post-swap regime pass conformance.
adapt-demo:
	$(GO) run ./cmd/bwsched example | \
		$(GO) run ./cmd/bwsched adapt -degrade P1=4 -at 120 -stop 400

# Churn smoke: the churn-hardened loop must self-stabilize under the
# pinned seed (exit 0), collapse with exit code 9 when crash-heavy churn
# drives retained throughput below the retention floor, and exit 5
# (ErrInfeasible) at the first drift after the root crashes. Runs the
# built binary, not `go run`, which flattens exit codes to 1.
churn-smoke:
	$(GO) build -o /tmp/bwsched-churn ./cmd/bwsched
	/tmp/bwsched-churn example > /tmp/bwsched-churn-platform.txt
	/tmp/bwsched-churn churn -f /tmp/bwsched-churn-platform.txt \
		-seed 6 -rate 3 -duration 600
	code=0; /tmp/bwsched-churn churn -f /tmp/bwsched-churn-platform.txt \
		-seed 3 -rate 40 -crash-frac 0.9 -duration 600 || code=$$?; \
		test "$$code" -eq 9
	code=0; /tmp/bwsched-churn churn -f /tmp/bwsched-churn-platform.txt \
		-seed 6 -rate 3 -duration 600 -fault 100:crash:P0 || code=$$?; \
		test "$$code" -eq 5

# Result-return smoke: the Section-9 counter-example end to end. The
# CLI must report the 2-vs-1 separate-vs-folded advantage, drain every
# result through the engine, and take a PASS from the analyzer's
# result-return check (exit 0). Forward-only platforms must be refused
# (exit 1). On the two-worker return star (d = 1) the distributed
# protocol must agree with BW-First and the LP (verify exits 0) and stop
# after P1, whose results fill the root's receive port: 4 messages, 2
# nodes. Built binary, not `go run`, to preserve exit codes.
resultreturn-smoke:
	$(GO) build -o /tmp/bwsched-rr ./cmd/bwsched
	printf 'M - - inf\nP1 M 1/2 1 1/2\nP2 M 1/2 1 1/2\n' \
		> /tmp/bwsched-rr-platform.txt
	/tmp/bwsched-rr resultreturn -f /tmp/bwsched-rr-platform.txt -n 80
	printf 'M - - inf\nP1 M 1/2 1\nP2 M 1/2 1\n' \
		> /tmp/bwsched-rr-forward.txt
	code=0; /tmp/bwsched-rr resultreturn -f /tmp/bwsched-rr-forward.txt \
		|| code=$$?; test "$$code" -eq 1
	/tmp/bwsched-rr resultreturn -f /tmp/bwsched-rr-forward.txt -d 1/2 -n 40
	printf 'P0 - - inf -\nP1 P0 1/2 1 1\nP2 P0 1/2 1 1\n' \
		> /tmp/bwsched-rr-star.txt
	/tmp/bwsched-rr verify -f /tmp/bwsched-rr-star.txt
	/tmp/bwsched-rr obs -f /tmp/bwsched-rr-star.txt > /tmp/bwsched-rr-obs.txt
	grep -Fx 'protocol:    4 messages, 2 nodes visited' /tmp/bwsched-rr-obs.txt

# Control-plane smoke: start bwschedd on a random port and drive the
# api/v1 wire end to end — cache miss/hit markers, the typed 422
# envelope, an SSE analyzer verdict, and exit 10 on a dead daemon.
serve-smoke:
	sh scripts/serve-smoke.sh
