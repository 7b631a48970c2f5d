#!/bin/sh
# serve-smoke: end-to-end smoke of the bwschedd control plane.
#
# Starts `bwsched serve` on a random port and asserts, over the real
# wire: a cold submit of the Section-8 platform is flagged "miss" and a
# second submit "hit", and a hit's raw answer is its miss's with only the
# cache value swapped; a malformed platform yields the typed 422
# not_a_tree envelope (HTTP and exit code 4 through the client), and a
# platform with the exponent 1p10000000 yields it within a second; one
# analyzer verdict arrives over the SSE stream; crash-fault adaptive runs
# answer 200 with one adaptation each and leave the daemon healthy; and a
# client pointed at the dead daemon exits 10.
set -eu

BIN=${BIN:-/tmp/bwsched-serve-smoke}
DIR=$(mktemp -d)
SERVE_PID=""
cleanup() {
	[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
	rm -rf "$DIR"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/bwsched
"$BIN" example > "$DIR/paper.txt"
printf 'P0 - - 9\nP1 NOPE 1 2\n' > "$DIR/bad.txt"

"$BIN" serve -addr 127.0.0.1:0 -addr-file "$DIR/addr" &
SERVE_PID=$!
i=0
while [ ! -s "$DIR/addr" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "serve-smoke: daemon never bound" >&2; exit 1; }
	sleep 0.1
done
ADDR=$(cat "$DIR/addr")
echo "serve-smoke: bwschedd at $ADDR"
PLATFORM=$(awk 'BEGIN { ORS = "" } { gsub(/\\/, "\\\\"); gsub(/"/, "\\\""); gsub(/\t/, "\\t"); print $0 "\\n" }' "$DIR/paper.txt")

echo "serve-smoke: cold submit must miss, second must hit"
"$BIN" submit -server "$ADDR" -f "$DIR/paper.txt" | tee "$DIR/first.out"
grep -q 'cache:        miss' "$DIR/first.out"
grep -q 'throughput:   10/9' "$DIR/first.out"
"$BIN" submit -server "$ADDR" -f "$DIR/paper.txt" | tee "$DIR/second.out"
grep -q 'cache:        hit' "$DIR/second.out"

echo "serve-smoke: a hit's raw answer must be its miss's with only the cache value swapped"
for i in 1 2; do
	curl -s -o "$DIR/raw$i.json" -X POST "http://$ADDR/api/v1/platforms" \
		-d "{\"platform\": \"$PLATFORM\", \"uniform_return\": \"1/2\"}"
done
grep -q '"cache": "miss"' "$DIR/raw1.json"
sed 's/"cache": "miss"/"cache": "hit"/' "$DIR/raw1.json" | cmp - "$DIR/raw2.json" ||
	{ echo "hit answer differs from the miss answer" >&2; exit 1; }

echo "serve-smoke: malformed platform must yield the typed 422 envelope"
status=$(curl -s -o "$DIR/env.json" -w '%{http_code}' \
	-X POST "http://$ADDR/api/v1/platforms" \
	-d '{"platform": "P0 - - 9\nP1 NOPE 1 2\n"}')
test "$status" = 422 || { echo "HTTP $status, want 422" >&2; exit 1; }
grep -q '"code": "not_a_tree"' "$DIR/env.json"
grep -q '"exit_code": 4' "$DIR/env.json"
rc=0; "$BIN" submit -server "$ADDR" -f "$DIR/bad.txt" || rc=$?
test "$rc" -eq 4 || { echo "client exited $rc on the envelope, want 4" >&2; exit 1; }
status=$(curl -s -m 1 -o "$DIR/exp.json" -w '%{http_code}' \
	-X POST "http://$ADDR/api/v1/platforms" -d '{"platform": "P0 - - 1p10000000\n"}' || true)
test "$status" = 422 || { echo "exponent platform: HTTP $status within 1 s, want 422" >&2; exit 1; }
grep -q '"code": "not_a_tree"' "$DIR/exp.json"

echo "serve-smoke: one analyzer verdict must arrive over SSE"
"$BIN" watch -server "$ADDR" -event analyze.verdict -n 1 > "$DIR/watch.out" &
WATCH_PID=$!
i=0
while kill -0 "$WATCH_PID" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -gt 30 ] && { kill "$WATCH_PID"; echo "serve-smoke: no verdict over SSE" >&2; exit 1; }
	"$BIN" submit -server "$ADDR" -f "$DIR/paper.txt" -analyze > /dev/null
	sleep 0.2
done
wait "$WATCH_PID"
grep -q '"name":"analyze.verdict"' "$DIR/watch.out"

echo "serve-smoke: crash-fault adaptive runs must answer 200 with one adaptation"
for node in P3 P8 P6; do
	status=$(curl -s -o "$DIR/adaptive.json" -w '%{http_code}' \
		-X POST "http://$ADDR/api/v1/adaptive" \
		-d "{\"platform\": \"$PLATFORM\", \"stop\": \"600\", \"faults\": [{\"at\": \"100\", \"kind\": \"crash\", \"node\": \"$node\"}]}" || true)
	test "$status" = 200 || { echo "crash $node: HTTP $status, want 200" >&2; cat "$DIR/adaptive.json" >&2; exit 1; }
	grep -q '"adaptations": 1,' "$DIR/adaptive.json" || { echo "crash $node: want one adaptation" >&2; cat "$DIR/adaptive.json" >&2; exit 1; }
done
status=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/healthz" || true)
test "$status" = 200 || { echo "healthz HTTP $status after the crash faults, want 200" >&2; exit 1; }

echo "serve-smoke: a dead daemon must map to exit code 10"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
rc=0; "$BIN" submit -server "$ADDR" -f "$DIR/paper.txt" || rc=$?
test "$rc" -eq 10 || { echo "client exited $rc against a dead daemon, want 10" >&2; exit 1; }

echo "serve-smoke: PASS"
