#!/usr/bin/env bash
# Process-level smoke of the HTTP daemons — the things `go test` cannot
# see: real listeners, real signals, real exit statuses.
#
# Boots two dnsmonitord shards and one dnsfleetd over them, reads and
# writes through the router, then SIGTERMs all three and checks that
# each drained and exited 0, that both shard snapshots were saved, and
# that a daemon started on an occupied port fails before it crawls.
#
# Usage: scripts/daemon-smoke.sh   (from the repository root; needs curl)
set -euo pipefail

base=${SMOKE_PORT_BASE:-18460}
work=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT

fail() {
	echo "daemon-smoke: FAIL: $*" >&2
	for f in "$work"/*.log; do echo "--- $f" >&2; cat "$f" >&2; done
	exit 1
}

# wait_ready URL: poll until the daemon answers (it binds before it
# crawls, so a connection alone proves nothing).
wait_ready() {
	for _ in $(seq 1 150); do
		curl -fsS -o /dev/null "$1" 2>/dev/null && return 0
		sleep 0.2
	done
	fail "$1 never answered"
}

go build -o "$work/" ./cmd/dnsmonitord ./cmd/dnsfleetd

for k in 0 1; do
	"$work/dnsmonitord" -addr "127.0.0.1:$((base + 1 + k))" -seed 7 -names 200 \
		-shard-name "s$k" -snapshot "$work/s$k.snap" >"$work/mon$k.log" 2>&1 &
	pids+=($!)
done
wait_ready "http://127.0.0.1:$((base + 1))/summary"
wait_ready "http://127.0.0.1:$((base + 2))/summary"

# A second daemon on an occupied address must fail at bind time: fast,
# non-zero, and before any world-generation or crawl log line.
start=$(date +%s%N)
if "$work/dnsmonitord" -addr "127.0.0.1:$((base + 1))" -names 200 >"$work/dup.log" 2>&1; then
	fail "second dnsmonitord on an occupied -addr exited 0"
fi
took_ms=$((($(date +%s%N) - start) / 1000000))
[ "$took_ms" -lt 1000 ] || fail "occupied -addr took ${took_ms}ms to fail, want < 1000ms"
grep -q "address already in use" "$work/dup.log" || fail "occupied -addr: no bind error logged"
if grep -Eq "generating world|crawling" "$work/dup.log"; then
	fail "occupied -addr discovered only after start-up work began"
fi

router="http://127.0.0.1:$base"
"$work/dnsfleetd" -addr "127.0.0.1:$base" -interval 60s \
	-shards "s0=http://127.0.0.1:$((base + 1)),s1=http://127.0.0.1:$((base + 2))" >"$work/fleet.log" 2>&1 &
pids+=($!)
wait_ready "$router/summary"

summary=$(curl -fsS "$router/summary")
echo "$summary" | grep -q '"stale": false' || fail "/summary is stale or malformed: $summary"
echo "$summary" | grep -q '"names": 200' || fail "/summary does not hold the 200-name corpus: $summary"

added=$(curl -fsS -X POST --data 'www.smoke-a.com www.smoke-b.org' "$router/add")
echo "$added" | grep -q '"failed_shards": 0' || fail "POST /add: $added"
echo "$added" | grep -q '"generation": 2' || fail "POST /add minted no merged generation: $added"

delta=$(curl -fsS "$router/diff?from=1&to=2")
echo "$delta" | grep -q '"to_gen": 2' || fail "/diff?from=1&to=2: $delta"
# dnsfleetd mounts the same read set as dnsmonitord, /watch included.
curl -fsS "$router/watch" | grep -q '"grew"' || fail "/watch not served by the router"

for pid in "${pids[@]}"; do kill -TERM "$pid"; done
for i in "${!pids[@]}"; do
	status=0
	wait "${pids[$i]}" || status=$?
	[ "$status" -eq 0 ] || fail "daemon $i exited $status after SIGTERM, want 0"
done
pids=()

for k in 0 1; do
	[ -s "$work/s$k.snap" ] || fail "shard s$k left no snapshot"
	grep -q "draining and shutting down" "$work/mon$k.log" || fail "shard s$k did not drain"
done
grep -q "draining and shutting down" "$work/fleet.log" || fail "router did not drain"
echo "daemon-smoke: ok"
