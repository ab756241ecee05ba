#!/bin/sh
# obs_smoke.sh — end-to-end smoke test of the observability surface.
#
# Exercises the export paths wired in this repo:
#   1. bfsd with -debug-addr: /debug/pprof/heap and /debug/flightrecorder
#      must serve after a query, and the flight record must carry trace ids.
#      The time-series sampler must populate /debug/stats and render live
#      sparklines on /debug/dash.
#   2. bfsd without -debug-addr: the debug surface must NOT be reachable on
#      the main listener (off by default).
#   3. bfsrun -trace: the Chrome trace-event JSON must validate (tracecheck)
#      and contain the csr-build span plus at least one traversal.
#   4. bfsrun -cluster -trace: a traced in-process 2-shard cluster query
#      must export one merged multi-process trace that passes the extended
#      tracecheck (-shards: distinct shard pid tracks, clock-aligned steps,
#      RPC sub-spans).
#   5. bfsrun -tracetext: the per-level text table, the one per-level text
#      output, must print its header (iter, tasks, steals columns).
#   6. bfsrun -cluster -tracetext: the coordinator's per-level table must
#      carry the shards' scanned edges (not 0 on every level).
#
# Run from the repo root: ./scripts/obs_smoke.sh
set -eu

ADDR=127.0.0.1:18080
DEBUG=127.0.0.1:16061
TMP="$(mktemp -d)"
BFSD_PID=""

cleanup() {
	[ -n "$BFSD_PID" ] && kill "$BFSD_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fetch() { # fetch URL [curl args...]
	url="$1"
	shift
	curl -sS --max-time 10 "$@" "$url"
}

wait_listen() { # wait_listen URL: poll until the server answers
	i=0
	until curl -s --max-time 2 -o /dev/null "$1"; do
		i=$((i + 1))
		if [ "$i" -ge 50 ]; then
			echo "obs_smoke: $1 never came up" >&2
			exit 1
		fi
		sleep 0.2
	done
}

echo "== build"
go build -o "$TMP/bfsd" ./cmd/bfsd
go build -o "$TMP/bfsrun" ./cmd/bfsrun
go build -o "$TMP/tracecheck" ./scripts/tracecheck

echo "== bfsd with -debug-addr"
"$TMP/bfsd" -graph demo=kron:scale=10 -addr "$ADDR" -debug-addr "$DEBUG" \
	-slow-query 1us -stats-interval 100ms >"$TMP/bfsd.log" 2>&1 &
BFSD_PID=$!
wait_listen "http://$ADDR/graphs"

# One query so the flight recorder has something to show.
fetch "http://$ADDR/bfs" -d '{"graph":"demo","source":3,"targets":[7,9]}' >"$TMP/query.json"
grep -q '"trace_id"' "$TMP/query.json" || {
	echo "obs_smoke: query response carried no trace_id" >&2
	cat "$TMP/query.json" >&2
	exit 1
}

fetch "http://$DEBUG/debug/pprof/heap?debug=1" >"$TMP/heap.txt"
grep -q "heap profile" "$TMP/heap.txt" || {
	echo "obs_smoke: /debug/pprof/heap did not serve a heap profile" >&2
	exit 1
}

fetch "http://$DEBUG/debug/flightrecorder" >"$TMP/flight.json"
grep -q '"trace_id"' "$TMP/flight.json" || {
	echo "obs_smoke: flight record has no trace_id" >&2
	cat "$TMP/flight.json" >&2
	exit 1
}
grep -q '"graph-build"' "$TMP/flight.json" || {
	echo "obs_smoke: flight record has no graph-build span" >&2
	exit 1
}

# Give the 100ms stats sampler a few ticks, then the time-series store
# must serve windowed samples and the dashboard must render sparklines.
sleep 0.5
fetch "http://$DEBUG/debug/stats?window=30s" >"$TMP/stats.json"
grep -q '"demo/bfsd_requests_total"' "$TMP/stats.json" || {
	echo "obs_smoke: /debug/stats has no demo/bfsd_requests_total series" >&2
	cat "$TMP/stats.json" >&2
	exit 1
}
# The sampler samples what /metrics prints, under the same name: the last
# unquantiled demo line must be a <graph>/<name> series.
fetch "http://$ADDR/metrics" >"$TMP/metrics.txt"
key=$(sed -n 's/^\([a-z_]*\){graph="demo"} .*/demo\/\1/p' "$TMP/metrics.txt" | tail -n 1)
[ -n "$key" ] && grep -q "\"$key\"" "$TMP/stats.json" || {
	echo "obs_smoke: /metrics name '$key' is not a /debug/stats series" >&2
	exit 1
}
fetch "http://$DEBUG/debug/dash" >"$TMP/dash.html"
grep -q '<polyline points=' "$TMP/dash.html" || {
	echo "obs_smoke: /debug/dash rendered no sparkline polylines" >&2
	exit 1
}
grep -q 'demo/bfsd_gteps' "$TMP/dash.html" || {
	echo "obs_smoke: /debug/dash is missing the demo/bfsd_gteps row" >&2
	exit 1
}

# The debug surface must not leak onto the main listener.
code=$(curl -s -o /dev/null -w '%{http_code}' --max-time 5 "http://$ADDR/debug/pprof/heap")
if [ "$code" = "200" ]; then
	echo "obs_smoke: main listener serves /debug/pprof/heap (should be debug-addr only)" >&2
	exit 1
fi

kill "$BFSD_PID"
wait "$BFSD_PID" 2>/dev/null || true
BFSD_PID=""

echo "== bfsd without -debug-addr stays dark (verified above: main addr refused pprof)"

echo "== bfsrun -trace"
"$TMP/bfsrun" -graph kron:scale=10 -algo mspbfs -sources 8 -trace "$TMP/trace.json" >/dev/null
"$TMP/tracecheck" -require csr-build,relabel "$TMP/trace.json"

echo "== bfsrun -cluster -trace (merged multi-process trace)"
"$TMP/bfsrun" -graph kron:scale=10 -sources 8 -cluster 2 -trace "$TMP/cluster-trace.json" >/dev/null
"$TMP/tracecheck" -shards 2 -require csr-build "$TMP/cluster-trace.json"

echo "== bfsrun -tracetext (per-level table)"
"$TMP/bfsrun" -graph kron:scale=10 -algo mspbfs -sources 8 -workers 2 -tracetext >"$TMP/tracetext.txt"
grep -Eq '^ *iter +dir .* tasks +steals' "$TMP/tracetext.txt" || {
	echo "obs_smoke: bfsrun -tracetext printed no per-level table header" >&2
	cat "$TMP/tracetext.txt" >&2
	exit 1
}

echo "== bfsrun -cluster -tracetext (shard counts in the coordinator's table)"
"$TMP/bfsrun" -graph kron:scale=10 -sources 8 -cluster 2 -tracetext >"$TMP/cluster-tracetext.txt"
# Columns: iter dir reason frontier next scanned ...
awk '$2 ~ /^(top-down|bottom-up)$/ { levels++; if ($6 > 0) scanned++ }
	END { exit !(levels > 0 && scanned > 0) }' "$TMP/cluster-tracetext.txt" || {
	echo "obs_smoke: cluster per-level table shows no scanned edges" >&2
	cat "$TMP/cluster-tracetext.txt" >&2
	exit 1
}

echo "obs_smoke: ok"
