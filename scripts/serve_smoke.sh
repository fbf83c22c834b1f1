#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the fleet service.
#
# Boots `storagesim -service` on an ephemeral port, submits a small grid
# job over POST /jobs, polls GET /jobs/<id> until it finishes, fetches
# every fleet figure and the dashboard index, then shuts the service down
# with SIGINT and checks the graceful exit status (130). Needs only a Go
# toolchain and curl. Run from the repo root: `make serve-smoke`.
set -eu

workdir=$(mktemp -d)
logfile="$workdir/serve.log"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$logfile" >&2 || true
    exit 1
}

echo "serve-smoke: building storagesim"
go build -o "$workdir/storagesim" ./cmd/storagesim

"$workdir/storagesim" -service -serve 127.0.0.1:0 -drain 30 >"$logfile" 2>&1 &
pid=$!

# The service logs its bound address; wait for it.
base=""
for _ in $(seq 1 50); do
    base=$(sed -n 's#.*fleet service on \(http://[0-9.:]*\)/.*#\1#p' "$logfile" | head -1)
    [ -n "$base" ] && break
    kill -0 "$pid" 2>/dev/null || fail "service exited during startup"
    sleep 0.1
done
[ -n "$base" ] || fail "service never logged its address"
echo "serve-smoke: service up at $base"

curl -fsS "$base/healthz" >/dev/null || fail "healthz"

spec='{
  "name": "smoke",
  "devices": ["cu140", "intel"],
  "utilizations": [0.7, 0.9],
  "synth_ops": 2000,
  "replicas": 2,
  "workers": 4
}'
status=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$spec" "$base/jobs") \
    || fail "POST /jobs"
job=$(printf '%s' "$status" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$job" ] || fail "no job id in response: $status"
echo "serve-smoke: submitted job $job"

finished=""
for _ in $(seq 1 300); do
    status=$(curl -fsS "$base/jobs/$job") || fail "GET /jobs/$job"
    case "$status" in
    *'"finished":true'*) finished=yes; break ;;
    esac
    sleep 0.1
done
[ -n "$finished" ] || fail "job did not finish: $status"
case "$status" in
*'"state":"done"'*) ;;
*) fail "job finished but not done: $status" ;;
esac
case "$status" in
*'"failed":0'*) ;;
*) fail "job has failed runs: $status" ;;
esac
echo "serve-smoke: job done"

for kind in timeline latency wear energy cleaning faults array; do
    svg=$(curl -fsS "$base/jobs/$job/plot/$kind") || fail "plot $kind"
    case "$svg" in
    '<svg'*) ;;
    *) fail "plot $kind is not an SVG" ;;
    esac
done
echo "serve-smoke: all seven figures render"

index=$(curl -fsS "$base/") || fail "GET /"
case "$index" in
*"$job"*) ;;
*) fail "index does not show job $job" ;;
esac

curl -fsS "$base/metrics" | grep -q 'storagesim_fleet_jobs_submitted_total 1' \
    || fail "metrics missing fleet counters"

# Graceful shutdown: SIGINT drains and exits 130.
kill -INT "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" -eq 130 ] || fail "service exited $rc, want 130"

echo "serve-smoke: PASS"
