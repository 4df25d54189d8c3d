#!/usr/bin/env sh
# Smoke test for the superposed certification daemon, in two acts:
#
#  1. Classic pass: boot on an ephemeral port, submit a small detect
#     job, poll to completion, check the report carries a verdict, then
#     drain the daemon with SIGTERM.
#  2. Kill-and-recover: boot with -data-dir (journal on), submit a job,
#     SIGKILL the daemon mid-flight, restart on the same data dir, and
#     require the recovered daemon to finish the same job ID.
#
# Requires only the go toolchain and a POSIX shell (no curl/jq): the
# HTTP client half lives in scripts/smokeclient, a tiny stdlib program.
set -eu

cd "$(dirname "$0")/.."

log=$(mktemp)
log2=$(mktemp)
log3=$(mktemp)
datadir=$(mktemp -d)
pid="" pid2="" pid3=""
trap 'for p in "$pid" "$pid2" "$pid3"; do [ -n "$p" ] && kill "$p" 2>/dev/null || true; done; rm -rf "$log" "$log2" "$log3" "$datadir"' EXIT INT TERM

go build -o /tmp/superposed-smoke ./cmd/superposed
go build -o /tmp/smokeclient-smoke ./scripts/smokeclient

# wait_banner <log> <pid>: print the daemon's bound base URL.
wait_banner() {
    b=""
    for _ in $(seq 1 100); do
        b=$(sed -n 's/^superposed: listening on \(http:\/\/.*\)$/\1/p' "$1")
        [ -n "$b" ] && break
        kill -0 "$2" 2>/dev/null || { echo "daemon died at startup:" >&2; cat "$1" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$b" ] || { echo "daemon never announced its port:" >&2; cat "$1" >&2; exit 1; }
    echo "$b"
}

# --- Act 1: classic pass -------------------------------------------------
/tmp/superposed-smoke -addr 127.0.0.1:0 -drain 20s >"$log" 2>&1 &
pid=$!
base=$(wait_banner "$log" "$pid")
echo "smoke: daemon at $base"

/tmp/smokeclient-smoke -base "$base"

# Graceful drain: SIGTERM, then require a clean exit and the farewell.
kill -TERM "$pid"
wait "$pid" || { echo "daemon exited non-zero after SIGTERM:"; cat "$log"; exit 1; }
grep -q "drained, bye" "$log" || { echo "daemon exited without draining:"; cat "$log"; exit 1; }
pid=""
echo "smoke: classic pass OK"

# --- Act 2: kill-and-recover ---------------------------------------------
/tmp/superposed-smoke -addr 127.0.0.1:0 -drain 20s -data-dir "$datadir" >"$log2" 2>&1 &
pid2=$!
base2=$(wait_banner "$log2" "$pid2")
echo "smoke: journaled daemon at $base2 (data dir $datadir)"

id=$(/tmp/smokeclient-smoke -base "$base2" -mode submit)
echo "smoke: submitted $id, delivering SIGKILL"
kill -9 "$pid2"
wait "$pid2" 2>/dev/null || true
pid2=""

/tmp/superposed-smoke -addr 127.0.0.1:0 -drain 20s -data-dir "$datadir" >"$log3" 2>&1 &
pid3=$!
base3=$(wait_banner "$log3" "$pid3")
echo "smoke: restarted daemon at $base3, waiting for recovery"

/tmp/smokeclient-smoke -base "$base3" -mode ready -timeout 30s
/tmp/smokeclient-smoke -base "$base3" -mode wait -job "$id"

kill -TERM "$pid3"
wait "$pid3" || { echo "recovered daemon exited non-zero after SIGTERM:"; cat "$log3"; exit 1; }
grep -q "drained, bye" "$log3" || { echo "recovered daemon exited without draining:"; cat "$log3"; exit 1; }
pid3=""
echo "smoke: kill-and-recover OK"
echo "smoke: OK"
