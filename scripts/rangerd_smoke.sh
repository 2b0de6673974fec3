#!/usr/bin/env bash
# End-to-end smoke for rangerd, exercising the durability contract the
# service exists for:
#
#   1. serve: start the daemon, submit a tiny campaign, stream it to
#      completion, and verify its hash chain offline.
#   2. crash: submit a longer campaign, kill -9 the daemon once progress
#      has persisted, restart over the same store, and require the job to
#      complete with a verifiable chain.
#   3. persistent: submit a persistent weight-surface job (sequences of
#      inferences over a stuck weight fault), kill -9 mid-run, restart,
#      and require it to resume to a completed PersistentOutcome.
#   4. adaptive: submit an adaptive stratified job (one allocation round
#      per block), kill -9 after its first persisted block, restart, and
#      require it to resume (replaying the persisted per-stratum
#      evidence) to completion.
#   5. verify: `rangerd verify` re-validates every chain with no daemon.
#
# Requires curl and jq. Respects $RANGERD (binary path, default builds
# nothing — pass it) and $PORT.
set -euo pipefail

BIN=${RANGERD:?set RANGERD to the rangerd binary path}
PORT=${PORT:-7877}
BASE="http://127.0.0.1:$PORT"
DATA=$(mktemp -d)
LOG=$(mktemp)
PID=""

cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$DATA" "$LOG"
}
trap cleanup EXIT

fail() {
  echo "SMOKE FAIL: $*" >&2
  echo "--- daemon log ---" >&2
  cat "$LOG" >&2
  exit 1
}

start_daemon() {
  "$BIN" serve -addr "127.0.0.1:$PORT" -data "$DATA" -jobs 1 -block 32 >>"$LOG" 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
      return
    fi
    sleep 0.1
  done
  fail "daemon did not become healthy"
}

submit() { # submit <spec-json> -> job id
  curl -fsS -X POST -d "$1" "$BASE/v1/jobs" | jq -re .id
}

job_field() { # job_field <id> <jq-expr>
  curl -fsS "$BASE/v1/jobs/$1" | jq -re "$2"
}

wait_state() { # wait_state <id> <state> <tries>
  local id=$1 want=$2 tries=$3 state
  for _ in $(seq 1 "$tries"); do
    state=$(job_field "$id" .status.state)
    if [ "$state" = "$want" ]; then
      return
    fi
    case "$state" in failed | cancelled) fail "job $id reached $state: $(job_field "$id" '.status.error // empty')" ;; esac
    sleep 0.2
  done
  fail "job $id stuck in $state (wanted $want)"
}

echo "== serve: tiny campaign to completion"
start_daemon
ID1=$(submit '{"model":"lenet","trials":24,"inputs":2,"seed":11,"untrained":true,"block_trials":10}')
wait_state "$ID1" completed 300
TRIALS=$(job_field "$ID1" .status.outcome.trials)
[ "$TRIALS" = 48 ] || fail "job $ID1 completed with $TRIALS trials, want 48"
HASH1=$(job_field "$ID1" .status.last_hash)

echo "== stream: SSE endpoint reports the terminal status"
curl -fsS --max-time 10 "$BASE/v1/jobs/$ID1/stream" | grep -q '"state":"completed"' ||
  fail "stream of completed job carried no terminal status"

echo "== crash: kill -9 mid-campaign, restart, resume"
ID2=$(submit '{"model":"lenet","trials":600,"inputs":2,"seed":12,"untrained":true,"block_trials":16}')
for _ in $(seq 1 300); do
  FRONTIER=$(job_field "$ID2" .status.frontier)
  [ "$FRONTIER" -ge 32 ] && break
  sleep 0.1
done
[ "$FRONTIER" -ge 32 ] || fail "job $ID2 persisted no progress before the kill"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

start_daemon
wait_state "$ID2" completed 600
TRIALS=$(job_field "$ID2" .status.outcome.trials)
[ "$TRIALS" = 1200 ] || fail "resumed job $ID2 completed with $TRIALS trials, want 1200"

echo "== persistent: weight-surface job, kill -9 resume"
ID3=$(submit '{"model":"lenet","trials":96,"inputs":2,"seed":13,"untrained":true,"surface":"weight","sequence_len":4,"repair":true,"block_trials":8}')
for _ in $(seq 1 300); do
  FRONTIER=$(job_field "$ID3" .status.frontier)
  [ "$FRONTIER" -ge 8 ] && break
  sleep 0.1
done
[ "$FRONTIER" -ge 8 ] || fail "persistent job $ID3 persisted no progress before the kill"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

start_daemon
wait_state "$ID3" completed 600
SEQS=$(job_field "$ID3" .status.persistent.sequences)
[ "$SEQS" = 96 ] || fail "persistent job $ID3 completed with $SEQS sequences, want 96"
job_field "$ID3" '.status.outcome == null' >/dev/null ||
  fail "persistent job $ID3 recorded a transient outcome"
kill "$PID" 2>/dev/null
wait "$PID" 2>/dev/null || true
PID=""

echo "== adaptive: stratified job, kill -9 after the first block, resume"
start_daemon
ID4=$(submit '{"model":"lenet","trials":600,"inputs":1,"seed":14,"untrained":true,"adaptive":"stratified","block_trials":16}')
for _ in $(seq 1 300); do
  FRONTIER=$(job_field "$ID4" .status.frontier)
  [ "$FRONTIER" -ge 16 ] && break
  sleep 0.1
done
[ "$FRONTIER" -ge 16 ] || fail "adaptive job $ID4 persisted no progress before the kill"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""
STATE=$(jq -r .state "$DATA/$ID4/status.json")
[ "$STATE" != completed ] || fail "adaptive job $ID4 completed before the kill; nothing to resume"

start_daemon
wait_state "$ID4" completed 600
curl -fsS "$BASE/metrics" | grep -qx 'rangerd_jobs_resumed_total 1' ||
  fail "adaptive job $ID4 did not resume past its persisted frontier"
TRIALS=$(job_field "$ID4" .status.outcome.trials)
FRONTIER=$(job_field "$ID4" .status.frontier)
[ "$TRIALS" -gt 16 ] && [ "$TRIALS" = "$FRONTIER" ] ||
  fail "adaptive job $ID4 completed with $TRIALS trials at frontier $FRONTIER"
kill "$PID" 2>/dev/null
wait "$PID" 2>/dev/null || true
PID=""

echo "== verify: offline re-validation of every chain"
"$BIN" verify -data "$DATA" || fail "rangerd verify rejected the store"

echo "== verify: tampering is detected"
CHAIN="$DATA/$ID1/chain.jsonl"
cp "$CHAIN" "$CHAIN.orig"
# Edit one trial verdict inside the first block: the block seal must
# catch it.
sed -i '1s/"trial":1/"trial":19/' "$CHAIN"
cmp -s "$CHAIN" "$CHAIN.orig" && fail "tamper edit did not change the chain"
if "$BIN" verify -data "$DATA" "$ID1" >/dev/null 2>&1; then
  fail "rangerd verify accepted a tampered chain"
fi
mv "$CHAIN.orig" "$CHAIN"
"$BIN" verify -data "$DATA" "$ID1" >/dev/null || fail "restored chain failed verification"

echo "SMOKE OK: submit, stream, kill -9 resume ($HASH1 ...), persistent-surface resume, adaptive resume, offline verify, tamper detection"
