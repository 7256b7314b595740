#!/usr/bin/env bash
# Churn smoke of the elastic socket runtime: one `fedsz serve` root,
# two relay processes, four workers — and two scripted faults. Worker 1
# kills its session on receiving round 2's broadcast (1-based; the
# `--drop-at-round 1` knob) and must reconnect and resume; relay 1
# terminates at the start of round 3 (`--fail-at-round 2`) and its two
# workers must fail over to the root (`--fallback`), which adopts them
# onto the dead relay's shard range. The run must complete all rounds,
# reproduce the in-memory `fedsz fl` checksum bit for bit (every client
# survives the churn, so parity is over the full cohort), report the
# eviction/reconnect/re-parent counts in the run_report.v2 JSON, and
# show nonzero fedsz_net_reconnects_total / fedsz_net_reparent_total
# on the live /metrics endpoint. CI runs this under a 120 s timeout;
# healthy runs finish in a few seconds.
set -euo pipefail

BIN=${BIN:-target/release/fedsz}
PORT=${PORT:-7463}
MPORT=$((PORT + 1))
R0PORT=$((PORT + 2))
R1PORT=$((PORT + 3))
# Both faults land by round 3 of five. The whole run can take a
# quarter of a second, and the orphans' adoption bumps the churn
# counters tens of ms before the last round ends; the root keeps
# /metrics up for a one-second grace after it, so the scrape loop below
# still sees them before the process exits.
FLAGS=(--clients 4 --tree 2 --rounds 5 --train-per-class 4 --seed 9)
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

want=$("$BIN" fl "${FLAGS[@]}" | grep '^global checksum' | awk '{print $3}')
echo "in-memory checksum:     $want"

wait_port() {
  local port=$1 label=$2
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
      exec 3>&- 3<&- || true
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: $label never started listening on $port"
  return 1
}

"$BIN" serve --bind "127.0.0.1:$PORT" --metrics-addr "127.0.0.1:$MPORT" --json "${FLAGS[@]}" \
    > "$WORKDIR/serve.json" 2> "$WORKDIR/serve.err" &
root_pid=$!
wait_port "$PORT" "root serve" || { cat "$WORKDIR/serve.err"; exit 1; }

"$BIN" serve --shard 0 --connect "127.0.0.1:$PORT" --bind "127.0.0.1:$R0PORT" "${FLAGS[@]}" \
    > "$WORKDIR/relay0.out" 2>&1 &
relay0_pid=$!
# The doomed relay: terminates at the start of round 3 (0-based 2).
"$BIN" serve --shard 1 --connect "127.0.0.1:$PORT" --bind "127.0.0.1:$R1PORT" \
    --fail-at-round 2 "${FLAGS[@]}" \
    > "$WORKDIR/relay1.out" 2>&1 &
relay1_pid=$!
wait_port "$R0PORT" "relay 0"
wait_port "$R1PORT" "relay 1"

worker_pids=()
# Shard 0's workers; worker 1 severs its session mid-round-2 (0-based
# 1) and must resume against the same relay.
"$BIN" worker --id 0 --connect "127.0.0.1:$R0PORT" "${FLAGS[@]}" \
    > "$WORKDIR/worker0.out" 2>&1 &
worker_pids+=($!)
"$BIN" worker --id 1 --connect "127.0.0.1:$R0PORT" --drop-at-round 1 "${FLAGS[@]}" \
    > "$WORKDIR/worker1.out" 2>&1 &
worker_pids+=($!)
# Shard 1's workers carry the root as --fallback: when their relay
# dies they must be re-parented there.
for i in 2 3; do
  "$BIN" worker --id "$i" --connect "127.0.0.1:$R1PORT" --fallback "127.0.0.1:$PORT" "${FLAGS[@]}" \
      > "$WORKDIR/worker$i.out" 2>&1 &
  worker_pids+=($!)
done

# Scrape /metrics while the run is live until both churn counters are
# nonzero (they are monotonic, so the first observation settles it).
snapshot="$WORKDIR/metrics.txt"
observed=0
while kill -0 "$root_pid" 2>/dev/null; do
  if curl -sf --max-time 2 "http://127.0.0.1:$MPORT/metrics" > "$snapshot.tmp" 2>/dev/null; then
    mv "$snapshot.tmp" "$snapshot"
    if grep -q '^fedsz_net_reconnects_total [1-9]' "$snapshot" \
        && grep -q '^fedsz_net_reparent_total [1-9]' "$snapshot"; then
      observed=1
      break
    fi
  fi
  sleep 0.05
done
if [ "$observed" != 1 ]; then
  echo "FAIL: /metrics never showed nonzero reconnect + reparent counters"
  cat "$snapshot" 2>/dev/null || true
  cat "$WORKDIR/serve.err" 2>/dev/null || true
  exit 1
fi
echo "metrics ok: live reconnect + reparent counters observed"
grep '^fedsz_net_' "$snapshot"

wait "$root_pid" || { echo "FAIL: root serve failed"; cat "$WORKDIR/serve.err"; exit 1; }
for pid in "${worker_pids[@]}"; do
  wait "$pid" || { echo "FAIL: a worker did not survive the churn"; cat "$WORKDIR"/worker*.out; exit 1; }
done
wait "$relay0_pid" || { echo "FAIL: the healthy relay failed"; cat "$WORKDIR/relay0.out"; exit 1; }
if wait "$relay1_pid"; then
  echo "FAIL: the doomed relay exited cleanly despite --fail-at-round"
  exit 1
fi
grep -q "fault injection" "$WORKDIR/relay1.out" \
  || { echo "FAIL: relay 1 died for the wrong reason"; cat "$WORKDIR/relay1.out"; exit 1; }

echo "--- root run report ---"
cat "$WORKDIR/serve.json"
python3 - "$WORKDIR/serve.json" "$want" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "fedsz.run_report.v2", doc["schema"]
assert doc["checksum"] == sys.argv[2], (doc["checksum"], sys.argv[2])
rows = doc["rounds"]
assert len(rows) == 5, len(rows)
# serve fills the elastic-membership columns (fl nulls them).
assert all(row["reconnects"] is not None for row in rows), rows
reconnects = sum(row["reconnects"] for row in rows)
reparented = sum(row["reparented"] for row in rows)
lost = sum(row["lost"] for row in rows)
assert reparented == 2, f"both orphans must be adopted, got {reparented}"
# The root sees the relay reconnect... never; its reconnects are the
# two adopted orphans (adoption is a reconnect + a re-parent).
assert reconnects >= 2, f"expected adoption reconnects, got {reconnects}"
assert lost == 1, f"exactly the dead relay is evicted, got {lost}"
# Every round still folded the full cohort: 4 clients' worth of
# updates reached the root, degraded topology or not.
assert all(row["merged"] == 4 for row in rows), [row["merged"] for row in rows]
print(f"run report ok: checksum {doc['checksum']}, "
      f"{reconnects} reconnects, {reparented} re-parented, {lost} evicted")
EOF

echo "churn parity ok: worker drop + relay kill, checksum $want reproduced bit for bit"
