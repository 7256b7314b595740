#!/usr/bin/env bash
# Multi-process loopback smoke: one `fedsz serve` root plus four
# `fedsz worker` child processes on 127.0.0.1, two rounds, asserting
# that every round's global-model checksum and the final one are
# bit-identical to the in-memory `fedsz fl` run of the same
# configuration (both sides report through --json, so a divergence
# names its round). The serve
# process also exposes `--metrics-addr`; while the accept barrier holds
# (three of four workers joined), the script scrapes `/metrics` and
# asserts the session/eviction counters. CI runs this under a 120 s
# timeout; it finishes in a few seconds when healthy.
set -euo pipefail

BIN=${BIN:-target/release/fedsz}
PORT=${PORT:-7453}
MPORT=${MPORT:-$((PORT + 1))}
# One declarative run spec drives every process (clients 4, rounds 2,
# train-per-class 4, seed 9); per-process flags add only the role.
FLAGS=(--config examples/configs/socket.toml)
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

"$BIN" fl --json "${FLAGS[@]}" > "$WORKDIR/fl.json"

"$BIN" serve --bind "127.0.0.1:$PORT" --metrics-addr "127.0.0.1:$MPORT" --json "${FLAGS[@]}" \
    > "$WORKDIR/serve.json" 2> "$WORKDIR/serve.err" &
serve_pid=$!

# Wait for the listener to come up (the probe connection is rejected
# by the handshake and does not count as a child).
up=0
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
    exec 3>&- 3<&- || true
    up=1
    break
  fi
  sleep 0.1
done
[ "$up" = 1 ] || { echo "serve never started listening"; cat "$WORKDIR/serve.err"; exit 1; }

# Three of four workers join, so the accept barrier holds the round
# open — a stable window to scrape the Prometheus endpoint.
for i in 0 1 2; do
  "$BIN" worker --id "$i" --connect "127.0.0.1:$PORT" "${FLAGS[@]}" \
      > "$WORKDIR/worker$i.out" &
done

snapshot="$WORKDIR/metrics.txt"
scraped=0
for _ in $(seq 1 100); do
  if curl -sf --max-time 2 "http://127.0.0.1:$MPORT/metrics" > "$snapshot" \
      && grep -q '^fedsz_net_sessions_total 3$' "$snapshot"; then
    scraped=1
    break
  fi
  sleep 0.1
done
if [ "$scraped" != 1 ]; then
  echo "FAIL: /metrics never reported fedsz_net_sessions_total 3"
  cat "$snapshot" 2>/dev/null || true
  exit 1
fi
grep -q '^fedsz_net_evictions_total 0$' "$snapshot" \
  || { echo "FAIL: evictions counted during the barrier"; cat "$snapshot"; exit 1; }
echo "metrics ok: 3 sessions joined, 0 evictions at the barrier"

# The fourth worker releases the barrier; the rounds run to completion.
"$BIN" worker --id 3 --connect "127.0.0.1:$PORT" "${FLAGS[@]}" \
    > "$WORKDIR/worker3.out" &
wait

echo "--- serve report ---"
cat "$WORKDIR/serve.json"
python3 - "$WORKDIR/fl.json" "$WORKDIR/serve.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    fl = json.load(f)
with open(sys.argv[2]) as f:
    serve = json.load(f)
assert len(fl["rounds"]) == len(serve["rounds"]) > 0, (len(fl["rounds"]), len(serve["rounds"]))
for want, got in zip(fl["rounds"], serve["rounds"]):
    assert want["checksum"] is not None, want
    assert got["checksum"] == want["checksum"], (
        f"FAIL: multi-process run diverged from the in-memory engine at round "
        f"{want['round']}: {got['checksum']} vs {want['checksum']}")
    assert got["lost"] == 0, f"FAIL: a worker was evicted at round {got['round']}"
    # serve times its own fold: one level, never null.
    nanos = got["level_merge_nanos"]
    assert isinstance(nanos, list) and len(nanos) == 1 and nanos[0] > 0, (
        f"FAIL: serve round {got['round']} level_merge_nanos {nanos!r}")
assert serve["checksum"] == fl["checksum"], (serve["checksum"], fl["checksum"])
print(f"parity ok: serve + 4 workers reproduced {fl['checksum']} bit for bit, "
      f"round by round ({[r['checksum'] for r in fl['rounds']]}); "
      f"serve fold nanos {[r['level_merge_nanos'][0] for r in serve['rounds']]}")
EOF
