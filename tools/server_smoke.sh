#!/usr/bin/env bash
# End-to-end smoke of the PUL reasoning daemon, as run by CI (under
# ASan there): start the server, drive it with a verified mixed
# workload over pipelined connections, prove byte identity of every
# tenant head against the one-shot `store checkout` path, prove the
# group commit actually coalesced fsyncs, exercise the telemetry
# surface (versioned stat payload, Prometheus exposition, `top` deltas,
# slow-request log, SIGUSR1 flight-recorder dump), and shut the daemon
# down cleanly. Usage: tools/server_smoke.sh BUILD_DIR [WORK_DIR]
set -euo pipefail

build=${1:?usage: server_smoke.sh BUILD_DIR [WORK_DIR]}
work=${2:-$(mktemp -d "${TMPDIR:-/tmp}/xupdate_smoke.XXXXXX")}
xupdate="$build/tools/xupdate"
sock="$work/xupdate.sock"
data="$work/tenants"
mkdir -p "$work"

cleanup() {
  if [[ -n "${server_pid:-}" ]] && kill -0 "$server_pid" 2>/dev/null; then
    kill "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
  fi
}
trap cleanup EXIT

echo "== starting daemon (telemetry on: metrics-out, slow log, flight dump)"
"$xupdate" serve --socket "$sock" --data-dir "$data" \
  --commit-window-ms 5 --max-pending 256 \
  --metrics-out "$work/metrics.prom" --metrics-interval-ms 200 \
  --slow-request-ms 0 --slow-request-log "$work/slow.jsonl" \
  --slow-request-log-rate 100000 --flight-dump "$work/flight.jsonl" \
  >"$work/serve.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
  [[ -S "$sock" ]] && break
  kill -0 "$server_pid" || { cat "$work/serve.log"; exit 1; }
  sleep 0.1
done
[[ -S "$sock" ]] || { echo "server socket never appeared"; exit 1; }

echo "== verified mixed workload over pipelined connections"
"$xupdate" loadgen --socket "$sock" \
  --tenants 4 --items 300 --connections 4 --window 16 \
  --ops-per-pul 6 --doc-bytes 8192 --seed 7 --verify 1 \
  --dump-head "$work/heads" --server-metrics "$work/server_metrics.json" \
  --metrics - | tee "$work/loadgen.log"
grep -q "verify ok" "$work/loadgen.log"

echo "== byte identity: loadgen heads vs one-shot store checkout"
for tenant_dir in "$data"/*/; do
  tenant=$(basename "$tenant_dir")
  head=$("$xupdate" store log --dir "$tenant_dir" |
    sed -n 's/^head: \([0-9][0-9]*\)$/\1/p')
  "$xupdate" store checkout --dir "$tenant_dir" --version "$head" \
    --out "$work/cli_$tenant.xml"
  cmp "$work/heads/$tenant.head.xml" "$work/cli_$tenant.xml"
  echo "   $tenant: version $head identical"
done

echo "== group commit coalesced fsyncs"
python3 - "$work/server_metrics.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
# The stat payload is the versioned wrapper now; global metrics moved
# under "global", tenant-scoped series under "tenants".
assert doc.get("v") == 1, f"unexpected stat payload version: {doc.get('v')}"
assert doc.get("seq", 0) >= 1 and "uptime_ticks" in doc
m = doc["global"]["counters"]
fsyncs, commits = m["store.wal.fsync.count"], m["store.commit.count"]
print(f"   {commits} commits, {fsyncs} wal fsyncs")
assert commits > 0 and fsyncs < commits, "group commit did not coalesce"
# Per-tenant isolation: the global aggregate is exactly the sum of the
# per-tenant sections.
per_tenant = {t: s["counters"].get("commit.count", 0)
              for t, s in doc["tenants"].items()}
print(f"   per-tenant commits: {per_tenant}")
assert sum(per_tenant.values()) == commits, "tenant sections do not sum"
assert all(c > 0 for c in per_tenant.values()), "a tenant saw no commits"
EOF

echo "== prometheus exposition: stat --format=prom and --metrics-out"
"$xupdate" stat --socket "$sock" --format=prom >"$work/stat.prom"
grep -q '^# TYPE xupdate_store_commit_count counter$' "$work/stat.prom"
grep -q '^xupdate_commit_count{tenant="t0"} ' "$work/stat.prom"
grep -q 'quantile="0.99"' "$work/stat.prom"
for _ in $(seq 1 50); do
  [[ -s "$work/metrics.prom" ]] && break
  sleep 0.1
done
grep -q '^# TYPE xupdate_store_commit_count counter$' "$work/metrics.prom"
echo "   exposition renders global + tenant families"

echo "== live monitor: top over stat deltas"
"$xupdate" top --socket "$sock" --interval-ms 200 --iterations 2 --raw 1 \
  >"$work/top.log"
grep -q 'xupdate top  seq=' "$work/top.log"
grep -q 'p50ms' "$work/top.log"
grep -q '^t0 ' "$work/top.log"
echo "   top rendered per-tenant percentile rows"

echo "== slow-request log is structured jsonl"
python3 - "$work/slow.jsonl" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert lines, "slow-request log is empty at threshold 0"
commits = [l for l in lines if l["type"] == "commit"]
assert commits, "no commit lines in slow-request log"
for l in commits:
    assert l["tenant"].startswith("t") and l["batch"] >= 1
    for key in ("total_ms", "admission_ms", "batch_wait_ms", "fsync_ms"):
        assert key in l, f"missing {key}"
print(f"   {len(lines)} slow-log lines, {len(commits)} commits")
EOF

echo "== SIGUSR1 dumps the flight recorder"
rm -f "$work/flight.jsonl"
kill -USR1 "$server_pid"
for _ in $(seq 1 50); do
  [[ -s "$work/flight.jsonl" ]] && break
  sleep 0.1
done
python3 - "$work/flight.jsonl" <<'EOF'
import json, sys
events = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert events, "flight dump is empty"
kinds = {e["kind"] for e in events}
assert "batch-seal" in kinds, f"no batch seals in flight dump: {kinds}"
assert "admit" in kinds and "fsync-ok" in kinds
seqs = [e["seq"] for e in events]
assert seqs == sorted(seqs), "flight dump out of seq order"
print(f"   {len(events)} flight events, kinds: {sorted(kinds)}")
EOF

echo "== remote shutdown"
"$xupdate" loadgen --socket "$sock" --tenants 1 --items 1 \
  --commit-weight 0 --checkout-weight 0 --reduce-weight 0 --stat-weight 1 \
  --shutdown 1 >/dev/null
for _ in $(seq 1 100); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
  echo "server still running after shutdown request"; exit 1
fi
wait "$server_pid" || { echo "server exited non-zero"; cat "$work/serve.log"; exit 1; }
server_pid=""

echo "== shutdown wrote a final flight dump with the shutdown marker"
grep -q '"kind":"shutdown"' "$work/flight.jsonl"

echo "== server smoke OK ($work)"
