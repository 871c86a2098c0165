#!/usr/bin/env bash
# Replication smoke test for the cluster tier: run two holocleand
# processes as a WAL-shipping cluster, apply a scripted workload to the
# leader, read it back from the replica, kill -9 the leader, promote
# the standby, retry the last (ambiguous) request — which must
# deduplicate across the failover — and finish the script there. The
# promoted node's final repairs and exported CSV must be byte-identical
# to an uninterrupted single-node control run. CI runs this; it also
# works locally from the repo root: ./scripts/smoke_replication.sh
set -euo pipefail

addr_a="127.0.0.1:${SMOKE_PORT_A:-8108}"
addr_b="127.0.0.1:${SMOKE_PORT_B:-8109}"
base_a="http://$addr_a"
base_b="http://$addr_b"
peers="$base_a,$base_b"
workdir=$(mktemp -d)
pid_a=""
pid_b=""
cleanup() {
  [ -n "$pid_a" ] && kill -9 "$pid_a" 2>/dev/null || true
  [ -n "$pid_b" ] && kill -9 "$pid_b" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building holocleand and datagen"
go build -o "$workdir/holocleand" ./cmd/holocleand
go build -o "$workdir/datagen" ./cmd/datagen

echo "== generating hospital workload"
(cd "$workdir" && ./datagen -dataset hospital -tuples 300 -seed 1 -out hospital)
test -s "$workdir/hospital_dirty.csv"
test -s "$workdir/hospital_constraints.txt"

wait_up() { # $1 = base URL
  local up=""
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then up=1; break; fi
    sleep 0.2
  done
  [ -n "$up" ] || { echo "FAIL: server at $1 did not come up"; exit 1; }
}

sget() { printf '%s' "$1" | sed -n "s/.*\"$2\":\"\([^\"]*\)\".*/\1/p" | head -n1; }

create_session() { # $1 = base URL; sets $id
  created=$(curl -fsS \
    -F data=@"$workdir/hospital_dirty.csv" \
    -F dcs=@"$workdir/hospital_constraints.txt" \
    -F name=replicated -F seed=1 -F relearn_every=2 \
    "$1/sessions")
  id=$(sget "$created" id)
  [ -n "$id" ] || { echo "FAIL: no session id in $created"; exit 1; }
}

# The scripted ops, each with a deterministic op_id so the post-failover
# retry is deduplicated instead of double-applied. The upsert needs one
# value per schema attribute; build the list from the CSV header.
ncols=$(head -n1 "$workdir/hospital_dirty.csv" | awk -F, '{print NF}')
vals=""
for i in $(seq 1 "$ncols"); do vals="$vals\"rx-$i\","; done
vals=${vals%,}
delta1='{"op_id":"d1","ops":[{"op":"delete","row":3},{"op":"upsert","row":17,"values":['"$vals"']}]}'
delta2='{"op_id":"d2","ops":[{"op":"delete","row":9},{"op":"delete","row":21}]}'

apply_delta() { # $1 = base URL, $2 = body; prints response
  curl -fsS -X POST -H 'Content-Type: application/json' -d "$2" "$1/sessions/$id/deltas"
}

apply_feedback() { # $1 = base URL; confirms the review-queue head with op_id f1
  review=$(curl -fsS "$1/sessions/$id/review?threshold=1.01&limit=1")
  tuple=$(printf '%s' "$review" | sed -n 's/.*"items":\[{"tuple":\([0-9]*\),.*/\1/p')
  attr=$(printf '%s' "$review" | sed -n 's/.*"items":\[{"tuple":[0-9]*,"attr":"\([^"]*\)".*/\1/p')
  value=$(printf '%s' "$review" | sed -n 's/.*"items":\[{[^}]*"new":"\([^"]*\)".*/\1/p')
  [ -n "$tuple" ] && [ -n "$attr" ] && [ -n "$value" ] || { echo "FAIL: cannot parse review item: $review"; exit 1; }
  value=$(printf '%s' "$value" | sed 's/\\/\\\\/g; s/"/\\"/g')
  curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "{\"op_id\":\"f1\",\"items\":[{\"tuple\":$tuple,\"attr\":\"$attr\",\"value\":\"$value\"}]}" \
    "$1/sessions/$id/feedback"
}

final_state() { # $1 = base URL, $2 = output prefix, $3 = extra query ("" or "?redirected=1")
  curl -fsS "$1/sessions/$id/repairs$3" > "$workdir/$2_repairs.json"
  curl -fsS "$1/sessions/$id/dataset$3" > "$workdir/$2_dataset.csv"
}

echo "== control run (single node, uninterrupted)"
"$workdir/holocleand" -addr "$addr_a" -store-dir "$workdir/store_control" -max-jobs 2 -queue-depth 8 &
pid_a=$!
wait_up "$base_a"
create_session "$base_a"
apply_delta "$base_a" "$delta1" >/dev/null
apply_feedback "$base_a" >/dev/null
apply_delta "$base_a" "$delta2" >/dev/null
final_state "$base_a" control ""
kill -9 "$pid_a"; wait "$pid_a" 2>/dev/null || true; pid_a=""

echo "== starting 2-node cluster (A leads created sessions, B stands by)"
"$workdir/holocleand" -addr "$addr_a" -store-dir "$workdir/store_a" \
  -self "$base_a" -peers "$peers" -max-jobs 2 -queue-depth 8 &
pid_a=$!
"$workdir/holocleand" -addr "$addr_b" -store-dir "$workdir/store_b" \
  -self "$base_b" -peers "$peers" -max-jobs 2 -queue-depth 8 &
pid_b=$!
wait_up "$base_a"
wait_up "$base_b"

echo "== create + delta + feedback on the leader"
create_session "$base_a"
apply_delta "$base_a" "$delta1" >/dev/null
apply_feedback "$base_a" >/dev/null
final_state "$base_a" leader ""

echo "== replica serves reads from its own mirrored copy"
caught=""
for _ in $(seq 1 150); do
  if final_state "$base_b" replica "?redirected=1" 2>/dev/null \
    && cmp -s "$workdir/leader_repairs.json" "$workdir/replica_repairs.json" \
    && cmp -s "$workdir/leader_dataset.csv" "$workdir/replica_dataset.csv"; then
    caught=1; break
  fi
  sleep 0.2
done
[ -n "$caught" ] || { echo "FAIL: replica never converged with the leader"; exit 1; }
health_a=$(curl -fsS "$base_a/healthz")
printf '%s' "$health_a" | grep -q '"leading":1' || { echo "FAIL: leader healthz: $health_a"; exit 1; }
health_b=$(curl -fsS "$base_b/healthz")
printf '%s' "$health_b" | grep -q '"mirroring":1' || { echo "FAIL: standby healthz: $health_b"; exit 1; }

echo "== /metrics: leader histograms and standby replication-lag gauges"
# Scrapes exceed a pipe buffer; `grep -q` under pipefail would SIGPIPE
# the writer on an early match, so use plain grep (reads to EOF).
metrics_a=$(curl -fsS "$base_a/metrics")
[ -n "$metrics_a" ] || { echo "FAIL: leader /metrics empty"; exit 1; }
printf '%s' "$metrics_a" | grep '^holoclean_reclean_seconds_count [1-9]' >/dev/null \
  || { echo "FAIL: leader /metrics missing the reclean histogram"; exit 1; }
metrics_b=$(curl -fsS "$base_b/metrics")
printf '%s' "$metrics_b" | grep '^holoclean_replication_lag_ops{tenant=' >/dev/null \
  || { echo "FAIL: standby /metrics missing replication lag gauges"; exit 1; }
printf '%s' "$metrics_b" | grep '^holoclean_replication_lag_bytes{tenant=' >/dev/null \
  || { echo "FAIL: standby /metrics missing replication byte-lag gauges"; exit 1; }

echo "== writes to the standby redirect to the leader"
redirect=$(curl -sS -o /dev/null -w '%{http_code} %{redirect_url}' \
  -X POST -H 'Content-Type: application/json' -d "$delta2" "$base_b/sessions/$id/deltas")
case "$redirect" in
  "307 $base_a/"*) ;;
  *) echo "FAIL: standby write answered '$redirect', want 307 to leader"; exit 1 ;;
esac

echo "== kill -9 the leader (no shutdown hook, no final checkpoint)"
kill -9 "$pid_a"; wait "$pid_a" 2>/dev/null || true; pid_a=""

echo "== promote the standby"
curl -fsS -X POST "$base_b/cluster/promote/$id" >/dev/null

echo "== retry the ambiguous last request (must deduplicate across the failover)"
retry=$(apply_feedback "$base_b")
printf '%s' "$retry" | grep -q '"duplicate":true' || { echo "FAIL: post-failover retry not deduplicated: $retry"; exit 1; }

echo "== finish the script on the promoted node and compare"
apply_delta "$base_b" "$delta2" >/dev/null
final_state "$base_b" promoted ""
cmp "$workdir/control_repairs.json" "$workdir/promoted_repairs.json" || { echo "FAIL: repairs differ between promoted standby and control"; exit 1; }
cmp "$workdir/control_dataset.csv" "$workdir/promoted_dataset.csv" || { echo "FAIL: repaired CSV differs between promoted standby and control"; exit 1; }

echo "PASS: replication smoke (replica reads converge; kill -9 + promotion serves byte-identical state with deduplicated retries)"
