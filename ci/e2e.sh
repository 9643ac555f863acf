#!/usr/bin/env bash
# End-to-end check: boot the real mdserve binary against the built-in
# hospital example and diff every response against the golden files in
# cmd/mdserve/testdata (shared with `go test ./cmd/mdserve`; regenerate
# with `go test ./cmd/mdserve -update`). The request sequence here must
# stay identical to TestE2EGolden.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${MDSERVE_PORT:-8127}"
BASE="http://$ADDR/v1/contexts/hospital"
GOLDEN=cmd/mdserve/testdata
OUT="$(mktemp -d)"
BIN="$OUT/mdserve"

go build -o "$BIN" ./cmd/mdserve

"$BIN" -addr "$ADDR" -example -parallelism 1 &
SERVER_PID=$!
cleanup() {
  kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$OUT"
}
trap cleanup EXIT

# Wait for the server to come up.
for _ in $(seq 1 100); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

fail=0
check() { # check <name> <file>
  if ! diff -u "$GOLDEN/$1.golden" "$2"; then
    echo "e2e: $1 response differs from golden" >&2
    fail=1
  fi
}

curl -fsS "http://$ADDR/healthz" >"$OUT/healthz"
check healthz "$OUT/healthz"

curl -fsS "http://$ADDR/v1/contexts" >"$OUT/contexts"
check contexts "$OUT/contexts"

curl -fsS -X POST "$BASE/assess" >"$OUT/assess"
check assess "$OUT/assess"

curl -fsS -X POST "$BASE/sessions" >"$OUT/session-create"
check session-create "$OUT/session-create"

printf '%s\n' \
  '{"atoms":[{"pred":"Clock","args":["Sep/6-12:30","Sep/6"]},{"pred":"Measurements","args":["Sep/6-12:30","Tom Waits","37.3"]}]}' \
  '{"atoms":[{"pred":"Clock","args":["Sep/5-13:00","Sep/5"]},{"pred":"Measurements","args":["Sep/5-13:00","Lou Reed","38.4"]}]}' \
  | curl -fsS -X POST --data-binary @- "$BASE/sessions/s1/apply" >"$OUT/apply"
check apply "$OUT/apply"

# The answer stream's order is unspecified: sort byte-wise, exactly as
# the Go golden test does.
curl -fsS -G --data-urlencode 'q=tomtemp(t, v) <- Measurements(t, "Tom Waits", v).' \
  "$BASE/sessions/s1/answers" | LC_ALL=C sort >"$OUT/answers"
check answers "$OUT/answers"

# The same query again: the plan cache serves this one (first request
# missed, this one hits) and the stream must be byte-identical.
curl -fsS -G --data-urlencode 'q=tomtemp(t, v) <- Measurements(t, "Tom Waits", v).' \
  "$BASE/sessions/s1/answers" | LC_ALL=C sort >"$OUT/answers-repeat"
check answers "$OUT/answers-repeat"

# explain=1 returns the compiled join plan instead of rows.
curl -fsS -G --data-urlencode 'q=tomtemp(t, v) <- Measurements(t, "Tom Waits", v).' \
  --data-urlencode 'explain=1' \
  "$BASE/sessions/s1/answers" >"$OUT/explain"
check explain "$OUT/explain"

curl -fsS "$BASE/sessions/s1/assessment" >"$OUT/session-assess"
check session-assess "$OUT/session-assess"

curl -fsS -X DELETE "$BASE/sessions/s1" >"$OUT/session-close"
check session-close "$OUT/session-close"

# Metrics sanity (latencies vary; pin the deterministic counters only).
curl -fsS "http://$ADDR/metrics" >"$OUT/metrics"
for want in \
  'mdserve_assess_total{context="hospital"} 2' \
  'mdserve_apply_batches_total{context="hospital"} 2' \
  'mdserve_answers_streamed_total{context="hospital"} 6' \
  'mdserve_sessions_opened_total{context="hospital"} 1' \
  'mdserve_chase_rounds_total{context="hospital"} 6' \
  'mdserve_plan_cache_hits_total{context="hospital"} 2' \
  'mdserve_plan_cache_misses_total{context="hospital"} 1' \
  'mdserve_plan_cache_evictions_total{context="hospital"} 0' \
  'mdserve_replans_total{context="hospital"} 0' \
  'mdserve_errors_total{context="hospital"} 0'; do
  if ! grep -qF "$want" "$OUT/metrics"; then
    echo "e2e: /metrics missing: $want" >&2
    cat "$OUT/metrics" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "e2e: FAILED" >&2
  exit 1
fi
echo "e2e: all responses match golden files"

# ---------------------------------------------------------------------
# Crash-recovery stage: boot a durable server, apply through a session,
# kill -9 mid-life, tear an append at the end of the newest WAL segment,
# restart over the same -data-dir, and require every acknowledged batch
# back with identical answers. Then a SIGTERM must drain, flush,
# snapshot and exit 0, and a third start over the same -data-dir must
# serve what the second served before the SIGTERM.
RADDR="127.0.0.1:${MDSERVE_RECOVERY_PORT:-8128}"
RBASE="http://$RADDR/v1/contexts/hospital"
DATA="$OUT/data"

"$BIN" -addr "$RADDR" -example -parallelism 1 -data-dir "$DATA" &
RECOVERY_PID=$!
for _ in $(seq 1 100); do
  if curl -fsS "http://$RADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

curl -fsS -X POST "$RBASE/sessions" >/dev/null
printf '%s\n' \
  '{"atoms":[{"pred":"Clock","args":["Sep/6-12:30","Sep/6"]},{"pred":"Measurements","args":["Sep/6-12:30","Tom Waits","37.3"]}]}' \
  | curl -fsS -X POST --data-binary @- "$RBASE/sessions/s1/apply" >/dev/null
curl -fsS -G --data-urlencode 'q=m(t, p, v) <- Measurements(t, p, v).' \
  "$RBASE/sessions/s1/answers" | LC_ALL=C sort >"$OUT/answers-before-crash"

kill -9 "$RECOVERY_PID"
wait "$RECOVERY_PID" 2>/dev/null || true
# A torn append, never acknowledged: five bytes of a record header.
printf '\x10\x00\x00\x00\x00' >>"$(ls "$DATA"/hospital/s1/wal-*.log | LC_ALL=C sort | tail -n 1)"

"$BIN" -addr "$RADDR" -example -parallelism 1 -data-dir "$DATA" &
RECOVERY_PID=$!
trap 'kill "$RECOVERY_PID" 2>/dev/null || true; cleanup' EXIT
for _ in $(seq 1 100); do
  if curl -fsS "http://$RADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

curl -fsS "$RBASE/sessions" >"$OUT/sessions-recovered"
if ! grep -qF '"id":"s1"' "$OUT/sessions-recovered"; then
  echo "e2e: recovery lost session s1" >&2
  cat "$OUT/sessions-recovered" >&2
  exit 1
fi
curl -fsS -G --data-urlencode 'q=m(t, p, v) <- Measurements(t, p, v).' \
  "$RBASE/sessions/s1/answers" | LC_ALL=C sort >"$OUT/answers-after-crash"
if ! diff -u "$OUT/answers-before-crash" "$OUT/answers-after-crash"; then
  echo "e2e: recovered answers differ from pre-crash answers" >&2
  exit 1
fi
printf '%s\n' \
  '{"atoms":[{"pred":"Measurements","args":["Sep/6-13:00","Tom Waits","37.1"]}]}' \
  | curl -fsS -X POST --data-binary @- "$RBASE/sessions/s1/apply" >/dev/null
curl -fsS "http://$RADDR/metrics" >"$OUT/metrics-recovery"
if ! grep -qF 'mdserve_sessions_recovered_total{context="hospital"} 1' "$OUT/metrics-recovery"; then
  echo "e2e: /metrics missing the recovery counter" >&2
  cat "$OUT/metrics-recovery" >&2
  exit 1
fi
curl -fsS -G --data-urlencode 'q=m(t, p, v) <- Measurements(t, p, v).' \
  "$RBASE/sessions/s1/answers" | LC_ALL=C sort >"$OUT/answers-before-term"

# Graceful shutdown: SIGTERM must flush + snapshot + exit 0.
kill -TERM "$RECOVERY_PID"
if ! wait "$RECOVERY_PID"; then
  echo "e2e: SIGTERM shutdown exited non-zero" >&2
  exit 1
fi
trap cleanup EXIT
if ! ls "$DATA"/hospital/s1/snap-*.snap >/dev/null 2>&1; then
  echo "e2e: graceful shutdown left no snapshot behind" >&2
  ls -R "$DATA" >&2
  exit 1
fi

# Third start: the segment the torn append landed in is no longer the
# newest, so it must have been cut back to its complete records.
"$BIN" -addr "$RADDR" -example -parallelism 1 -data-dir "$DATA" &
RECOVERY_PID=$!
trap 'kill "$RECOVERY_PID" 2>/dev/null || true; cleanup' EXIT
for _ in $(seq 1 100); do
  if curl -fsS "http://$RADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
if ! curl -fsS "http://$RADDR/healthz" >/dev/null; then
  echo "e2e: a third start over the data dir did not come up" >&2
  exit 1
fi
curl -fsS -G --data-urlencode 'q=m(t, p, v) <- Measurements(t, p, v).' \
  "$RBASE/sessions/s1/answers" | LC_ALL=C sort >"$OUT/answers-third-start"
if ! diff -u "$OUT/answers-before-term" "$OUT/answers-third-start"; then
  echo "e2e: third-start answers differ from those before the SIGTERM" >&2
  exit 1
fi
kill -TERM "$RECOVERY_PID"
if ! wait "$RECOVERY_PID"; then
  echo "e2e: SIGTERM shutdown of the third start exited non-zero" >&2
  exit 1
fi
trap cleanup EXIT
echo "e2e: crash recovery and graceful shutdown OK"

# ---------------------------------------------------------------------
# Federated-source stage: boot mdfixture serving NDJSON relation files,
# bind the hospital context's PatientWard and WorkingSchedules to them
# with -source, and drive a live upstream change through
# POST .../refresh. The clean answers must pick the new measurement up
# through the incremental chase ("rebuilt":false — no re-prepare), and
# the per-source metrics must appear on /metrics.
FXADDR="127.0.0.1:${MDFIXTURE_PORT:-8129}"
SADDR="127.0.0.1:${MDSERVE_SOURCE_PORT:-8130}"
SBASE="http://$SADDR/v1/contexts/hospital"
FIXDIR="$OUT/fixtures"
mkdir -p "$FIXDIR"
: >"$FIXDIR/wards.ndjson"
: >"$FIXDIR/scheds.ndjson"

go build -o "$OUT/mdfixture" ./cmd/mdfixture

"$OUT/mdfixture" -addr "$FXADDR" -dir "$FIXDIR" >/dev/null &
FIXTURE_PID=$!
"$BIN" -addr "$SADDR" -example -parallelism 1 \
  -source "hospital/PatientWard=http://$FXADDR/wards.ndjson" \
  -source "hospital/WorkingSchedules=http://$FXADDR/scheds.ndjson" &
SOURCE_PID=$!
trap 'kill "$FIXTURE_PID" "$SOURCE_PID" 2>/dev/null || true; cleanup' EXIT
for _ in $(seq 1 100); do
  if curl -fsS "http://$SADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

# Baseline: empty source payloads add nothing — the built-in example's
# two clean measurements come back.
curl -fsS -X POST "$SBASE/sessions" >/dev/null
curl -fsS -G --data-urlencode 'q=m(t, p, v) <- Measurements(t, p, v).' \
  "$SBASE/sessions/s1/answers" | LC_ALL=C sort >"$OUT/answers-sourced-before"
printf '%s\n' \
  '{"answer":["Sep/5-12:10","Tom Waits","38.2"]}' \
  '{"answer":["Sep/6-11:50","Tom Waits","37.1"]}' \
  '{"count":2}' >"$OUT/answers-sourced-before.want"
if ! diff -u "$OUT/answers-sourced-before.want" "$OUT/answers-sourced-before"; then
  echo "e2e: sourced baseline clean answers differ" >&2
  exit 1
fi

# Upstream change: Tom moves into standard ward W1 on Sep/9 and a
# certified nurse covers Standard/Sep/9 — the Sep/9 measurement
# becomes clean.
printf '%s\n' '["W1","Sep/9","Tom Waits"]' >>"$FIXDIR/wards.ndjson"
printf '%s\n' '["Standard","Sep/9","Alice","cert."]' >>"$FIXDIR/scheds.ndjson"

curl -fsS -X POST "$SBASE/sessions/s1/refresh" >"$OUT/refresh"
for want in '"changed":true' '"rebuilt":false'; do
  if ! grep -qF "$want" "$OUT/refresh"; then
    echo "e2e: refresh response missing $want" >&2
    cat "$OUT/refresh" >&2
    exit 1
  fi
done

curl -fsS -G --data-urlencode 'q=m(t, p, v) <- Measurements(t, p, v).' \
  "$SBASE/sessions/s1/answers" | LC_ALL=C sort >"$OUT/answers-sourced-after"
printf '%s\n' \
  '{"answer":["Sep/5-12:10","Tom Waits","38.2"]}' \
  '{"answer":["Sep/6-11:50","Tom Waits","37.1"]}' \
  '{"answer":["Sep/9-12:00","Tom Waits","37.0"]}' \
  '{"count":3}' >"$OUT/answers-sourced-after.want"
if ! diff -u "$OUT/answers-sourced-after.want" "$OUT/answers-sourced-after"; then
  echo "e2e: refreshed clean answers differ" >&2
  exit 1
fi

# Source + refresh metrics, labeled per context and source binding.
curl -fsS "http://$SADDR/metrics" >"$OUT/metrics-sourced"
for want in \
  'mdserve_refreshes_total{context="hospital"} 1' \
  'mdserve_refresh_rebuilds_total{context="hospital"} 0' \
  'mdserve_refresh_errors_total{context="hospital"} 0' \
  'mdserve_source_fetches_total{context="hospital",source="PatientWard"} 2' \
  'mdserve_source_fetches_total{context="hospital",source="WorkingSchedules"} 2' \
  'mdserve_source_fetch_errors_total{context="hospital",source="PatientWard"} 0' \
  'mdserve_source_fetch_latency_seconds_count{context="hospital"}'; do
  if ! grep -qF "$want" "$OUT/metrics-sourced"; then
    echo "e2e: /metrics missing: $want" >&2
    cat "$OUT/metrics-sourced" >&2
    exit 1
  fi
done

kill "$FIXTURE_PID" "$SOURCE_PID" 2>/dev/null || true
wait "$FIXTURE_PID" "$SOURCE_PID" 2>/dev/null || true
trap cleanup EXIT
echo "e2e: federated source refresh OK"

# ---------------------------------------------------------------------
# Time-travel stage: apply three batches, capturing the live answer
# stream after each one; every ?as_of=<version> read must then return
# those captures byte-identically, the version timeline must number one
# version per batch, the trajectory must grow monotonically, and the
# as-of error vocabulary (400 invalid_as_of) must hold.
TTADDR="127.0.0.1:${MDSERVE_TT_PORT:-8134}"
TTBASE="http://$TTADDR/v1/contexts/hospital"

"$BIN" -addr "$TTADDR" -example -parallelism 1 &
TT_PID=$!
trap 'kill "$TT_PID" 2>/dev/null || true; cleanup' EXIT
for _ in $(seq 1 100); do
  if curl -fsS "http://$TTADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

curl -fsS -X POST "$TTBASE/sessions" >/dev/null
TTQ='m(t, p, v) <- Measurements(t, p, v).'
curl -fsS -G --data-urlencode "q=$TTQ" \
  "$TTBASE/sessions/s1/answers" | LC_ALL=C sort >"$OUT/tt-live-v0"
for i in 0 1 2; do
  printf '{"atoms":[{"pred":"Clock","args":["Sep/6-12:4%d","Sep/6"]},{"pred":"Measurements","args":["Sep/6-12:4%d","Tom Waits","37.%d"]}]}\n' "$i" "$i" "$i" \
    | curl -fsS -X POST --data-binary @- "$TTBASE/sessions/s1/apply" >/dev/null
  curl -fsS -G --data-urlencode "q=$TTQ" \
    "$TTBASE/sessions/s1/answers" | LC_ALL=C sort >"$OUT/tt-live-v$((i + 1))"
done

# As-of reads are byte-identical to what the live session answered at
# each version.
for v in 0 1 2 3; do
  curl -fsS -G --data-urlencode "q=$TTQ" --data-urlencode "as_of=$v" \
    "$TTBASE/sessions/s1/answers" | LC_ALL=C sort >"$OUT/tt-asof-v$v"
  if ! diff -u "$OUT/tt-live-v$v" "$OUT/tt-asof-v$v"; then
    echo "e2e: as_of=$v answers differ from the live capture" >&2
    exit 1
  fi
done

# The timeline numbers one version per batch (plus the initial v0).
curl -fsS "$TTBASE/sessions/s1/versions" >"$OUT/tt-versions"
if ! grep -qF '"latest":3' "$OUT/tt-versions"; then
  echo "e2e: version timeline must end at 3" >&2
  cat "$OUT/tt-versions" >&2
  exit 1
fi
nvers=$(grep -o '"seq":[0-9]*' "$OUT/tt-versions" | wc -l)
if [ "$nvers" -ne 4 ]; then
  echo "e2e: want 4 versions, got $nvers" >&2
  cat "$OUT/tt-versions" >&2
  exit 1
fi

# The trajectory holds one scored point per version and the relation
# only grows: its original-row counts must be strictly increasing.
curl -fsS "$TTBASE/sessions/s1/trajectory?rel=Measurements" >"$OUT/tt-trajectory"
if ! grep -o '"original":[0-9]*' "$OUT/tt-trajectory" | cut -d: -f2 \
  | awk 'NR > 1 && $1 <= prev { exit 1 } { prev = $1 } END { exit NR == 4 ? 0 : 1 }'; then
  echo "e2e: trajectory must hold 4 strictly-growing points" >&2
  cat "$OUT/tt-trajectory" >&2
  exit 1
fi

# The as-of error vocabulary: malformed and future versions are 400
# invalid_as_of on every read endpoint.
for bad in 'as_of=banana' 'as_of=99'; do
  for path in "sessions/s1/answers?q=m(t)%20%3C-%20Clock(t%2C%20d).&$bad" \
    "sessions/s1/assessment?$bad" "sessions/s1/trajectory?rel=Measurements&$bad"; do
    code=$(curl -s -o "$OUT/tt-err" -w '%{http_code}' "$TTBASE/$path")
    if [ "$code" -ne 400 ] || ! grep -qF '"invalid_as_of"' "$OUT/tt-err"; then
      echo "e2e: $path must fail 400 invalid_as_of, got $code" >&2
      cat "$OUT/tt-err" >&2
      exit 1
    fi
  done
done

kill "$TT_PID" 2>/dev/null || true
wait "$TT_PID" 2>/dev/null || true
trap cleanup EXIT
echo "e2e: time travel OK"

# ---------------------------------------------------------------------
# Load-smoke stage: two mdserve shards behind mdrouter, a short open-
# loop mdload burst through the router. Gates: zero failed operations
# (any backend 5xx surfaces as an mdload error), both shards actually
# served traffic (consistent hashing spread the sessions), and the
# machine-readable report lands in LOAD_ci.json for the CI artifact.
LS1ADDR="127.0.0.1:${MDSERVE_SHARD1_PORT:-8131}"
LS2ADDR="127.0.0.1:${MDSERVE_SHARD2_PORT:-8132}"
LRADDR="127.0.0.1:${MDROUTER_PORT:-8133}"

go build -o "$OUT/mdrouter" ./cmd/mdrouter
go build -o "$OUT/mdload" ./cmd/mdload

"$BIN" -addr "$LS1ADDR" -example -parallelism 1 &
SHARD1_PID=$!
"$BIN" -addr "$LS2ADDR" -example -parallelism 1 &
SHARD2_PID=$!
trap 'kill "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null || true; cleanup' EXIT
for addr in "$LS1ADDR" "$LS2ADDR"; do
  for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.1
  done
done

"$OUT/mdrouter" -addr "$LRADDR" \
  -backend "http://$LS1ADDR" -backend "http://$LS2ADDR" &
ROUTER_PID=$!
trap 'kill "$SHARD1_PID" "$SHARD2_PID" "$ROUTER_PID" 2>/dev/null || true; cleanup' EXIT
for _ in $(seq 1 100); do
  if curl -fsS "http://$LRADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

# 5-second burst; -max-error-rate 0 fails the stage on any 5xx or
# transport error a client observed.
"$OUT/mdload" -url "http://$LRADDR" -context hospital \
  -rate 100 -duration 5s -sessions 8 -zipf 0.9 -rr 0.9 \
  -seed-batches 5 -max-error-rate 0 -json LOAD_ci.json

# Both shards must have served proxied traffic: the router's
# per-backend request counters are the ground truth.
curl -fsS "http://$LRADDR/metrics" >"$OUT/router-metrics"
for backend in "http://$LS1ADDR" "http://$LS2ADDR"; do
  served=$(awk -v b="mdrouter_backend_requests_total{backend=\"$backend\"}" \
    '$0 ~ "^mdrouter_backend_requests_total" && index($0, b) == 1 { print $NF }' \
    "$OUT/router-metrics")
  if [ -z "$served" ] || [ "$served" -eq 0 ]; then
    echo "e2e: shard $backend served no traffic through the router" >&2
    cat "$OUT/router-metrics" >&2
    exit 1
  fi
  errors=$(awk -v b="mdrouter_backend_errors_total{backend=\"$backend\"}" \
    '$0 ~ "^mdrouter_backend_errors_total" && index($0, b) == 1 { print $NF }' \
    "$OUT/router-metrics")
  if [ -n "$errors" ] && [ "$errors" -ne 0 ]; then
    echo "e2e: router recorded $errors backend errors for $backend" >&2
    exit 1
  fi
done

kill "$SHARD1_PID" "$SHARD2_PID" "$ROUTER_PID" 2>/dev/null || true
wait "$SHARD1_PID" "$SHARD2_PID" "$ROUTER_PID" 2>/dev/null || true
trap cleanup EXIT
echo "e2e: load smoke over 2 shards OK (report in LOAD_ci.json)"
