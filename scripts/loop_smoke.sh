#!/usr/bin/env bash
# Closed-loop smoke: stream a synthetic trace through `leakstream -learn`,
# which ships its misses to a local `siggend -tenant-sets` that publishes
# into a local sigserver that starts EMPTY, and assert that online
# generation auto-published (a) at least one global signature-set
# version and (b) at least one per-tenant NAMED set under
# /sets/{tenant}/ — the detect → ship → cluster → generate → publish
# loop, per population, with no manual leakgen step. The leakstream
# stats line (packets/s) and the time from leakstream's start to the
# first publish are echoed into the job log.
set -euo pipefail

PORT="${LOOP_SMOKE_PORT:-8701}"
MPORT="${LOOP_SMOKE_METRICS_PORT:-8702}"
DPORT="${LOOP_SMOKE_DEBUG_PORT:-8703}"
CPORT="${LOOP_SMOKE_CHAOS_PORT:-8704}"
CLPORT="${LOOP_SMOKE_CHAOS_STREAM_PORT:-8705}"
GPORT="${LOOP_SMOKE_SIGGEND_PORT:-8706}"
dir="$(mktemp -d)"
cleanup() {
  [ -n "${poll_pid:-}" ] && kill "$poll_pid" 2>/dev/null || true
  [ -n "${siggend_pid:-}" ] && kill "$siggend_pid" 2>/dev/null || true
  [ -n "${server_pid:-}" ] && kill "$server_pid" 2>/dev/null || true
  [ -n "${stream_pid:-}" ] && kill "$stream_pid" 2>/dev/null || true
  [ -n "${chaos_server_pid:-}" ] && kill "$chaos_server_pid" 2>/dev/null || true
  [ -n "${chaos_stream_pid:-}" ] && kill "$chaos_stream_pid" 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$dir/bin/" ./cmd/leakgen ./cmd/sigserver ./cmd/siggend ./cmd/leakstream ./cmd/leakeval

echo "== adversarial encodings: decode views vs base64/hex/url/gzip leak bodies"
"$dir/bin/leakeval" -adversarial | tee "$dir/adversarial.log"
grep -q '^PASS: decode views' "$dir/adversarial.log" \
  || { echo "FAIL: adversarial decode-view scenario did not pass" >&2; exit 1; }

echo "== generating the example trace"
"$dir/bin/leakgen" -seed 7 -apps 40 -packets 3000 \
  -out "$dir/trace.jsonl" -device "$dir/device.json"

echo "== starting an empty sigserver on :$PORT"
"$dir/bin/sigserver" -addr "127.0.0.1:$PORT" >"$dir/sigserver.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 50); do
  curl -fs "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fs "http://127.0.0.1:$PORT/healthz" >/dev/null

v0="$(curl -fs "http://127.0.0.1:$PORT/version")"
echo "== sigserver starts at version $v0"

echo "== starting siggend -tenant-by app -tenant-sets on :$GPORT, publishing into the sigserver"
"$dir/bin/siggend" -server "http://127.0.0.1:$PORT" -listen "127.0.0.1:$GPORT" \
  -tenant-by app -tenant-sets -min-cluster 2 >"$dir/siggend.log" 2>&1 &
siggend_pid=$!
for _ in $(seq 1 50); do
  curl -fs "http://127.0.0.1:$GPORT/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fs "http://127.0.0.1:$GPORT/healthz" >/dev/null

# Time to first publish: from leakstream's start until the sigserver
# version moves past $v0, polled every 50 ms.
start_ns="$(date +%s%N)"
(
  while :; do
    v="$(curl -fs "http://127.0.0.1:$PORT/version" 2>/dev/null)" || v=""
    if [ -n "$v" ] && [ "$v" -gt "$v0" ]; then
      echo $(( ($(date +%s%N) - start_ns) / 1000000 )) >"$dir/first_publish_ms"
      exit 0
    fi
    sleep 0.05
  done
) &
poll_pid=$!

echo "== streaming the trace through leakstream -learn http://127.0.0.1:$GPORT -trace-sample 1"
"$dir/bin/leakstream" -server "http://127.0.0.1:$PORT" -learn "http://127.0.0.1:$GPORT" \
  -trace-sample 1 <"$dir/trace.jsonl" >"$dir/verdicts.jsonl" 2>"$dir/stream.log"

echo "== leakstream log (packets/s in the engine stats line):"
cat "$dir/stream.log"

# leakstream has shipped every miss before it exits; siggend's final
# epoch, run on SIGTERM, publishes what they taught it.
kill -TERM "$siggend_pid"
wait "$siggend_pid" || { echo "FAIL: siggend SIGTERM exit was not clean" >&2; cat "$dir/siggend.log" >&2; exit 1; }
siggend_pid=""
echo "== siggend log:"
cat "$dir/siggend.log"

v1="$(curl -fs "http://127.0.0.1:$PORT/version")"
echo "== sigserver version: $v0 -> $v1"
echo "== server stats: $(curl -fs "http://127.0.0.1:$PORT/stats")"

if [ "$v1" -le "$v0" ]; then
  echo "FAIL: no signature set was auto-published" >&2
  exit 1
fi
wait "$poll_pid"
poll_pid=""
echo "== time to first publish: $(cat "$dir/first_publish_ms") ms from leakstream's start"

sets_json="$(curl -fs "http://127.0.0.1:$PORT/sets")"
echo "== set catalog: $sets_json"
named="$(printf '%s' "$sets_json" | python3 -c '
import json, sys
d = json.load(sys.stdin)
print(sum(1 for name, v in d["sets"].items() if name and v > 0))
')"
if [ "$named" -lt 1 ]; then
  echo "FAIL: no per-tenant named set was published alongside the global set" >&2
  exit 1
fi
echo "PASS: closed loop published global version $v1 plus $named per-tenant named set(s)"

echo "== trace plane: one trace ID from miss verdict to published signature"
if ! grep -q '"trace":"' "$dir/verdicts.jsonl"; then
  echo "FAIL: no verdict line carries a trace ID at -trace-sample 1" >&2
  exit 1
fi
hdr_trace="$(curl -fsD - -o /dev/null "http://127.0.0.1:$PORT/signatures" \
  | tr -d '\r' | awk -F': ' 'tolower($1)=="x-leaksig-trace"{print $2}')"
if [ -z "$hdr_trace" ]; then
  echo "FAIL: published set fetch carries no X-Leaksig-Trace provenance header" >&2
  exit 1
fi
if ! grep -q "\"trace\":\"$hdr_trace\"" "$dir/verdicts.jsonl"; then
  echo "FAIL: provenance trace $hdr_trace never appeared as a miss verdict" >&2
  exit 1
fi
echo "PASS: trace $hdr_trace spans miss verdict -> published set -> fetch header"

echo "== streaming the FULL trafficgen trace through leakstream (perf smoke)"
"$dir/bin/leakgen" -seed 1 -out "$dir/full.jsonl" -device "$dir/device_full.json"
full_n="$(wc -l <"$dir/full.jsonl")"
echo "== full trace: $full_n packets, matching against the learned signature set"
"$dir/bin/leakstream" -server "http://127.0.0.1:$PORT" \
  <"$dir/full.jsonl" >/dev/null 2>"$dir/full.log"
echo "== full-trace engine stats (packets/s + p50/p99 latency):"
cat "$dir/full.log"
if ! grep -Eq "pps=[0-9]" "$dir/full.log"; then
  echo "FAIL: no packets/s stats line from the full-trace stream" >&2
  exit 1
fi
if ! grep -Eq "p99=" "$dir/full.log"; then
  echo "FAIL: no p99 latency in the full-trace stats line" >&2
  exit 1
fi
echo "PASS: full ${full_n}-packet trace streamed; throughput and tail latency logged above"

echo "== ops-plane smoke: /metrics and /readyz across the pipeline"

# metric NAME VALUE_REGEX FILE: assert the series is present with a
# non-negative value (a leading digit — a negative value would start
# with '-').
metric() {
  if ! grep -Eq "^$1(\{[^}]*\})? $2" "$3"; then
    echo "FAIL: metric $1 missing or negative in $3" >&2
    grep -E "^$1" "$3" >&2 || true
    exit 1
  fi
}

curl -fs "http://127.0.0.1:$PORT/readyz" >/dev/null \
  || { echo "FAIL: sigserver not ready after publishing" >&2; exit 1; }
curl -fs "http://127.0.0.1:$PORT/metrics" >"$dir/sigserver.metrics"
metric leaksig_sigserver_publishes_total '[0-9]' "$dir/sigserver.metrics"
metric leaksig_sigserver_seq '[1-9]' "$dir/sigserver.metrics"
metric leaksig_build_info '1' "$dir/sigserver.metrics"

echo "== daemon-mode leakstream with a tight per-tenant intake limit on :$MPORT"
"$dir/bin/leakstream" -server "http://127.0.0.1:$PORT" -listen "127.0.0.1:$MPORT" \
  -tenant-rate 5 -tenant-burst 5 -rate-policy drop \
  -trace-sample 1 -debug-addr "127.0.0.1:$DPORT" \
  </dev/null >/dev/null 2>"$dir/daemon.log" &
stream_pid=$!
for _ in $(seq 1 50); do
  curl -fs "http://127.0.0.1:$MPORT/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
# /readyz flips once the sigserver watch delivers the learned set.
ready=""
for _ in $(seq 1 50); do
  if curl -fs "http://127.0.0.1:$MPORT/readyz" >/dev/null 2>&1; then ready=1; break; fi
  sleep 0.2
done
[ -n "$ready" ] || { echo "FAIL: leakstream never became ready" >&2; exit 1; }

# 200 packets for one tenant against a 5-token bucket: most must be shed
# by the limiter, and the drops must be visible in the exposition.
head -200 "$dir/trace.jsonl" \
  | curl -fs --data-binary @- "http://127.0.0.1:$MPORT/ingest?tenant=smoke-tenant" >/dev/null
curl -fs "http://127.0.0.1:$MPORT/metrics" >"$dir/leakstream.metrics"
metric leaksig_engine_packets_per_second '[0-9]' "$dir/leakstream.metrics"
metric leaksig_intake_allowed_total '[1-9]' "$dir/leakstream.metrics"
metric leaksig_intake_limited_total '[1-9]' "$dir/leakstream.metrics"
metric leaksig_build_info '1' "$dir/leakstream.metrics"
limited="$(awk '$1 == "leaksig_intake_limited_total" {print $2}' "$dir/leakstream.metrics")"
echo "PASS: ops plane live — sigserver publishes scraped, leakstream shed $limited over-limit packets"

echo "== flight recorder: the shedding storm above must have recorded a drop burst"
curl -fs "http://127.0.0.1:$DPORT/debug/flight" >"$dir/flight.json"
python3 - "$dir/flight.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
kinds = [e["kind"] for e in d["events"]]
assert d["stats"]["recorded"] > 0, f"flight recorder saw nothing: {d['stats']}"
assert "drop_burst" in kinds, f"no drop_burst event in the dump; kinds={kinds}"
print(f"flight dump: {len(d['events'])} events held, kinds={sorted(set(kinds))}")
PY
# The daemon's watch adopted the learned set's provenance trace on reload.
metric leaksig_trace_spans_adopted_total '[1-9]' "$dir/leakstream.metrics"
echo "PASS: flight recorder dumped the drop burst; reload adopted the provenance trace"

echo "== chaos phase: faults on the wire, a SIGKILLed journal-backed sigserver, and a degraded cached boot"

# Keep the learned set for the chaos server before tearing the old one down.
curl -fs "http://127.0.0.1:$PORT/signatures" >"$dir/learned.json"

# Clean SIGTERM: both daemons must exit 0, not die on the signal default.
kill -TERM "$stream_pid"
wait "$stream_pid" || { echo "FAIL: leakstream SIGTERM exit was not clean" >&2; exit 1; }
stream_pid=""
kill -TERM "$server_pid"
wait "$server_pid" || { echo "FAIL: sigserver SIGTERM exit was not clean" >&2; exit 1; }
server_pid=""
echo "PASS: leakstream and sigserver both exited cleanly on SIGTERM"

FAULT_SEED="${FAULT_SEED:-7}"
journal="$dir/publish.journal"
sigcache="$dir/sigs.cache"

start_chaos_server() {
  "$dir/bin/sigserver" -addr "127.0.0.1:$CPORT" -journal "$journal" \
    >>"$dir/chaos_sigserver.log" 2>&1 &
  chaos_server_pid=$!
  for _ in $(seq 1 50); do
    curl -fs "http://127.0.0.1:$CPORT/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -fs "http://127.0.0.1:$CPORT/healthz" >/dev/null
}

start_chaos_stream() {
  # 10% connection resets and 10% injected latency on every outbound
  # HTTP call, deterministically seeded — the watch must still converge.
  LEAKSIG_FAULTS="seed=$FAULT_SEED,reset=0.1,latency_p=0.1,latency=5ms" FAULT_SEED="$FAULT_SEED" \
    "$dir/bin/leakstream" -server "http://127.0.0.1:$CPORT" -poll 1s \
    -listen "127.0.0.1:$CLPORT" -sig-cache "$sigcache" \
    </dev/null >/dev/null 2>>"$dir/chaos_stream.log" &
  chaos_stream_pid=$!
  for _ in $(seq 1 50); do
    curl -fs "http://127.0.0.1:$CLPORT/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -fs "http://127.0.0.1:$CLPORT/healthz" >/dev/null
}

# await_chaos_version V: the engine must reach version V despite resets
# and latency on the watch path.
await_chaos_version() {
  for _ in $(seq 1 100); do
    got="$(curl -fs "http://127.0.0.1:$CLPORT/metrics" 2>/dev/null \
      | awk '$1 == "leaksig_engine_signature_version" {print int($2)}')" || true
    if [ "${got:-0}" -ge "$1" ]; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: engine never converged to version $1 under faults" >&2
  exit 1
}

start_chaos_server
curl -fs -X POST --data-binary "@$dir/learned.json" "http://127.0.0.1:$CPORT/publish" >/dev/null
start_chaos_stream
await_chaos_version "$(curl -fs "http://127.0.0.1:$CPORT/version")"

# A boot alone is one fetch and one long poll, too few calls to draw a
# fault at these rates: roll 12 more versions through the
# watch, each a wake-up and a fetch, and require that faults fired.
python3 - "$dir/learned.json" "$dir/republish.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
d["version"] = 0  # auto-bump on every publish
json.dump(d, open(sys.argv[2], "w"))
PY
for _ in $(seq 1 12); do
  curl -fs -X POST --data-binary "@$dir/republish.json" "http://127.0.0.1:$CPORT/publish" >/dev/null
  await_chaos_version "$(curl -fs "http://127.0.0.1:$CPORT/version")"
done
chaos_v="$(curl -fs "http://127.0.0.1:$CPORT/version")"
curl -fs "http://127.0.0.1:$CLPORT/metrics" >"$dir/chaos.metrics"
metric leaksig_degraded '0' "$dir/chaos.metrics"
faults_hit="$(awk '/^leaksig_faults_injected_total/ {s+=$2} END {print s+0}' "$dir/chaos.metrics")"
if [ "$faults_hit" -eq 0 ]; then
  echo "FAIL: no fault fired during the chaos phase (seed $FAULT_SEED); convergence was tested on a clean wire" >&2
  grep -E '^leaksig_faults' "$dir/chaos.metrics" >&2 || true
  exit 1
fi
echo "PASS: version $chaos_v converged under chaos (seed $FAULT_SEED, $faults_hit faults injected)"

# SIGKILL the server mid-flight, then boot a FRESH leakstream against the
# dead address: the sig-cache must carry it to ready-degraded.
kill -9 "$chaos_server_pid"
wait "$chaos_server_pid" 2>/dev/null || true
chaos_server_pid=""
kill -TERM "$chaos_stream_pid"
wait "$chaos_stream_pid" || { echo "FAIL: chaos leakstream SIGTERM exit was not clean" >&2; exit 1; }
chaos_stream_pid=""
[ -s "$sigcache" ] || { echo "FAIL: sig-cache file was never written" >&2; exit 1; }

start_chaos_stream
readyz="$(curl -fs "http://127.0.0.1:$CLPORT/readyz")"
if [ "$readyz" != "ready-degraded" ]; then
  echo "FAIL: cached boot against a dead server answered /readyz '$readyz', want 'ready-degraded'" >&2
  exit 1
fi
curl -fs "http://127.0.0.1:$CLPORT/metrics" >"$dir/degraded.metrics"
metric leaksig_degraded '1' "$dir/degraded.metrics"
echo "PASS: dead-server boot serves cached signatures (ready-degraded, leaksig_degraded 1)"

# Restart the server on its journal: versions replay, the watch reconnects,
# and the degraded gauge must recover to 0.
start_chaos_server
replayed_v="$(curl -fs "http://127.0.0.1:$CPORT/version")"
if [ "$replayed_v" -lt "$chaos_v" ]; then
  echo "FAIL: journal replay rolled back: version $replayed_v after restart, had $chaos_v" >&2
  exit 1
fi
recovered=""
for _ in $(seq 1 100); do
  dgr="$(curl -fs "http://127.0.0.1:$CLPORT/metrics" 2>/dev/null \
    | awk '$1 == "leaksig_degraded" {print int($2)}')" || true
  if [ "${dgr:-1}" -eq 0 ]; then recovered=1; break; fi
  sleep 0.2
done
[ -n "$recovered" ] || { echo "FAIL: leaksig_degraded never recovered to 0 after server restart" >&2; exit 1; }
readyz="$(curl -fs "http://127.0.0.1:$CLPORT/readyz")"
[ "$readyz" = "ready" ] || { echo "FAIL: /readyz '$readyz' after recovery, want 'ready'" >&2; exit 1; }

kill -TERM "$chaos_stream_pid"
wait "$chaos_stream_pid" || { echo "FAIL: recovered leakstream SIGTERM exit was not clean" >&2; exit 1; }
chaos_stream_pid=""
kill -TERM "$chaos_server_pid"
wait "$chaos_server_pid" || { echo "FAIL: journal sigserver SIGTERM exit was not clean" >&2; exit 1; }
chaos_server_pid=""
echo "PASS: chaos phase — journal replayed to v$replayed_v, degraded recovered to 0, clean exits all around"
