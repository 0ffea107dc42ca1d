#!/usr/bin/env bash
# The whole pre-merge gauntlet in one command: release build + full test
# suite, the ASan/UBSan and TSan presets, smoke passes of the workload,
# channel, event-engine, observability, and micro benches (seconds-long
# DIKNN_WORKLOAD_SMOKE / DIKNN_BENCH_FRAMES / DIKNN_ENGINE_SMOKE /
# DIKNN_OBS_SMOKE / DIKNN_MICRO_SMOKE runs, so the bench binaries
# themselves are exercised; bench_micro's steady-state allocation gate
# runs at full strength even in smoke mode; DIKNN_CHECK_BENCH=0 skips
# them), and a traced-query run
# whose Chrome-trace and metrics JSON are validated with python3 — the
# metrics must report zero steady-state packet-plane allocations
# (net.allocs == 0, net.alloc_per_frame == 0; see docs/PACKET_PLANE.md),
# the same gate on a 60 s sharded beacon-substrate run (which must also
# report its traffic under the serial channel.* names), the CLI's refusal
# of serial-only options on the windowed engine, and the flight
# recorder's determinism across --jobs and shard counts.
#
# Usage: scripts/check_all.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== release build + ctest =="
cmake --preset release
cmake --build --preset release -j "$(nproc)"
ctest --preset release --output-on-failure -j "$(nproc)"

echo "== ASan/UBSan =="
scripts/check_asan.sh --output-on-failure

echo "== TSan =="
scripts/check_tsan.sh --output-on-failure

# Smokes run from a scratch directory, so the BENCH_*.json files the
# benches write to their working directory never overwrite checked-in ones.
root="$PWD"
sim="$root/build/tools/diknn-sim"
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
cd "$obs_dir"

if [[ "${DIKNN_CHECK_BENCH:-1}" != "0" ]]; then
  echo "== bench_workload smoke =="
  DIKNN_WORKLOAD_SMOKE=1 "$root"/build/bench/bench_workload
  echo "== bench_channel smoke =="
  DIKNN_BENCH_FRAMES=500 DIKNN_BENCH_SIZES=250,1000 \
    "$root"/build/bench/bench_channel
  echo "== bench_engine smoke =="
  DIKNN_ENGINE_SMOKE=1 "$root"/build/bench/bench_engine
  echo "== bench_obs smoke =="
  DIKNN_OBS_SMOKE=1 "$root"/build/bench/bench_obs
  echo "== bench_micro smoke (allocation gate) =="
  DIKNN_MICRO_SMOKE=1 "$root"/build/bench/bench_micro
  echo "== bench_pdes smoke (shard equivalence) =="
  DIKNN_PDES_SMOKE=1 "$root"/build/bench/bench_pdes
fi

echo "== traced-query smoke =="
"$sim" --runs 1 --duration 20 --nodes 120 --field 90 \
  --trace-out "$obs_dir/trace.json" --metrics-out "$obs_dir/metrics.json"
if command -v python3 >/dev/null; then
  python3 -m json.tool "$obs_dir/trace.json" >/dev/null
  python3 - "$obs_dir/metrics.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
allocs = doc["counters"].get("net.allocs")
per_frame = doc["gauges"].get("net.alloc_per_frame")
if allocs != 0 or per_frame != 0:
    raise SystemExit("allocation gate: expected net.allocs == 0 and "
                     f"net.alloc_per_frame == 0, got {allocs} / {per_frame}")
print("trace + metrics JSON well-formed; net.allocs == 0")
PY
else
  echo "python3 not found; skipping JSON validation"
fi

echo "== sharded allocation gate =="
# The windowed engine's steady state is allocation-free on every shard
# over a long mobile run at the paper's density (N=2000 on 363.7 m).
"$sim" --runs 1 --duration 60 --nodes 2000 --field 363.7 \
  --shards 2 --metrics-out "$obs_dir/sharded.json"
if command -v python3 >/dev/null; then
  python3 - "$obs_dir/sharded.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
counters = doc["counters"]
allocs = {k: v for k, v in counters.items() if k.endswith(".allocs")}
if allocs.get("net.allocs") != 0 or any(allocs.values()):
    raise SystemExit(f"sharded allocation gate: expected zeros, got {allocs}")
# The windowed engine reports traffic under the serial stack's names.
if not counters.get("channel.frames_sent", 0) > 0:
    raise SystemExit("sharded run: channel.frames_sent missing or zero")
if "psim.frames_sent" in counters:
    raise SystemExit("sharded run: psim.frames_sent duplicates "
                     "channel.frames_sent")
print(f"sharded run: {allocs}, "
      f"channel.frames_sent={counters['channel.frames_sent']}")
PY
else
  echo "python3 not found; skipping sharded allocation validation"
fi

echo "== windowed engine rejects serial-only options =="
# --shards N>1 / --windowed run the beacon substrate only; a query
# workload, faults, the lifecycle audit or query tracing must be refused
# with a non-zero exit, never dropped.
for opt in "--workload arrival@kind=poisson,rate=2" "--faults kill@t=1,count=1" \
           "--audit" "--trace-out $obs_dir/refused.json" "--trace-sample 1"; do
  for engine in "--shards 4" "--windowed"; do
    # shellcheck disable=SC2086  # Both strings are flag lists.
    if "$sim" --runs 1 --duration 1 $engine $opt \
        >/dev/null 2>&1; then
      echo "diknn-sim $engine $opt exited 0; expected a refusal"
      exit 1
    fi
  done
done
echo "serial-only options refused on the windowed engine"

echo "== served-workload smoke =="
"$sim" --runs 1 --duration 30 --nodes 120 --field 90 \
  --workload 'arrival@kind=poisson,rate=8;k@lo=10;space@kind=hotspot,n=2,sigma=5,skew=1.2;deadline@s=4;admit@inflight=128,queue=32,shed=1;cache@ttl=8,cells=3;coalesce@window=3,kslack=6' \
  --metrics-out "$obs_dir/served.json"
if command -v python3 >/dev/null; then
  python3 - "$obs_dir/served.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
hits = doc["counters"].get("serving.cache_hits", 0)
if hits <= 0:
    raise SystemExit("served-workload smoke: expected serving.cache_hits > 0, "
                     f"got {hits}")
print(f"serving.cache_hits = {hits}")
PY
else
  echo "python3 not found; skipping served-workload validation"
fi

echo "== flight-recorder smoke =="
# A served workload with the recorder on: the artifact must be valid
# JSON with at least one non-empty deterministic series and byte-identical
# across --jobs. The beacon substrate with the recorder on: its net.*
# series must be non-empty and its deterministic section byte-identical
# between the 1-shard windowed engine and a 4-shard run
# (docs/OBSERVABILITY.md "Time series & flight recorder").
ts_workload='arrival@kind=poisson,rate=8;k@lo=6,hi=10;deadline@s=2;admit@inflight=24,queue=12'
"$sim" --runs 2 --jobs 1 --duration 20 --nodes 120 --field 90 \
  --workload "$ts_workload" --ts-interval 1 --ts-out "$obs_dir/ts_jobs1.json"
"$sim" --runs 2 --jobs 4 --duration 20 --nodes 120 --field 90 \
  --workload "$ts_workload" --ts-interval 1 --ts-out "$obs_dir/ts_jobs4.json"
cmp "$obs_dir/ts_jobs1.json" "$obs_dir/ts_jobs4.json" \
  || { echo "flight recording differs across --jobs"; exit 1; }
"$sim" --runs 1 --duration 8 --nodes 1024 --field 560 \
  --windowed --ts-interval 0.5 --ts-out "$obs_dir/ts_shards1.json"
"$sim" --runs 1 --duration 8 --nodes 1024 --field 560 \
  --shards 4 --ts-interval 0.5 --ts-out "$obs_dir/ts_shards4.json"
if command -v python3 >/dev/null; then
  python3 - "$obs_dir/ts_jobs1.json" "$obs_dir/ts_shards1.json" \
    "$obs_dir/ts_shards4.json" <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    series = doc["series"]
    if not any(s["v"] for s in series.values()):
        raise SystemExit(f"{path}: no non-empty deterministic series")
a, b = (json.load(open(p)) for p in sys.argv[2:4])
net = {k: s for k, s in a["series"].items() if k.startswith("net.")}
if not net or not all(s["v"] for s in net.values()):
    raise SystemExit(f"substrate recording: empty net.* series in {list(net)}")
if (a["series"], a["annotations"]) != (b["series"], b["annotations"]):
    raise SystemExit("deterministic series differ across shard counts")
print(f"flight recording OK: {len(series)} deterministic series, "
      "bit-identical across --jobs and --shards")
PY
else
  echo "python3 not found; skipping flight-recorder validation"
fi

echo "All checks passed."
