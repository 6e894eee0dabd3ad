#!/bin/sh
# Performance benchmark: timed d16sweep runs (replay on and off) plus
# the bench_micro microbenchmarks, emitting one machine-readable
# measurement entry.
#
#   scripts/bench.sh                 smoke matrix (fast)
#   scripts/bench.sh --full          full experiment matrix
#   scripts/bench.sh --out FILE      write JSON here
#                                    (default build/bench_sweep.json)
#   scripts/bench.sh --label NAME    label recorded in the entry
#   JOBS=N ...                       worker threads (default nproc)
#
# The entry's "sweep" object is the engine's own per-phase accounting
# (wall clock split into build / simulate / replay, instructions
# simulated, sim MIPS); "sweepNoReplay" is the same matrix with every
# job re-simulated, so their wall-clock ratio is the measured replay
# speedup; "sweepNoBlocks" is the same matrix (replay on) with
# --no-block-engine, so sweep.simMips / sweepNoBlocks.simMips is the
# measured block-engine speedup over per-instruction step dispatch.
# "sweepUarch" is the fixed microarchitectural matrix (forwarding,
# branch prediction, pipeline depth), whose replay accounting times
# predictor replay from shared traces; "sweepUarchNoBlocks" is the
# same matrix with --no-block-engine, so sweepUarch.simMips /
# sweepUarchNoBlocks.simMips ("uarchBlockSpeedup") is the block-engine
# speedup under non-default pipelines.
# "sweepStoreCold" / "sweepStoreWarm" / "sweepServed" time the same
# matrix against a fresh artifact store: cold fills it, warm must
# execute zero builds and zero runs (enforced with --assert-warm), and
# served replays it through d16sweepd over a Unix socket;
# sweep.wallSeconds / sweepStoreWarm.wallSeconds is the measured
# warm-store speedup. "host" records where the entry was measured:
# core count, CPU model, the C++ compiler and its version, the CMake
# build type, and the git revision ("-dirty" when the tree has
# uncommitted changes), so two entries can be told apart as same-host
# or not. Entries in this format are appended to the committed
# BENCH_sweep.json history. Requires jq.
#
# Run from the repository root. Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 2)}

MATRIX=smoke
OUT=build/bench_sweep.json
LABEL=""
while [ $# -gt 0 ]; do
    case "$1" in
      --full) MATRIX=full ;;
      --out) OUT=$2; shift ;;
      --label) LABEL=$2; shift ;;
      *) echo "bench.sh: unknown option $1" >&2; exit 2 ;;
    esac
    shift
done
[ -n "$LABEL" ] || LABEL="$MATRIX matrix"

SMOKE_FLAG=""
[ "$MATRIX" = smoke ] && SMOKE_FLAG="--smoke"

echo "== build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target d16sweep d16sweepd bench_micro

echo "== d16sweep: $MATRIX matrix, replay on, $JOBS threads =="
# shellcheck disable=SC2086  # SMOKE_FLAG is intentionally word-split
./build/tools/d16sweep $SMOKE_FLAG --jobs "$JOBS" \
    --json build/bench_replay.json

echo "== d16sweep: $MATRIX matrix, replay off (A/B baseline) =="
# shellcheck disable=SC2086
./build/tools/d16sweep $SMOKE_FLAG --jobs "$JOBS" --no-replay \
    --json build/bench_noreplay.json

# Replay stays on so this leg simulates the same job set as "sweep"
# (base runs + trace captures): the simMips ratio isolates the block
# engine instead of being diluted by probe-attached step jobs.
echo "== d16sweep: $MATRIX matrix, block engine off (A/B baseline) =="
# shellcheck disable=SC2086
./build/tools/d16sweep $SMOKE_FLAG --jobs "$JOBS" \
    --no-block-engine --json build/bench_noblocks.json

echo "== d16sweep: uarch matrix (fwd/bp/depth axes) =="
# Fixed-size matrix (independent of --full): bp siblings replay from
# one captured trace, so its accounting also times predictor replay.
./build/tools/d16sweep --uarch-matrix --jobs "$JOBS" \
    --json build/bench_uarch.json

echo "== d16sweep: uarch matrix, block engine off (A/B baseline) =="
./build/tools/d16sweep --uarch-matrix --jobs "$JOBS" \
    --no-block-engine --json build/bench_uarch_noblocks.json

echo "== d16sweep: $MATRIX matrix, artifact store cold fill =="
rm -rf build/bench-store
# shellcheck disable=SC2086
./build/tools/d16sweep $SMOKE_FLAG --jobs "$JOBS" \
    --store build/bench-store --json build/bench_storecold.json

echo "== d16sweep: $MATRIX matrix, artifact store warm (0 builds, 0 runs) =="
# shellcheck disable=SC2086
./build/tools/d16sweep $SMOKE_FLAG --jobs "$JOBS" \
    --store build/bench-store --assert-warm \
    --json build/bench_storewarm.json

echo "== d16sweepd: $MATRIX matrix served over the socket =="
rm -f build/bench.sock
./build/tools/d16sweepd --socket build/bench.sock \
    --store build/bench-store &
SWEEPD_PID=$!
trap 'kill "$SWEEPD_PID" 2>/dev/null || true' EXIT
sleep 1
# shellcheck disable=SC2086
./build/tools/d16sweep $SMOKE_FLAG --connect build/bench.sock \
    --json build/bench_served.json
./build/tools/d16sweep --connect build/bench.sock --shutdown
wait "$SWEEPD_PID"
trap - EXIT

HOST_NPROC=$(nproc 2>/dev/null || echo 0)
HOST_CPU=$(sed -n 's/^model name[[:space:]]*: *//p' /proc/cpuinfo 2>/dev/null |
    head -n 1)
HOST_CXX=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' build/CMakeCache.txt)
HOST_COMPILER=$("$HOST_CXX" --version 2>/dev/null | head -n 1)
# An empty cached build type is CMakeLists.txt's RelWithDebInfo default.
HOST_BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build/CMakeCache.txt)
HOST_BUILD_TYPE=${HOST_BUILD_TYPE:-RelWithDebInfo}
HOST_REV=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    HOST_REV="$HOST_REV-dirty"
fi

echo "== bench_micro =="
./build/bench/bench_micro --benchmark_format=console \
    --benchmark_out_format=json --benchmark_out=build/bench_micro.json

jq -n \
    --arg lbl "$LABEL" \
    --arg matrix "$MATRIX" \
    --argjson jobs "$JOBS" \
    --argjson nproc "$HOST_NPROC" \
    --arg cpu "${HOST_CPU:-unknown}" \
    --arg compiler "${HOST_COMPILER:-unknown}" \
    --arg buildType "$HOST_BUILD_TYPE" \
    --arg rev "$HOST_REV" \
    --slurpfile replay build/bench_replay.json \
    --slurpfile noreplay build/bench_noreplay.json \
    --slurpfile noblocks build/bench_noblocks.json \
    --slurpfile uarch build/bench_uarch.json \
    --slurpfile uarchnoblocks build/bench_uarch_noblocks.json \
    --slurpfile storecold build/bench_storecold.json \
    --slurpfile storewarm build/bench_storewarm.json \
    --slurpfile served build/bench_served.json \
    --slurpfile micro build/bench_micro.json \
    '{
        "label": $lbl,
        "matrix": $matrix,
        "jobs": $jobs,
        "host": {"nproc": $nproc, "cpu": $cpu, "compiler": $compiler,
                 "buildType": $buildType, "gitRev": $rev},
        "sweep": $replay[0].timing,
        "sweepNoReplay": $noreplay[0].timing,
        "sweepNoBlocks": $noblocks[0].timing,
        "sweepUarch": $uarch[0].timing,
        "sweepUarchNoBlocks": $uarchnoblocks[0].timing,
        "sweepStoreCold": $storecold[0].timing,
        "sweepStoreWarm": $storewarm[0].timing,
        "sweepServed": $served[0].timing,
        "warmSpeedup": (if $storewarm[0].timing.wallSeconds > 0
                        then ($replay[0].timing.wallSeconds /
                              $storewarm[0].timing.wallSeconds)
                        else 0 end),
        "replaySpeedup": (if $replay[0].timing.wallSeconds > 0
                          then ($noreplay[0].timing.wallSeconds /
                                $replay[0].timing.wallSeconds)
                          else 0 end),
        "blockSpeedup": (if $noblocks[0].timing.simMips > 0
                         then ($replay[0].timing.simMips /
                               $noblocks[0].timing.simMips)
                         else 0 end),
        "uarchBlockSpeedup": (if $uarchnoblocks[0].timing.simMips > 0
                              then ($uarch[0].timing.simMips /
                                    $uarchnoblocks[0].timing.simMips)
                              else 0 end),
        "micro": ($micro[0].benchmarks
                  | map({"key": .name,
                         "value": {"realTime": .real_time,
                                   "timeUnit": .time_unit}})
                  | from_entries)
     }' > "$OUT"

echo "bench.sh: wrote $OUT"
jq -r '"bench.sh: \(.label): wall \(.sweep.wallSeconds | . * 100 | round / 100)s with replay (build \(.sweep.buildSeconds | . * 100 | round / 100)s + simulate \(.sweep.simulateSeconds | . * 100 | round / 100)s + replay \(.sweep.replaySeconds | . * 100 | round / 100)s), \(.sweepNoReplay.wallSeconds | . * 100 | round / 100)s without, speedup \(.replaySpeedup * 100 | round / 100)x, \(.sweep.simMips | . * 10 | round / 10) sim MIPS (block engine \(.blockSpeedup * 100 | round / 100)x over step, \(.uarchBlockSpeedup * 100 | round / 100)x on the uarch matrix)"' "$OUT"
jq -r '"bench.sh: store: cold \(.sweepStoreCold.wallSeconds | . * 100 | round / 100)s, warm \(.sweepStoreWarm.wallSeconds | . * 1000 | round / 1000)s (\(.warmSpeedup | round)x vs storeless), served \(.sweepServed.wallSeconds | . * 1000 | round / 1000)s"' "$OUT"
