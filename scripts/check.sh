#!/bin/sh
# CI gate: tier-1 build + tests, sanitizer build + tests, and the
# toolchain verification layer over every workload on both targets.
# Replay on vs --no-replay is compared three times: on the smoke
# matrix against its golden, on the full matrix restricted to the §4.1
# cache benchmarks ("cache matrix, replay on vs --no-replay"), where
# every build node carries the 20 cache siblings one replay pass
# evaluates together, and on the uarch matrix, where every non-default
# forwarding/depth slice is retimed from the default machine's trace.
# --no-replay evaluates every fetch-buffer and cache job directly on
# its own run's streams, on block dispatch; the cache matrix is also
# run with --no-replay --no-block-engine, so direct evaluation is
# checked on a live step() run too.
# Block dispatch vs --no-block-engine is compared on the smoke matrix
# (against its golden), the full paper matrix and the uarch matrix.
# The full paper matrix is also swept on one thread and compared with
# the --jobs $JOBS sweep: the engine orders its build nodes by
# instruction counts measured as the sweep runs, so the schedule
# depends on the thread count and on timing, and the rows must not.
#
#   scripts/check.sh            run everything
#   SKIP_SANITIZE=1 ...         skip the ASan/UBSan and TSan builds
#                               (fast local run)
#
# Run from the repository root. Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 2)

echo "== tier 1: build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "== tier 1: tests =="
ctest --test-dir build -j "$JOBS" --output-on-failure

echo "== lint: clang-tidy (skips if unavailable) =="
cmake --build build --target lint

echo "== d16lint: workloads x {D16, DLXe}, --verify-each --cfg =="
./build/tools/d16lint --verify-each --cfg --json > build/lint.json
echo "   wrote build/lint.json ($(wc -c < build/lint.json) bytes)"

echo "== d16cfa: binary CFG analysis, workloads x {D16, DLXe} x opt =="
for opt in 0 1 2; do
    ./build/tools/d16cfa --opt "$opt" --jobs "$JOBS" > /dev/null
done

echo "== d16cfa: static/dynamic cross-validation (smoke matrix) =="
./build/tools/d16cfa --smoke --cross-validate --jobs "$JOBS" > /dev/null

echo "== d16timing: static timing vs simulator (smoke matrix) =="
./build/tools/d16timing --smoke --cross-validate --jobs "$JOBS" > /dev/null

# With the two legs below, the analyzer's reading of the shared issue
# slots (sim::issueSlot) is checked at all four capture slices.
echo "== d16timing: cross-validation, forwarding =="
./build/tools/d16timing --smoke --uarch fwd=on \
    --cross-validate --jobs "$JOBS" > /dev/null

echo "== d16timing: cross-validation, depth 7 =="
./build/tools/d16timing --smoke --uarch depth=7 \
    --cross-validate --jobs "$JOBS" > /dev/null

echo "== d16timing: cross-validation, forwarding + bimodal + depth 7 =="
./build/tools/d16timing --smoke --uarch fwd=on,bp=bimodal6,depth=7 \
    --cross-validate --jobs "$JOBS" > /dev/null

echo "== d16sweep: smoke matrix vs golden (trace replay on) =="
./build/tools/d16sweep --smoke --jobs "$JOBS" \
    --json build/sweep.json --golden tests/golden/sweep_golden.json

echo "== d16sweep: smoke matrix vs golden, --no-replay (A/B) =="
./build/tools/d16sweep --smoke --jobs "$JOBS" --no-replay \
    --json build/sweep_noreplay.json \
    --golden tests/golden/sweep_golden.json

echo "== d16sweep: cache matrix, replay on vs --no-replay (A/B) =="
# d16sweep's default full matrix over the cache benchmarks only: each
# build node's 20 §4.1 cache siblings replay in one pass (inclusive
# I-side evaluator, direct-mapped D-side sector evaluator), and must
# match re-simulating every job, each through its own mem::Cache pair,
# byte for byte.
./build/tools/d16sweep --workloads assem,ipl,latex --jobs "$JOBS" \
    --no-timing --json build/sweep_cache.json
./build/tools/d16sweep --workloads assem,ipl,latex --jobs "$JOBS" \
    --no-timing --no-replay --json build/sweep_cache_noreplay.json
cmp build/sweep_cache.json build/sweep_cache_noreplay.json
echo "   cache matrix replay on/off byte-identical"

echo "== d16sweep: cache matrix, --no-replay --no-block-engine (A/B) =="
# The same direct evaluation, on a live per-instruction step() run.
./build/tools/d16sweep --workloads assem,ipl,latex --jobs "$JOBS" \
    --no-timing --no-replay --no-block-engine \
    --json build/sweep_cache_noreplay_noblocks.json
cmp build/sweep_cache.json build/sweep_cache_noreplay_noblocks.json
echo "   cache matrix replay on / direct on step() byte-identical"

echo "== d16sweep: smoke matrix vs golden, --no-block-engine (A/B) =="
./build/tools/d16sweep --smoke --jobs "$JOBS" --no-block-engine \
    --json build/sweep_noblocks.json \
    --golden tests/golden/sweep_golden.json

echo "== d16sweep: full matrix, --no-block-engine (A/B) =="
# Every base and imm row of the paper matrix (the rows perfbench's
# paper-cold runs): plain runs, trace captures and imm classification
# all dispatch compiled blocks, and must match per-instruction step()
# byte for byte.
./build/tools/d16sweep --jobs "$JOBS" --no-timing \
    --json build/sweep_full.json
./build/tools/d16sweep --jobs "$JOBS" --no-timing --no-block-engine \
    --json build/sweep_full_noblocks.json
cmp build/sweep_full.json build/sweep_full_noblocks.json
echo "   full matrix step/block byte-identical"

echo "== d16sweep: full matrix, --jobs 1 vs --jobs $JOBS (schedule A/B) =="
./build/tools/d16sweep --jobs 1 --no-timing \
    --json build/sweep_full_jobs1.json
cmp build/sweep_full.json build/sweep_full_jobs1.json
echo "   full matrix one thread / $JOBS threads byte-identical"

echo "== d16sweep: uarch matrix vs golden (fwd/bp/depth axes) =="
./build/tools/d16sweep --uarch-matrix --jobs "$JOBS" --no-timing \
    --json build/sweep_uarch.json \
    --golden tests/golden/sweep_uarch_golden.json

echo "== d16sweep: uarch matrix, replay on vs --no-replay (A/B) =="
# Replay on, every image is captured once on the default machine and
# each other forwarding/depth slice is retimed from that trace (timing
# replay); --no-replay simulates every job on its own machine.
./build/tools/d16sweep --uarch-matrix --jobs "$JOBS" --no-timing \
    --no-replay --json build/sweep_uarch_noreplay.json
cmp build/sweep_uarch.json build/sweep_uarch_noreplay.json
echo "   uarch matrix replay on/off byte-identical"

echo "== d16sweep: uarch matrix, --no-block-engine (A/B) =="
# Block dispatch runs under every uarch config, so this A/B compares
# the two real dispatch paths (compiled blocks vs per-instruction
# step) across the forwarding, branch-policy and depth axes.
./build/tools/d16sweep --uarch-matrix --jobs "$JOBS" --no-timing \
    --no-block-engine --json build/sweep_uarch_noblocks.json \
    --golden tests/golden/sweep_uarch_golden.json
cmp build/sweep_uarch.json build/sweep_uarch_noblocks.json
echo "   step/block byte-identical under non-default uarch"

echo "== d16sweep: uarch matrix store cold -> warm =="
rm -rf build/check-store-uarch
./build/tools/d16sweep --uarch-matrix --jobs "$JOBS" --no-timing \
    --store build/check-store-uarch --json build/sweep_uarch_cold.json
./build/tools/d16sweep --uarch-matrix --jobs "$JOBS" --no-timing \
    --store build/check-store-uarch --assert-warm \
    --json build/sweep_uarch_warm.json
cmp build/sweep_uarch.json build/sweep_uarch_cold.json
cmp build/sweep_uarch.json build/sweep_uarch_warm.json
echo "   storeless/cold/warm byte-identical across uarch axes"

echo "== d16sweep: incremental-golden gate (store cold -> warm) =="
# One matrix, three legs against a fresh artifact store: storeless,
# cold (fills the store), warm (must execute 0 builds / 0 runs /
# 0 captures — enforced by --assert-warm). All three must be
# byte-identical; the cold and warm legs must also match the golden.
rm -rf build/check-store
./build/tools/d16sweep --smoke --jobs "$JOBS" --no-timing --no-store \
    --json build/sweep_storeless.json
./build/tools/d16sweep --smoke --jobs "$JOBS" --no-timing \
    --store build/check-store --json build/sweep_storecold.json \
    --golden tests/golden/sweep_golden.json
./build/tools/d16sweep --smoke --jobs "$JOBS" --no-timing \
    --store build/check-store --assert-warm \
    --json build/sweep_storewarm.json \
    --golden tests/golden/sweep_golden.json
cmp build/sweep_storeless.json build/sweep_storecold.json
cmp build/sweep_storeless.json build/sweep_storewarm.json
echo "   storeless/cold/warm byte-identical"

echo "== d16sweep: store gc keeps the live matrix warm =="
./build/tools/d16sweep --smoke --store build/check-store --gc \
    --store-stats > build/store_stats.json
./build/tools/d16sweep --smoke --jobs "$JOBS" --no-timing \
    --store build/check-store --assert-warm --json /dev/null

echo "== d16sweepd: served sweep is byte-identical =="
rm -f build/check.sock
./build/tools/d16sweepd --socket build/check.sock \
    --store build/check-store --jobs 4 &
SWEEPD_PID=$!
trap 'kill "$SWEEPD_PID" 2>/dev/null || true' EXIT
sleep 1
./build/tools/d16sweep --smoke --no-timing --connect build/check.sock \
    --json build/sweep_served.json
cmp build/sweep_storeless.json build/sweep_served.json
# Second request streams from the server's memory cache.
./build/tools/d16sweep --smoke --no-timing --connect build/check.sock \
    --json build/sweep_served2.json
cmp build/sweep_storeless.json build/sweep_served2.json
./build/tools/d16sweep --connect build/check.sock --shutdown
wait "$SWEEPD_PID"
trap - EXIT
echo "   served bytes identical (cold and memory-cached)"

echo "== d16tv: translation validation, full workload x variant x opt matrix =="
./build/tools/d16tv --jobs "$JOBS" > /dev/null

echo "== d16fuzz: corpus replay + 200-seed differential fuzz =="
# Each seed is a three-way differential: oracle vs step dispatch vs
# the block-compiled threaded-code engine (output, exit status, and
# every SimStats counter), plus the default trace retimed to the
# fwd=on,bp=bimodal6,depth=7 machine against its step run.  Every compile also runs per-pass
# translation validation (validateEach), so each seed is a static
# equivalence check on top of the execution differential.
./build/tools/d16fuzz --corpus tests/corpus --seeds 200 --jobs "$JOBS"

if [ "${SKIP_SANITIZE:-0}" != "1" ]; then
    echo "== sanitizers: ASan + UBSan build =="
    cmake -B build-asan -S . -DD16SIM_SANITIZE=ON >/dev/null
    cmake --build build-asan -j "$JOBS"

    echo "== sanitizers: tests =="
    ctest --test-dir build-asan -j "$JOBS" --output-on-failure

    echo "== sanitizers: d16fuzz corpus replay + 50-seed fuzz =="
    ./build-asan/tools/d16fuzz --corpus tests/corpus --seeds 50 \
        --jobs "$JOBS"

    # The threaded paths (sweep/timing/fuzz worker pools, trace
    # replay) get a dedicated TSan build: ASan and TSan can't share a
    # binary, and the single-threaded tier-1 tests would not exercise
    # the races TSan exists to catch.
    echo "== sanitizers: TSan build =="
    cmake -B build-tsan -S . -DD16SIM_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$JOBS"

    # Block-compiled dispatch is on by default, so this also races the
    # shared BlockProgram across 8 workers under TSan.
    echo "== sanitizers: TSan d16sweep smoke, 8 workers =="
    ./build-tsan/tools/d16sweep --smoke --jobs 8 \
        --json build-tsan/sweep.json \
        --golden tests/golden/sweep_golden.json

    # Every non-default slice is retimed on its own worker from the
    # one shared trace and timing table per image.
    echo "== sanitizers: TSan d16sweep uarch matrix, 8 workers =="
    ./build-tsan/tools/d16sweep --uarch-matrix --jobs 8 \
        --json build-tsan/sweep_uarch.json \
        --golden tests/golden/sweep_uarch_golden.json

    echo "== sanitizers: TSan d16fuzz 24-seed burst =="
    ./build-tsan/tools/d16fuzz --seeds 24 --jobs 8

    # Two engines sharing one artifact store directory, racing under
    # TSan (file locks, atomic puts, shared counters).
    echo "== sanitizers: TSan concurrent store engines =="
    ./build-tsan/tests/store_test \
        --gtest_filter='Engine.ConcurrentEnginesShareOneStoreDir'
fi

echo "check.sh: all gates passed"
