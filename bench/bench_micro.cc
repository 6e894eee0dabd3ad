/**
 * @file
 * Google-benchmark microbenchmarks of the library itself: codec
 * throughput, simulator speed, cache model, and full compile time.
 * (Not a paper artifact — tooling health for the repository.)
 */

#include <algorithm>
#include <span>

#include <benchmark/benchmark.h>

#include "asm/assembler.hh"
#include "core/replay/replay.hh"
#include "core/replay/trace.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "isa/codec.hh"
#include "mem/cache.hh"
#include "sim/machine.hh"
#include "sim/predecode.hh"

using namespace d16sim;

static void
BM_D16Decode(benchmark::State &state)
{
    // A representative valid mix; 0x17fe is LDC (0x1ffe, previously
    // listed here, is the *reserved* LDC form and decode fatals on it).
    const uint16_t words[] = {0x4a00, 0x8123, 0xa456, 0x2345,
                              0x6789, 0x0404, 0x17fe, 0xc123};
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            isa::d16Decode(words[i++ % std::size(words)]));
    }
}
BENCHMARK(BM_D16Decode);

static void
BM_DLXeDecode(benchmark::State &state)
{
    const uint32_t words[] = {0x00000000, 0x10440005, 0x80640008,
                              0x94220004, 0xa0600000, 0x04420007};
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            isa::dlxeDecode(words[i++ % std::size(words)]));
    }
}
BENCHMARK(BM_DLXeDecode);

static void
BM_CacheAccess(benchmark::State &state)
{
    mem::CacheConfig cfg;
    cfg.sizeBytes = 4096;
    mem::Cache cache(cfg);
    uint32_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.read(addr & 0xffff, 4));
        addr += 36;  // mix of hits and misses
    }
}
BENCHMARK(BM_CacheAccess);

static void
BM_CompileDhrystone(benchmark::State &state)
{
    const auto &w = core::workload("dhrystone");
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::build(w.source, mc::CompileOptions::d16()));
    }
}
BENCHMARK(BM_CompileDhrystone)->Unit(benchmark::kMillisecond);

static void
BM_SimulateQueens(benchmark::State &state)
{
    const auto img = core::build(core::workload("queens").source,
                                 mc::CompileOptions::dlxe());
    uint64_t insns = 0;
    for (auto _ : state) {
        sim::Machine m(img);
        m.run();
        insns = m.stats().instructions;
        benchmark::DoNotOptimize(insns);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(insns));
}
BENCHMARK(BM_SimulateQueens)->Unit(benchmark::kMillisecond);

static void
BM_SimulateQueensPredecoded(benchmark::State &state)
{
    // The sweep engine's configuration: one decode table and one block
    // program built up front and shared by every run of the image, so
    // this times the block engine (BM_SimulateQueens times step()).
    const auto img = core::build(core::workload("queens").source,
                                 mc::CompileOptions::dlxe());
    const auto text = std::make_shared<const sim::DecodedText>(img);
    const auto blocks = core::buildBlockProgram(img, text);
    uint64_t insns = 0;
    for (auto _ : state) {
        sim::Machine m(img, {}, text);
        m.setBlockProgram(blocks);
        m.run();
        insns = m.stats().instructions;
        benchmark::DoNotOptimize(insns);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(insns));
}
BENCHMARK(BM_SimulateQueensPredecoded)->Unit(benchmark::kMillisecond);

static void
BM_SimulateQueensPredecodedD16(benchmark::State &state)
{
    // The D16 twin of BM_SimulateQueensPredecoded: r0 is a real
    // register there (no r0 sink) and its nop is mv r0,r0, so the
    // block engine's write and delay-slot paths differ per target.
    const auto img = core::build(core::workload("queens").source,
                                 mc::CompileOptions::d16());
    const auto text = std::make_shared<const sim::DecodedText>(img);
    const auto blocks = core::buildBlockProgram(img, text);
    uint64_t insns = 0;
    for (auto _ : state) {
        sim::Machine m(img, {}, text);
        m.setBlockProgram(blocks);
        m.run();
        insns = m.stats().instructions;
        benchmark::DoNotOptimize(insns);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(insns));
}
BENCHMARK(BM_SimulateQueensPredecodedD16)->Unit(benchmark::kMillisecond);

static void
BM_ImmClassQueens(benchmark::State &state)
{
    // A sweep `imm` row run directly: the matrix's DLXe/16/2 variant
    // with the immediate classifier folding the run's trace chunks on
    // block dispatch.
    const auto img = core::build(core::workload("queens").source,
                                 mc::CompileOptions::dlxe(16, false));
    const auto text = std::make_shared<const sim::DecodedText>(img);
    const auto blocks = core::buildBlockProgram(img, text);
    uint64_t insns = 0;
    for (auto _ : state) {
        core::ImmediateClassProbe probe(*text);
        const core::RunMeasurement r =
            core::run(img, &probe, {}, text, blocks);
        insns = r.stats.instructions;
        benchmark::DoNotOptimize(probe.aluImmediate());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(insns));
}
BENCHMARK(BM_ImmClassQueens)->Unit(benchmark::kMillisecond);

static void
BM_TraceCaptureQueens(benchmark::State &state)
{
    const auto img = core::build(core::workload("queens").source,
                                 mc::CompileOptions::dlxe());
    const auto text = std::make_shared<const sim::DecodedText>(img);
    uint64_t insns = 0;
    for (auto _ : state) {
        const auto trace = core::replay::capture(img, text);
        insns = trace.base.stats.instructions;
        benchmark::DoNotOptimize(trace.runs.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(insns));
}
BENCHMARK(BM_TraceCaptureQueens)->Unit(benchmark::kMillisecond);

static void
BM_ReplayTimingQueens(benchmark::State &state)
{
    // One non-default capture slice (fwd=on, depth=7) retimed from the
    // default machine's trace: the scoreboard-only walk the sweep
    // engine runs instead of a capture at that slice.
    const auto img = core::build(core::workload("queens").source,
                                 mc::CompileOptions::dlxe());
    const sim::DecodedText text(img);
    const auto trace = core::replay::capture(img);
    const core::replay::TimingTable table(img, text);
    sim::UarchConfig slice;
    slice.forward = true;
    slice.depth = 7;
    for (auto _ : state) {
        const auto timed = core::replay::replayTiming(trace, table, slice);
        benchmark::DoNotOptimize(timed.loadInterlocks);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(trace.base.stats.instructions));
}
BENCHMARK(BM_ReplayTimingQueens)->Unit(benchmark::kMillisecond);

static void
BM_RetimeAllSlicesQueens(benchmark::State &state)
{
    // All five non-default capture slices (forwarding x depth 5..7)
    // retimed from the default machine's trace by one TimingFold: three
    // scoreboard lanes, one memo lookup per fetch run.
    const auto img = core::build(core::workload("queens").source,
                                 mc::CompileOptions::dlxe());
    const sim::DecodedText text(img);
    const auto trace = core::replay::capture(img);
    const core::replay::TimingTable table(img, text);
    std::vector<sim::UarchConfig> slices;
    for (const bool forward : {false, true}) {
        for (const int depth : {5, 6, 7}) {
            sim::UarchConfig slice;
            slice.forward = forward;
            slice.depth = depth;
            if (!slice.isDefault())
                slices.push_back(slice);
        }
    }
    for (auto _ : state) {
        core::replay::TimingFold fold(table, trace.insnBytes);
        for (const sim::UarchConfig &slice : slices)
            fold.add(slice);
        fold.feed(trace.chunk());
        for (const sim::UarchConfig &slice : slices)
            benchmark::DoNotOptimize(fold.finish(slice).loadInterlocks);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(trace.base.stats.instructions));
}
BENCHMARK(BM_RetimeAllSlicesQueens)->Unit(benchmark::kMillisecond);

static void
BM_BranchWalkAllSizesQueens(benchmark::State &state)
{
    // Static not-taken and every bimodal table size (2 .. 2^20 entries)
    // walked over the default machine's outcome stream by one
    // BranchFold: the twenty tables advance together, outcome by
    // outcome.
    const auto img = core::build(core::workload("queens").source,
                                 mc::CompileOptions::dlxe());
    const auto trace = core::replay::capture(img);
    std::vector<sim::UarchConfig> predictors(1);
    predictors[0].branch = sim::BranchPolicy::StaticNotTaken;
    for (int log2 = 1; log2 <= 20; ++log2) {
        predictors.emplace_back().branch = sim::BranchPolicy::Bimodal;
        predictors.back().bhtLog2 = log2;
    }
    for (auto _ : state) {
        core::replay::BranchFold fold(trace.insnBytes);
        for (const sim::UarchConfig &p : predictors)
            fold.add(p);
        fold.feed(trace.chunk());
        for (const sim::UarchConfig &p : predictors)
            benchmark::DoNotOptimize(fold.finish(p, 0).mispredicts);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(trace.outcomes.size()));
}
BENCHMARK(BM_BranchWalkAllSizesQueens)->Unit(benchmark::kMillisecond);

static void
BM_ReplayCacheQueens(benchmark::State &state)
{
    // One cache configuration evaluated from a recorded trace: the
    // single-config path (replayCache), a one-size inclusive I-side
    // walk plus a one-size direct-mapped D-side group.
    const auto img = core::build(core::workload("queens").source,
                                 mc::CompileOptions::dlxe());
    const auto trace = core::replay::capture(img);
    mem::CacheConfig cfg;
    cfg.sizeBytes = 4096;
    cfg.blockBytes = 32;
    cfg.subBlockBytes = 8;
    for (auto _ : state) {
        const auto stats = core::replay::replayCache(trace, cfg, cfg);
        benchmark::DoNotOptimize(stats.first.misses());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(trace.base.stats.instructions));
}
BENCHMARK(BM_ReplayCacheQueens)->Unit(benchmark::kMillisecond);

/** The paper's 20 §4.1 configurations (1K-16K x 8-64 B blocks,
 *  sub-block min(block, 8)), the same on both sides. */
static std::vector<core::replay::CacheEval>
paperCacheEvals()
{
    std::vector<core::replay::CacheEval> evals;
    for (uint32_t kb : {1u, 2u, 4u, 8u, 16u}) {
        for (uint32_t block : {8u, 16u, 32u, 64u}) {
            core::replay::CacheEval e;
            e.icache.sizeBytes = kb * 1024;
            e.icache.blockBytes = block;
            e.icache.subBlockBytes = std::min(block, 8u);
            e.dcache = e.icache;
            evals.push_back(e);
        }
    }
    return evals;
}

static void
BM_ReplayCachesPaperMatrix(benchmark::State &state)
{
    // All 20 paper cache configurations in one replayCaches() call:
    // four inclusive I-side walks and four direct-mapped D-side groups
    // (one per block size).
    const auto img = core::build(core::workload("queens").source,
                                 mc::CompileOptions::dlxe());
    const auto trace = core::replay::capture(img);
    std::vector<core::replay::CacheEval> evals = paperCacheEvals();
    for (auto _ : state) {
        core::replay::replayCaches(trace, evals);
        benchmark::DoNotOptimize(evals.front().icacheStats.misses());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(trace.base.stats.instructions));
}
BENCHMARK(BM_ReplayCachesPaperMatrix)->Unit(benchmark::kMillisecond);

static void
BM_CacheNodeLatexD16(benchmark::State &state, bool dataSide)
{
    // One side of the §4.1 node that settles last before paper-cold's
    // median row: latex on D16 under the paper's 20 configurations,
    // fed to one CacheFold in capture-sink-sized chunks, as a capture
    // feeds it. The I-side gets the fetch runs alone, the D-side the
    // data accesses alone. Items are reference-configuration probes.
    static const core::replay::Trace trace = core::replay::capture(
        core::build(core::workload("latex").source,
                    mc::CompileOptions::d16()));
    std::vector<core::replay::CacheEval> evals = paperCacheEvals();
    const std::span<const core::replay::FetchRun> runs(trace.runs);
    const std::span<const core::replay::DataAccess> accesses(
        trace.accesses);
    const size_t n = dataSide ? accesses.size() : runs.size();
    for (auto _ : state) {
        core::replay::CacheFold fold(evals, trace.insnBytes);
        for (size_t i = 0; i < n; i += sim::TraceSink::Capacity) {
            const size_t len = std::min<size_t>(sim::TraceSink::Capacity,
                                                n - i);
            sim::TraceChunk chunk;
            if (dataSide)
                chunk.accesses = accesses.subspan(i, len);
            else
                chunk.runs = runs.subspan(i, len);
            fold.feed(chunk);
        }
        fold.finish();
        benchmark::DoNotOptimize(evals.front().dcacheStats.misses());
    }
    const uint64_t refs =
        dataSide ? accesses.size() : trace.base.stats.instructions;
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(refs * evals.size()));
}
BENCHMARK_CAPTURE(BM_CacheNodeLatexD16, ISide, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CacheNodeLatexD16, DSide, true)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
