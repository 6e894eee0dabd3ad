/**
 * @file
 * Trace-replay tests: replay-vs-direct equivalence over the smoke
 * matrix (exact CacheStats and CPI for every cache variant), timing
 * replay of every non-default forwarding/depth slice from the default
 * machine's trace (and its refusal of a trace that writes its text),
 * the timing fold's memoized runs on hand-built run sequences, binary
 * round-trip of the D16T format, and the truncated/corrupt-
 * trace error paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "asm/assembler.hh"
#include "asm/parser.hh"
#include "core/replay/replay.hh"
#include "core/replay/trace.hh"
#include "core/sweep/artifacts.hh"
#include "core/sweep/sweep.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "support/error.hh"

namespace
{

using namespace d16sim;
using namespace d16sim::core;
using mc::CompileOptions;
using replay::Trace;

/** A small program with loops (taken branches), loads and stores of
 *  several sizes — enough structure to exercise every trace record. */
constexpr const char *kProgram = R"(
int sums[8];
char bytes[16];

int main() {
    int i;
    int j;
    int acc;
    acc = 0;
    for (i = 0; i < 16; i = i + 1)
        bytes[i] = i * 3;
    for (i = 0; i < 8; i = i + 1) {
        for (j = 0; j < 16; j = j + 1)
            acc = acc + bytes[j];
        sums[i] = acc;
    }
    print_int(acc);
    return 0;
}
)";

Trace
captureProgram(const CompileOptions &opts)
{
    const assem::Image image = build(kProgram, opts);
    return replay::capture(image);
}

// ----- capture basics -------------------------------------------------

TEST(TraceCapture, StreamsCrossCheckWithMeasurement)
{
    for (const CompileOptions &opts :
         {CompileOptions::d16(), CompileOptions::dlxe()}) {
        const Trace t = captureProgram(opts);
        EXPECT_EQ(t.insnBytes,
                  static_cast<uint32_t>(opts.target().insnBytes()));
        // Every executed instruction is one recorded fetch...
        EXPECT_EQ(t.fetchCount(), t.base.stats.instructions);
        // ...and every load/store is one recorded data access.
        EXPECT_EQ(t.accesses.size(), t.base.stats.memOps());
        // Run-length encoding only breaks at taken branches, so the
        // run count is bounded by taken branches + 1.
        EXPECT_LE(t.runs.size(), t.base.stats.takenBranches + 1);
        EXPECT_GT(t.runs.size(), 1u);
    }
}

TEST(TraceCapture, MeasurementMatchesProbelessRun)
{
    // Observing the streams never perturbs execution: the capture
    // run's measurement is identical to a plain run of the same image.
    const assem::Image image = build(kProgram, CompileOptions::d16());
    const RunMeasurement direct = run(image);
    const Trace t = replay::capture(image);
    EXPECT_EQ(t.base.output, direct.output);
    EXPECT_EQ(t.base.exitStatus, direct.exitStatus);
    EXPECT_EQ(t.base.stats.instructions, direct.stats.instructions);
    EXPECT_EQ(t.base.stats.baseCycles(), direct.stats.baseCycles());
    EXPECT_EQ(t.base.stats.memOps(), direct.stats.memOps());
}

// ----- replay equivalence ---------------------------------------------

/** Evaluate the caches directly on a live run (CacheProbe) and through
 *  the replay evaluator; both must agree bit-for-bit. */
void
expectCacheEquivalence(const assem::Image &image, const Trace &trace,
                       const mem::CacheConfig &icfg,
                       const mem::CacheConfig &dcfg)
{
    CacheProbe probe(icfg, dcfg, static_cast<int>(trace.insnBytes));
    run(image, &probe);

    const auto [istats, dstats] = replay::replayCache(trace, icfg, dcfg);

    const mem::CacheStats &di = probe.icache().stats();
    const mem::CacheStats &dd = probe.dcache().stats();
    EXPECT_EQ(istats.reads, di.reads);
    EXPECT_EQ(istats.readMisses, di.readMisses);
    EXPECT_EQ(istats.wordsIn, di.wordsIn);
    EXPECT_EQ(istats.wordsOut, di.wordsOut);
    EXPECT_EQ(dstats.reads, dd.reads);
    EXPECT_EQ(dstats.writes, dd.writes);
    EXPECT_EQ(dstats.readMisses, dd.readMisses);
    EXPECT_EQ(dstats.writeMisses, dd.writeMisses);
    EXPECT_EQ(dstats.wordsIn, dd.wordsIn);
    EXPECT_EQ(dstats.wordsOut, dd.wordsOut);
}

TEST(Replay, CacheStatsMatchDirectSimulation)
{
    for (const CompileOptions &opts :
         {CompileOptions::d16(), CompileOptions::dlxe()}) {
        const assem::Image image = build(kProgram, opts);
        const Trace trace = replay::capture(image);
        // Tiny caches force conflict misses and write-backs.
        for (uint32_t size : {256u, 1024u}) {
            mem::CacheConfig cfg;
            cfg.sizeBytes = size;
            cfg.blockBytes = 16;
            cfg.subBlockBytes = 8;
            expectCacheEquivalence(image, trace, cfg, cfg);
        }
    }
}

TEST(Replay, FetchRequestsMatchDirectSimulation)
{
    const assem::Image image = build(kProgram, CompileOptions::d16());
    const Trace trace = replay::capture(image);
    for (uint32_t bus : {4u, 8u}) {
        FetchBufferProbe probe(bus, trace.insnBytes);
        run(image, &probe);
        EXPECT_EQ(replay::replayFetchRequests(trace, bus),
                  probe.requests())
            << "bus " << bus;
    }
}

/** The full matrix's 20 §4.1 cache configurations (1K-16K x 8-64 B
 *  blocks), in key order. */
std::vector<mem::CacheConfig>
paperCacheConfigs()
{
    std::map<std::string, mem::CacheConfig> unique;
    for (const sweep::JobSpec &j : sweep::fullMatrix())
        if (j.probe == sweep::ProbeKind::CacheSim)
            unique.emplace(sweep::cacheKey(j.icache), j.icache);
    std::vector<mem::CacheConfig> out;
    for (const auto &[key, cfg] : unique)
        out.push_back(cfg);
    return out;
}

void
expectStatsEqual(const mem::CacheStats &got, const mem::CacheStats &want,
                 const std::string &where)
{
    EXPECT_EQ(got.reads, want.reads) << where;
    EXPECT_EQ(got.writes, want.writes) << where;
    EXPECT_EQ(got.readMisses, want.readMisses) << where;
    EXPECT_EQ(got.writeMisses, want.writeMisses) << where;
    EXPECT_EQ(got.wordsIn, want.wordsIn) << where;
    EXPECT_EQ(got.wordsOut, want.wordsOut) << where;
}

TEST(Replay, SinglePassMatchesIndependentPasses)
{
    // One replayCaches() call over the paper's 20 configurations (the
    // inclusive I-side evaluator) plus a 2-way one (the generic
    // model) must match one independent pass per configuration, and
    // direct simulation under a CacheProbe.
    for (const CompileOptions &opts :
         {CompileOptions::d16(), CompileOptions::dlxe()}) {
        const assem::Image image = build(kProgram, opts);
        const Trace trace = replay::capture(image);

        std::vector<mem::CacheConfig> cfgs = paperCacheConfigs();
        ASSERT_EQ(cfgs.size(), 20u);
        mem::CacheConfig twoWay = cfgs.front();
        twoWay.assoc = 2;
        cfgs.push_back(twoWay);

        std::vector<replay::CacheEval> evals(cfgs.size());
        for (size_t i = 0; i < cfgs.size(); ++i)
            evals[i].icache = evals[i].dcache = cfgs[i];
        replay::replayCaches(trace, evals);

        for (const replay::CacheEval &e : evals) {
            const std::string where = sweep::cacheKey(e.icache);
            const auto [istats, dstats] =
                replay::replayCache(trace, e.icache, e.dcache);
            expectStatsEqual(e.icacheStats, istats, where);
            expectStatsEqual(e.dcacheStats, dstats, where);

            CacheProbe probe(e.icache, e.dcache,
                             static_cast<int>(trace.insnBytes));
            run(image, &probe);
            expectStatsEqual(e.icacheStats, probe.icache().stats(), where);
            expectStatsEqual(e.dcacheStats, probe.dcache().stats(), where);
        }
    }
}

TEST(Replay, EngineCacheMatrixMatchesNoReplay)
{
    // Build nodes with 20 cache siblings each: the engine streams them
    // through one CacheFold per node, and the document must be
    // byte-identical to re-simulating every job (d16sweep
    // --no-replay). The base + imm DLXe/16/2 nodes capture once: the
    // base run rides on the capture and the imm job replays.
    std::vector<sweep::JobSpec> jobs;
    for (const char *name : {"solver", "bubblesort"}) {
        for (const CompileOptions &opts :
             {CompileOptions::d16(), CompileOptions::dlxe()})
            for (const mem::CacheConfig &cfg : paperCacheConfigs())
                jobs.push_back(sweep::JobSpec::cache(name, opts, cfg, cfg));
        jobs.push_back(
            sweep::JobSpec::base(name, CompileOptions::dlxe(16, false)));
        jobs.push_back(
            sweep::JobSpec::imm(name, CompileOptions::dlxe(16, false)));
    }
    ASSERT_EQ(jobs.size(), 84u);

    auto sweepDoc = [&](bool replayOn, sweep::SweepTiming *timing) {
        sweep::ResultStore store;
        sweep::SweepEngine engine(store, 2);
        engine.setReplay(replayOn);
        engine.add(jobs);
        engine.run();
        *timing = engine.timing();
        return sweep::sweepJson(store, nullptr).dump();
    };
    sweep::SweepTiming on, off;
    const std::string replayed = sweepDoc(true, &on);
    const std::string direct = sweepDoc(false, &off);
    EXPECT_EQ(replayed, direct);
    EXPECT_EQ(on.capturedTraces, 6);
    EXPECT_EQ(on.replayedRuns, 82);
    EXPECT_EQ(on.executedRuns, 84);
    EXPECT_EQ(off.replayedRuns, 0);
    EXPECT_EQ(off.executedRuns, 84);
}

/** Feed `folds` the trace's streams `n` records per stream a chunk
 *  (0: the whole trace in one chunk). */
void
feedInChunks(sim::TraceFold &folds, const Trace &trace, size_t n)
{
    if (n == 0) {
        folds.feed(trace.chunk());
        return;
    }
    auto slice = [n](const auto &v, size_t at) {
        using T = typename std::decay_t<decltype(v)>::value_type;
        const size_t from = std::min(at, v.size());
        return std::span<const T>(v.data() + from,
                                  std::min(n, v.size() - from));
    };
    for (size_t at = 0; at < trace.runs.size() ||
                        at < trace.accesses.size() ||
                        at < trace.outcomes.size();
         at += n)
        folds.feed({slice(trace.runs, at), slice(trace.accesses, at),
                    slice(trace.outcomes, at)});
}

TEST(Replay, NodeFoldsIgnoreChunkBoundaries)
{
    // One node's fold set — base, imm, both fetch-buffer widths, the
    // 20 paper cache configs, the three branch policies at three BHT
    // sizes and all five retimed slices — must settle identical
    // results however the streams are cut into chunks.
    const CompileOptions opts = CompileOptions::dlxe(16, false);
    const assem::Image image = build(workload("queens").source, opts);
    const auto predecoded = std::make_shared<const sim::DecodedText>(image);
    const replay::TimingTable table(image, *predecoded);
    const Trace trace = replay::capture(image, predecoded, {},
                                        buildBlockProgram(image, predecoded));
    ASSERT_GT(trace.runs.size(), 4096u);

    std::vector<sweep::JobSpec> specs = {
        sweep::JobSpec::base("queens", opts),
        sweep::JobSpec::imm("queens", opts),
        sweep::JobSpec::fetch("queens", opts, 4),
        sweep::JobSpec::fetch("queens", opts, 8)};
    for (const mem::CacheConfig &cfg : paperCacheConfigs())
        specs.push_back(sweep::JobSpec::cache("queens", opts, cfg, cfg));
    for (const char *key :
         {"bp=static", "bp=bimodal6", "bp=bimodal2", "bp=bimodal12",
          "fwd=on", "depth=6", "fwd=on,depth=6", "depth=7", "fwd=on,depth=7",
          "fwd=on,depth=7,bp=bimodal6"}) {
        specs.push_back(sweep::JobSpec::base("queens", opts));
        specs.back().uarch = sweep::parseUarch(key);
    }
    ASSERT_EQ(specs.size(), 34u);
    std::vector<const sweep::JobSpec *> ptrs;
    for (const sweep::JobSpec &spec : specs)
        ptrs.push_back(&spec);

    auto settle = [&](size_t n) {
        sweep::NodeFolds folds(ptrs, trace.insnBytes, trace.capturedUarch,
                               predecoded.get(), &table);
        feedInChunks(folds, trace, n);
        EXPECT_EQ(folds.retimedSlices(), 5);
        std::vector<std::string> rows;
        for (const auto &[spec, r] : folds.finish(trace.base))
            rows.push_back(sweep::jobKey(*spec) + " " +
                           sweep::resultJson(r).dump());
        return rows;
    };
    const std::vector<std::string> whole = settle(0);
    ASSERT_EQ(whole.size(), specs.size());
    for (size_t n : {size_t{1}, size_t{7}, size_t{4096}})
        EXPECT_EQ(settle(n), whole) << n << " records per chunk";
    // And each row on the captured slice is the one the job replays to
    // on its own.
    for (size_t i = 0; i < 28; ++i)
        EXPECT_EQ(whole[i], sweep::jobKey(specs[i]) + " " +
                                sweep::resultJson(sweep::replayJob(
                                    specs[i], trace, predecoded.get()))
                                    .dump());
}

TEST(Replay, StreamedCaptureTeeMatchesCapture)
{
    // A node's capture streams through the bounded sink into its folds
    // and, for the artifact store, a tee: the teed trace must
    // serialize exactly as a whole-run capture does. Four workers split
    // the 30 images.
    std::vector<std::pair<std::string, CompileOptions>> images;
    for (const Workload &w : workloadSuite())
        for (const CompileOptions &opts :
             {CompileOptions::d16(), CompileOptions::dlxe(32, true)})
            images.emplace_back(w.name, opts);
    ASSERT_EQ(images.size(), 30u);

    std::atomic<size_t> next{0};
    std::mutex mutex;
    std::vector<std::string> mismatches;
    auto worker = [&] {
        for (size_t i = next++; i < images.size(); i = next++) {
            const auto &[name, opts] = images[i];
            const assem::Image image = build(workload(name).source, opts);
            const auto predecoded =
                std::make_shared<const sim::DecodedText>(image);
            const auto blocks = buildBlockProgram(image, predecoded);
            const sweep::JobSpec base = sweep::JobSpec::base(name, opts);
            const sweep::JobSpec fetch = sweep::JobSpec::fetch(name, opts, 4);
            Trace teed;
            sweep::streamJobs({&base, &fetch}, nullptr, &image, predecoded,
                              blocks, nullptr, &teed,
                              [](const sweep::JobSpec &, sweep::JobResult) {});
            const bool same =
                teed.serialize() ==
                replay::capture(image, predecoded, {}, blocks).serialize();
            std::lock_guard<std::mutex> lock(mutex);
            if (!same)
                mismatches.push_back(name + "|" + sweep::variantKey(opts));
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    EXPECT_TRUE(mismatches.empty()) << mismatches.front();
}

TEST(Replay, SmokeMatrixJobsMatchDirectExecution)
{
    // The acceptance check behind the golden gate: every probe job of
    // the golden-regression matrix (imm included) evaluates from a
    // trace to a result bit-identical to direct simulation — same
    // canonical JSON, same CacheStats, same CPI.
    std::map<std::string, std::vector<sweep::JobSpec>> groups;
    for (sweep::JobSpec &j : sweep::smokeMatrix()) {
        if (j.probe == sweep::ProbeKind::None)
            continue;
        groups[sweep::buildKey(j)].push_back(std::move(j));
    }
    ASSERT_FALSE(groups.empty());

    int checked = 0, classified = 0;
    for (const auto &[key, specs] : groups) {
        const assem::Image image =
            build(workload(specs.front().workload).source,
                  specs.front().opts);
        const Trace trace = replay::capture(image);
        const sim::DecodedText text(image);
        for (const sweep::JobSpec &spec : specs) {
            const sweep::JobResult direct =
                sweep::executeJob(spec, image);
            const sweep::JobResult replayed =
                sweep::replayJob(spec, trace, &text);
            // Canonical JSON covers the run measurement and every
            // probe metric the sweep document publishes.
            EXPECT_EQ(replayed.json().dump(), direct.json().dump())
                << sweep::jobKey(spec);
            if (spec.probe == sweep::ProbeKind::CacheSim) {
                // CPI from the §4.1 formula must agree exactly too.
                for (int penalty : {8, 16}) {
                    EXPECT_EQ(
                        cyclesWithCache(replayed.run.stats, penalty,
                                        replayed.icache,
                                        replayed.dcache),
                        cyclesWithCache(direct.run.stats, penalty,
                                        direct.icache, direct.dcache))
                        << sweep::jobKey(spec);
                }
            }
            ++checked;
            classified += spec.probe == sweep::ProbeKind::ImmClass;
        }
    }
    EXPECT_GE(checked, 4);
    EXPECT_EQ(classified, 2);
}

// ----- binary round-trip ----------------------------------------------

TEST(TraceFormat, SerializeDeserializeRoundTripsByteExactly)
{
    for (const CompileOptions &opts :
         {CompileOptions::d16(), CompileOptions::dlxe()}) {
        const Trace t = captureProgram(opts);
        const std::vector<uint8_t> bytes = t.serialize();
        const Trace back = Trace::deserialize(bytes);

        EXPECT_EQ(back.insnBytes, t.insnBytes);
        ASSERT_EQ(back.runs.size(), t.runs.size());
        ASSERT_EQ(back.accesses.size(), t.accesses.size());
        EXPECT_EQ(back.fetchCount(), t.fetchCount());
        // Re-serializing the parsed trace reproduces the bytes.
        EXPECT_EQ(back.serialize(), bytes);
    }
}

TEST(TraceFormat, FileRoundTrip)
{
    const Trace t = captureProgram(CompileOptions::d16());
    const std::string path = ::testing::TempDir() + "replay_test.d16t";
    t.writeFile(path);
    const Trace back = Trace::readFile(path);
    EXPECT_EQ(back.serialize(), t.serialize());
    std::remove(path.c_str());
}

// ----- format v3: capture uarch + branch outcomes ----------------------

TEST(TraceFormat, V3OutcomeStreamRoundTripsByteExactly)
{
    for (const CompileOptions &opts :
         {CompileOptions::d16(), CompileOptions::dlxe()}) {
        const Trace t = captureProgram(opts);
        ASSERT_EQ(t.outcomes.size(), t.base.stats.condBranches);
        EXPECT_GT(t.outcomes.size(), 0u);

        const std::vector<uint8_t> bytes = t.serialize();
        const Trace back = Trace::deserialize(bytes);
        ASSERT_EQ(back.outcomes.size(), t.outcomes.size());
        for (size_t i = 0; i < t.outcomes.size(); ++i) {
            EXPECT_EQ(back.outcomes[i].pc, t.outcomes[i].pc);
            EXPECT_EQ(back.outcomes[i].taken, t.outcomes[i].taken);
        }
        EXPECT_TRUE(back.capturedUarch == t.capturedUarch);
        EXPECT_EQ(back.serialize(), bytes);
    }
}

TEST(TraceFormat, RejectsVersionTwoTrace)
{
    // The pre-outcome v2 layout is no longer read: a trace whose
    // version field says 2 fails the format-version input check.
    std::vector<uint8_t> bytes =
        captureProgram(CompileOptions::d16()).serialize();
    bytes[4] = 2;
    try {
        Trace::deserialize(bytes);
        ADD_FAILURE() << "a version-2 trace deserialized";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported format version 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Replay, BranchStatsRejectCaptureSliceMismatch)
{
    // Captured at the default (fwd off, depth 5) — replaying a depth-7
    // policy from it would fabricate interlock counts.
    const Trace t = captureProgram(CompileOptions::d16());
    sim::UarchConfig depth7;
    depth7.depth = 7;
    EXPECT_THROW(replay::branchStatsFor(t, depth7), FatalError);
}

TEST(Replay, BranchStatsMatchDirectSimulation)
{
    for (const CompileOptions &opts :
         {CompileOptions::d16(), CompileOptions::dlxe()}) {
        const assem::Image image = build(kProgram, opts);
        const Trace trace = replay::capture(image);
        for (const char *key : {"bp=static", "bp=bimodal4", "bp=bimodal2"}) {
            const sim::UarchConfig uarch = sweep::parseUarch(key);
            sim::MachineConfig mcfg;
            mcfg.uarch = uarch;
            const RunMeasurement direct = run(image, {}, mcfg);
            const replay::BranchReplayStats rs =
                replay::branchStatsFor(trace, uarch);
            EXPECT_EQ(rs.mispredicts, direct.stats.mispredicts) << key;
            EXPECT_EQ(rs.branchStalls, direct.stats.branchStalls) << key;
        }
    }
}

/** Every predictor one BranchFold walks at `depth`: delay slot, static
 *  not-taken and bimodal tables of 2 .. 2^20 entries. */
std::vector<sim::UarchConfig>
everyPredictor(int depth)
{
    std::vector<sim::UarchConfig> out(2);
    out[1].branch = sim::BranchPolicy::StaticNotTaken;
    for (int log2 = 1; log2 <= 20; ++log2) {
        out.emplace_back().branch = sim::BranchPolicy::Bimodal;
        out.back().bhtLog2 = log2;
    }
    for (sim::UarchConfig &u : out)
        u.depth = depth;
    return out;
}

/** One BranchFold walking every predictor over `outcomes`, whole and
 *  in chunks of 1, 7 and 4096 records, must report what one
 *  sim::BranchModel per predictor charges for the same stream. */
void
expectFoldMatchesModels(std::span<const sim::BranchOutcome> outcomes,
                        uint32_t insnBytes, const std::string &what)
{
    // At depth 7 every policy charges something: the delay slot two
    // cycles per taken transfer (here only conditionals), the
    // predictors three per mispredict.
    const std::vector<sim::UarchConfig> predictors = everyPredictor(7);
    uint64_t taken = 0;
    for (const sim::BranchOutcome &o : outcomes)
        taken += o.taken;
    std::vector<replay::BranchReplayStats> expected;
    for (const sim::UarchConfig &u : predictors) {
        sim::BranchModel model(u, insnBytes == 2 ? 1 : 2);
        replay::BranchReplayStats &e = expected.emplace_back();
        for (const sim::BranchOutcome &o : outcomes) {
            bool mispredicted = false;
            e.branchStalls += model.conditional(o.pc, o.taken, mispredicted);
            e.mispredicts += mispredicted;
        }
    }
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{4096}}) {
        replay::BranchFold fold(insnBytes);
        for (const sim::UarchConfig &u : predictors)
            fold.add(u);
        const size_t step = n ? n : outcomes.size();
        for (size_t at = 0; at < outcomes.size(); at += step)
            fold.feed({{}, {}, outcomes.subspan(at, std::min(step,
                                                outcomes.size() - at))});
        for (size_t i = 0; i < predictors.size(); ++i) {
            const replay::BranchReplayStats got =
                fold.finish(predictors[i], taken);
            EXPECT_EQ(got.mispredicts, expected[i].mispredicts)
                << what << " " << predictors[i].key() << ", " << n
                << " records per chunk";
            EXPECT_EQ(got.branchStalls, expected[i].branchStalls)
                << what << " " << predictors[i].key() << ", " << n
                << " records per chunk";
        }
    }
}

TEST(Replay, BranchFoldWalksEveryTableSizeLikeItsModel)
{
    // A hand-built stream: 48 branch sites whose pcs are 2^k
    // instructions apart for k = 0..11 (four sites per distance), so
    // they alias in every table up to 2^11 entries and pull their
    // shared counters in different directions; each site follows its
    // own taken pattern.
    for (const uint32_t insnBytes : {2u, 4u}) {
        std::vector<sim::BranchOutcome> outcomes;
        for (uint32_t i = 0; i < 20000; ++i) {
            const uint32_t site = (i * 7) % 48;
            const uint32_t pc =
                0x1000 + insnBytes * ((site % 4) + (1u << (site / 4)));
            outcomes.push_back({pc, ((i / 48 + site) % (site % 5 + 2)) != 0});
        }
        expectFoldMatchesModels(outcomes, insnBytes,
                                "aliasing stream, insnBytes " +
                                    std::to_string(insnBytes));
    }
    // Real streams from both ISAs.
    for (const char *name : {"queens", "solver"}) {
        for (const CompileOptions &opts :
             {CompileOptions::d16(), CompileOptions::dlxe()}) {
            const Trace trace =
                replay::capture(build(workload(name).source, opts));
            ASSERT_GT(trace.outcomes.size(), 4096u) << name;
            expectFoldMatchesModels(trace.outcomes, trace.insnBytes,
                                    std::string(name) + " " + opts.name());
        }
    }
}

TEST(Replay, NodeFoldsWalkEveryBimodalSizeAtOnce)
{
    // A served request can put more bimodal sizes on one node than an
    // explore node names: every size from 2 to 2^20 entries, beside
    // the other two policies, at two depths, must settle each job
    // exactly as the job replays on its own.
    const CompileOptions opts = CompileOptions::d16();
    const assem::Image image = build(workload("queens").source, opts);
    const auto predecoded = std::make_shared<const sim::DecodedText>(image);
    const replay::TimingTable table(image, *predecoded);
    const Trace trace = replay::capture(image, predecoded);
    std::vector<sweep::JobSpec> specs;
    for (const int depth : {5, 7}) {
        for (const sim::UarchConfig &u : everyPredictor(depth)) {
            specs.push_back(sweep::JobSpec::base("queens", opts));
            specs.back().uarch = u;
        }
    }
    std::vector<const sweep::JobSpec *> ptrs;
    for (const sweep::JobSpec &spec : specs)
        ptrs.push_back(&spec);
    sweep::NodeFolds folds(ptrs, trace.insnBytes, trace.capturedUarch,
                           predecoded.get(), &table);
    feedInChunks(folds, trace, 4096);
    const auto rows = folds.finish(trace.base);
    ASSERT_EQ(rows.size(), specs.size());
    for (const auto &[spec, r] : rows) {
        if (!spec->uarch.captureConfig().isDefault())
            continue;  // the depth-7 slice is retimed, checked below
        EXPECT_EQ(sweep::resultJson(r).dump(),
                  sweep::resultJson(
                      sweep::replayJob(*spec, trace, predecoded.get()))
                      .dump())
            << sweep::jobKey(*spec);
    }
    // At depth 7 each predictor's mispredicts are its depth-5 twin's,
    // and the stalls follow the deeper penalties.
    const size_t half = specs.size() / 2;
    for (size_t i = 0; i < half; ++i) {
        const sim::SimStats &d5 = rows[i].second.run.stats;
        const sim::SimStats &d7 = rows[half + i].second.run.stats;
        const sim::UarchConfig &u = specs[half + i].uarch;
        EXPECT_EQ(d7.mispredicts, d5.mispredicts) << u.key();
        EXPECT_EQ(d7.branchStalls,
                  u.branch == sim::BranchPolicy::DelaySlot
                      ? d7.takenBranches * 2
                      : d7.mispredicts * 3)
            << u.key();
    }
}

// ----- timing replay --------------------------------------------------

/** The five non-default capture slices: forwarding x depth 5..7. */
std::vector<sim::UarchConfig>
nonDefaultSlices()
{
    std::vector<sim::UarchConfig> out;
    for (const char *key : {"fwd=on", "depth=6", "fwd=on,depth=6",
                            "depth=7", "fwd=on,depth=7"})
        out.push_back(sweep::parseUarch(key));
    return out;
}

TEST(Replay, TimingReplayMatchesCaptureAtEverySlice)
{
    // Every suite workload x paper variant, captured once on the
    // default machine and retimed to each non-default slice, must
    // report exactly the SimStats of a run at that slice. Four
    // workers split the 75 images.
    struct Image
    {
        std::string workload;
        CompileOptions opts;
    };
    std::vector<Image> images;
    for (const Workload &w : workloadSuite())
        for (const auto &[label, opts] : sweep::paperVariants())
            images.push_back({w.name, opts});
    ASSERT_EQ(images.size(), 75u);

    std::atomic<size_t> next{0};
    std::mutex mutex;
    std::vector<std::string> mismatches;
    int compared = 0;
    auto worker = [&] {
        for (size_t i = next++; i < images.size(); i = next++) {
            const assem::Image image =
                build(workload(images[i].workload).source, images[i].opts);
            const auto predecoded =
                std::make_shared<const sim::DecodedText>(image);
            const auto blocks = buildBlockProgram(image, predecoded);
            const Trace trace =
                replay::capture(image, predecoded, {}, blocks);
            const replay::TimingTable table(image, *predecoded);
            ASSERT_TRUE(replay::timingReplayable(trace, table));
            for (const sim::UarchConfig &slice : nonDefaultSlices()) {
                sim::MachineConfig cfg;
                cfg.uarch = slice;
                const RunMeasurement direct =
                    run(image, {}, cfg, predecoded, blocks);
                const replay::TimingReplayStats timed =
                    replay::replayTiming(trace, table, slice);
                const RunMeasurement replayed =
                    replay::replayRun(trace, slice, &timed);
                std::lock_guard<std::mutex> lock(mutex);
                ++compared;
                if (!(replayed.stats == direct.stats) ||
                    replayed.output != direct.output)
                    mismatches.push_back(images[i].workload + "|" +
                                         sweep::variantKey(images[i].opts) +
                                         "|" + slice.key());
            }
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(compared, 375);
    EXPECT_TRUE(mismatches.empty())
        << mismatches.size() << " mismatches, first " << mismatches.front();
}

TEST(Replay, NodeFoldsMatchDirectRunsAtEverySlice)
{
    // One node per image: base jobs at all six forwarding x depth
    // slices, predictor and fetch-buffer jobs on and off the default
    // slice. Streamed from one default capture through one timing fold
    // (depth 6 and 7 share its lane), every row must be the one a run
    // on the job's own machine reports. solver and whetstone carry FP
    // results in flight across runs.
    std::vector<std::pair<std::string, CompileOptions>> images;
    for (const char *name : {"queens", "solver", "whetstone"})
        for (const CompileOptions &opts :
             {CompileOptions::d16(), CompileOptions::dlxe()})
            images.emplace_back(name, opts);

    std::atomic<size_t> next{0};
    std::mutex mutex;
    std::vector<std::string> mismatches;
    int compared = 0;
    auto worker = [&] {
        for (size_t i = next++; i < images.size(); i = next++) {
            const auto &[name, opts] = images[i];
            const assem::Image image = build(workload(name).source, opts);
            const auto predecoded =
                std::make_shared<const sim::DecodedText>(image);
            const auto blocks = buildBlockProgram(image, predecoded);
            const replay::TimingTable table(image, *predecoded);

            replay::TimingFold fold(
                table, static_cast<uint32_t>(image.target->insnBytes()));
            fold.add(sweep::parseUarch("depth=6"));
            fold.add(sweep::parseUarch("bp=static,depth=7"));
            EXPECT_EQ(fold.lanes(), 1u);
            EXPECT_EQ(fold.slices(), 2u);
            for (const sim::UarchConfig &slice : nonDefaultSlices())
                fold.add(slice);
            EXPECT_EQ(fold.lanes(), 3u);
            EXPECT_EQ(fold.slices(), 5u);

            std::vector<sweep::JobSpec> specs;
            for (const char *key :
                 {"", "fwd=on", "depth=6", "fwd=on,depth=6", "depth=7",
                  "fwd=on,depth=7", "bp=static", "bp=bimodal9",
                  "bp=static,depth=6", "fwd=on,bp=bimodal4,depth=7"}) {
                specs.push_back(sweep::JobSpec::base(name, opts));
                specs.back().uarch = sweep::parseUarch(key);
            }
            for (const char *key : {"", "fwd=on,depth=7"}) {
                specs.push_back(sweep::JobSpec::fetch(name, opts, 4));
                specs.back().uarch = sweep::parseUarch(key);
            }
            std::vector<const sweep::JobSpec *> ptrs;
            for (const sweep::JobSpec &spec : specs)
                ptrs.push_back(&spec);
            std::map<std::string, sweep::JobResult> got;
            const sweep::NodeCost cost = sweep::streamJobs(
                ptrs, nullptr, &image, predecoded, blocks, &table, nullptr,
                [&](const sweep::JobSpec &spec, sweep::JobResult r) {
                    got.emplace(sweep::jobKey(spec), std::move(r));
                });
            EXPECT_EQ(cost.captures, 1);
            EXPECT_EQ(cost.retimedSlices, 5);
            for (const sweep::JobSpec &spec : specs) {
                const sweep::JobResult direct =
                    sweep::executeJob(spec, image);
                const auto it = got.find(sweep::jobKey(spec));
                std::lock_guard<std::mutex> lock(mutex);
                ++compared;
                if (it == got.end() ||
                    it->second.json().dump() != direct.json().dump() ||
                    !(it->second.run.stats == direct.run.stats))
                    mismatches.push_back(sweep::jobKey(spec));
            }
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(compared, 72);
    EXPECT_TRUE(mismatches.empty())
        << mismatches.size() << " mismatches, first " << mismatches.front();
}

TEST(Replay, TimingReplayRejectsSliceMismatch)
{
    // A retimed run is the retimed slice's: replaying another slice's
    // jobs from it would mix two scoreboards.
    const assem::Image image = build(kProgram, CompileOptions::d16());
    const sim::DecodedText text(image);
    const Trace t = replay::capture(image);
    const replay::TimingTable table(image, text);
    const replay::TimingReplayStats fwd =
        replay::replayTiming(t, table, sweep::parseUarch("fwd=on"));
    EXPECT_NO_THROW(
        replay::replayRun(t, sweep::parseUarch("fwd=on,bp=static"), &fwd));
    EXPECT_THROW(replay::replayRun(t, sweep::parseUarch("depth=7"), &fwd),
                 FatalError);
    EXPECT_THROW(replay::replayRun(t, sweep::parseUarch("bp=static"), &fwd),
                 FatalError);
}

/** Assemble hand-written source for `target`. */
assem::Image
assembleProgram(const isa::TargetInfo &target, const std::string &src)
{
    assem::Assembler as(target);
    as.add(assem::parseAsm(target, src));
    return as.link();
}

/** The little-endian instruction word at `addr` of `image`. */
uint32_t
wordAt(const assem::Image &image, uint32_t addr)
{
    const uint32_t off = addr - image.textBase;
    uint32_t w = 0;
    for (uint32_t k = 0; k < 4; ++k)
        w |= static_cast<uint32_t>(image.bytes[off + k]) << (8 * k);
    return w;
}

TEST(Replay, TextWritingTraceFallsBackToCapture)
{
    // A DLXe program that patches an in-text pool word before falling
    // into it: the image holds a nop there, the live machine executes
    // the stored `add r6, r5, r5`, which interlocks on the load just
    // before it. A table decoded from the image cannot see that, so
    // the trace is refused for timing replay and a slice's jobs are
    // settled from a capture on the slice's own machine.
    const isa::TargetInfo &t = isa::TargetInfo::dlxe();
    const assem::Image donor =
        assembleProgram(t, "main:\n    add r6, r5, r5\n    nop\n");
    const std::string src =
        "main:\n"
        "    mvhi r4, hi(patch)\n"
        "    ori r4, r4, lo(patch)\n"
        "    ld r3, 0(gp)\n"
        "    st r3, 0(r4)\n"
        "    ld r5, 4(gp)\n"
        "patch:\n"
        "    .word " + std::to_string(wordAt(donor, donor.entry + 4)) + "\n"
        "    ret\n"
        "    nop\n"
        "    .data\n"
        "    .word " + std::to_string(wordAt(donor, donor.entry)) + "\n"
        "    .word 5\n";
    const assem::Image image = assembleProgram(t, src);
    const auto predecoded = std::make_shared<const sim::DecodedText>(image);
    const replay::TimingTable table(image, *predecoded);
    const Trace trace = replay::capture(image, predecoded);
    EXPECT_FALSE(replay::timingReplayable(trace, table));
    EXPECT_THROW(
        replay::replayTiming(trace, table, sweep::parseUarch("depth=7")),
        FatalError);

    // The engine's streamed path: one node holding a default base job
    // and depth=7 jobs, streamed from a capture on the default machine
    // (or from the stored trace). The depth=7 timing walk refuses the
    // stream, which it learns only when the stream ends, and that
    // slice's rows come from a capture on its own machine.
    std::vector<sweep::JobSpec> specs;
    specs.push_back(sweep::JobSpec::base("selfmod", CompileOptions::dlxe()));
    for (const char *key : {"depth=7", "depth=7,bp=bimodal4"}) {
        sweep::JobSpec spec = sweep::JobSpec::base("selfmod", CompileOptions::dlxe());
        spec.uarch = sweep::parseUarch(key);
        specs.push_back(spec);
    }
    specs.push_back(sweep::JobSpec::fetch("selfmod", CompileOptions::dlxe(), 8));
    specs.back().uarch = sweep::parseUarch("depth=7");
    std::vector<const sweep::JobSpec *> ptrs;
    for (const sweep::JobSpec &spec : specs)
        ptrs.push_back(&spec);

    for (const Trace *stored : {static_cast<const Trace *>(nullptr), &trace}) {
        std::map<std::string, sweep::JobResult> got;
        const sweep::NodeCost cost = sweep::streamJobs(
            ptrs, stored, &image, predecoded, nullptr, &table, nullptr,
            [&](const sweep::JobSpec &spec, sweep::JobResult r) {
                got.emplace(sweep::jobKey(spec), std::move(r));
            });
        EXPECT_EQ(cost.captures, stored ? 1 : 2);
        EXPECT_EQ(cost.retimedSlices, 0);
        ASSERT_EQ(got.size(), specs.size());
        for (const sweep::JobSpec &spec : specs) {
            const sweep::JobResult direct = sweep::executeJob(spec, image);
            const sweep::JobResult &r = got.at(sweep::jobKey(spec));
            EXPECT_EQ(r.json().dump(), direct.json().dump())
                << sweep::jobKey(spec);
            EXPECT_TRUE(r.run.stats == direct.run.stats)
                << sweep::jobKey(spec);
        }
        // The captured slice's own scoreboard, not the default trace's.
        EXPECT_GT(got.at(sweep::jobKey(specs[1])).run.stats.loadInterlocks,
                  trace.base.stats.loadInterlocks);
    }

    // A trace that leaves its text alone is retimed, not captured.
    const assem::Image clean = build(kProgram, CompileOptions::dlxe());
    const auto cleanText = std::make_shared<const sim::DecodedText>(clean);
    const replay::TimingTable cleanTable(clean, *cleanText);
    int settled = 0;
    const sweep::NodeCost cleanCost = sweep::streamJobs(
        {ptrs[0], ptrs[1]}, nullptr, &clean, cleanText, nullptr, &cleanTable,
        nullptr,
        [&](const sweep::JobSpec &, sweep::JobResult) { ++settled; });
    EXPECT_EQ(settled, 2);
    EXPECT_EQ(cleanCost.captures, 1);
    EXPECT_EQ(cleanCost.retimedSlices, 1);
}

// ----- memoized retiming on hand-built runs ---------------------------

/** A DLXe text the runs below index (it is never executed): a load and
 *  its two consumers, four long FP divides and their consumers, the
 *  latest result read first, then load/use pairs as padding. */
std::string
retimeText()
{
    std::string src =
        "main:\n"
        "    ld r3, 0(gp)\n"         // 0
        "    add r4, r3, r3\n"       // 1
        "    st r3, 0(gp)\n"         // 2: r3 is the store's data
        "    div.df f2, f0, f1\n"    // 3
        "    div.df f4, f0, f1\n"    // 4
        "    div.df f6, f0, f1\n"    // 5
        "    div.df f8, f0, f1\n"    // 6
        "    add.df f10, f8, f8\n"   // 7
        "    add.df f10, f6, f6\n"   // 8
        "    add.df f10, f4, f4\n"   // 9
        "    add.df f10, f2, f2\n"   // 10
        "    add r5, r4, r4\n"       // 11
        "    add r5, r4, r4\n";      // 12
    for (int i = 0; i < 48; ++i)
        src += "    ld r3, 0(gp)\n    add r4, r3, r3\n";
    return src;
}

/** Fixture: retimeText()'s image, its table, and runs by slot. */
class RetimeRuns : public ::testing::Test
{
  protected:
    RetimeRuns()
        : image_(assembleProgram(isa::TargetInfo::dlxe(), retimeText())),
          text_(image_), table_(image_, text_)
    {}

    replay::FetchRun
    run(uint32_t slot, uint32_t count) const
    {
        return {image_.textBase + 4 * slot, count};
    }

    /** The counters of `slice` over `runs`, fed to a fold timing every
     *  one of `slices` in chunks of `n` runs. */
    replay::TimingReplayStats
    fold(const std::vector<replay::FetchRun> &runs,
         const sim::UarchConfig &slice,
         const std::vector<sim::UarchConfig> &slices, size_t n = 3) const
    {
        replay::TimingFold f(table_, 4);
        for (const sim::UarchConfig &s : slices)
            f.add(s);
        for (size_t at = 0; at < runs.size(); at += n)
            f.feed({std::span(runs).subspan(at, std::min(n, runs.size() - at)),
                    {}, {}});
        return f.finish(slice);
    }

    /** The scoreboard rule restated one instruction at a time, with no
     *  memo: the later source stalls the issue (a tie keeps the first),
     *  and under forwarding a stall the store's data alone raises is
     *  one cycle shorter. */
    replay::TimingReplayStats
    byHand(const std::vector<replay::FetchRun> &runs,
           const sim::UarchConfig &slice) const
    {
        using Slot = sim::IssueSlot;
        std::array<uint64_t, Slot::Resources> ready{};
        uint64_t cycle = 0;
        replay::TimingReplayStats out;
        for (const replay::FetchRun &r : runs) {
            for (uint32_t k = 0; k < r.count; ++k) {
                const Slot &s =
                    table_.slots()[(r.startPc - image_.textBase) / 4 + k];
                const uint64_t issue = cycle + 1;
                uint64_t stall = 0;
                bool fp = false, data = false;
                for (const uint8_t src : {s.src0, s.src1}) {
                    if (ready[src] > issue + stall) {
                        stall = ready[src] - issue;
                        fp = src >= Slot::FprBase;
                        data = src == s.src1 && s.lat == Slot::StoreData;
                    }
                }
                if (data && slice.forward) {
                    stall -= 1;
                    out.fwdSavedStalls += 1;
                }
                (fp ? out.fpInterlocks : out.loadInterlocks) += stall;
                cycle = issue + stall;
                ready[s.dst] = cycle + (s.lat == Slot::LoadLatency
                                            ? 1 + uint64_t(slice.loadDelay())
                                            : s.lat);
            }
        }
        return out;
    }

    /** fold() of every slice in `slices` equals byHand(). */
    void
    expectByHand(const std::vector<replay::FetchRun> &runs,
                 const std::vector<sim::UarchConfig> &slices) const
    {
        for (const sim::UarchConfig &slice : slices) {
            const replay::TimingReplayStats got = fold(runs, slice, slices);
            const replay::TimingReplayStats want = byHand(runs, slice);
            EXPECT_EQ(got.loadInterlocks, want.loadInterlocks) << slice.key();
            EXPECT_EQ(got.fpInterlocks, want.fpInterlocks) << slice.key();
            EXPECT_EQ(got.fwdSavedStalls, want.fwdSavedStalls)
                << slice.key();
        }
    }

    /** Forwarding off/on x load delay 1/2, in one fold. */
    static std::vector<sim::UarchConfig>
    scoreboards()
    {
        return {sweep::parseUarch(""), sweep::parseUarch("fwd=on"),
                sweep::parseUarch("depth=7"),
                sweep::parseUarch("fwd=on,depth=7")};
    }

    const assem::Image image_;
    const sim::DecodedText text_;
    const replay::TimingTable table_;
};

TEST_F(RetimeRuns, LoadInLastSlotStallsTheNextRun)
{
    // The load ends one run and the next run's first instruction reads
    // it: the memoized load run must carry its result in flight. Each
    // consumer run is first met with nothing in flight, so its memo
    // entry records no stall and must not be applied when a load is
    // pending.
    const int reps = 5;
    for (const uint32_t consumer : {1u, 2u}) {
        std::vector<replay::FetchRun> runs = {run(consumer, 1)};
        for (int i = 0; i < reps; ++i) {
            runs.push_back(run(0, 1));
            runs.push_back(run(consumer, 1));
        }
        const std::vector<sim::UarchConfig> slices = scoreboards();
        // Distinct entries, so the repetitions are served from the memo.
        ASSERT_NE(replay::TimingFold::memoSlot(0, 1),
                  replay::TimingFold::memoSlot(consumer, 1));
        for (const sim::UarchConfig &slice : slices) {
            const uint64_t d = static_cast<uint64_t>(slice.loadDelay());
            const bool saved = consumer == 2 && slice.forward;
            const replay::TimingReplayStats t = fold(runs, slice, slices);
            EXPECT_EQ(t.loadInterlocks, reps * (saved ? d - 1 : d))
                << consumer << " " << slice.key();
            EXPECT_EQ(t.fwdSavedStalls, saved ? uint64_t{reps} : 0u)
                << consumer << " " << slice.key();
            EXPECT_EQ(t.fpInterlocks, 0u);
        }
        expectByHand(runs, slices);
    }
}

TEST_F(RetimeRuns, FpResultsInFlightCrossRuns)
{
    // Four divides leave four results in flight, more than an entry
    // holds, so that run is walked every time; three leave three,
    // which the entry carries. Either way the next run's first add
    // waits for the latest divide: 15 cycles at the default latencies.
    const int reps = 4;
    for (const replay::FetchRun divides : {run(3, 4), run(4, 3)}) {
        std::vector<replay::FetchRun> runs;
        for (int i = 0; i < reps; ++i) {
            runs.push_back(divides);
            runs.push_back(run(7, 6));
        }
        for (const sim::UarchConfig &slice : scoreboards()) {
            const replay::TimingReplayStats t =
                fold(runs, slice, scoreboards());
            EXPECT_EQ(t.fpInterlocks, uint64_t{15} * reps)
                << divides.count << " " << slice.key();
            EXPECT_EQ(t.loadInterlocks, 0u);
        }
        expectByHand(runs, scoreboards());
    }
}

TEST_F(RetimeRuns, CollidingRunsKeepTheirOwnEffects)
{
    // Two runs that share a memo entry but not an effect: each evicts
    // the other, and neither is served the other's effect.
    const uint32_t slots = static_cast<uint32_t>(table_.slots().size());
    std::map<size_t, std::vector<replay::FetchRun>> bySlot;
    std::vector<replay::FetchRun> pair;
    const sim::UarchConfig depth7 = sweep::parseUarch("depth=7");
    for (uint32_t start = 0; start < slots && pair.empty(); ++start) {
        for (uint32_t count = 1; start + count <= slots; ++count) {
            auto &group =
                bySlot[replay::TimingFold::memoSlot(start, count)];
            for (const replay::FetchRun &other : group)
                if (byHand({other}, depth7).loadInterlocks !=
                    byHand({run(start, count)}, depth7).loadInterlocks)
                    pair = {other, run(start, count)};
            if (!pair.empty())
                break;
            group.push_back(run(start, count));
        }
    }
    ASSERT_EQ(pair.size(), 2u);
    std::vector<replay::FetchRun> runs;
    for (int i = 0; i < 4; ++i) {
        runs.push_back(pair[i % 2]);
        runs.push_back(pair[i / 2]);
        runs.push_back(run(11, 2));
    }
    expectByHand(runs, scoreboards());
}

TEST_F(RetimeRuns, OneStartTwoCounts)
{
    // (0, 2) stalls inside the run; (0, 1) leaves the load in flight.
    // The two are different entries, and the shorter run's effect is
    // not the longer one's.
    const int reps = 3;
    std::vector<replay::FetchRun> runs;
    for (int i = 0; i < reps; ++i)
        for (const replay::FetchRun r : {run(0, 2), run(0, 1), run(1, 1)})
            runs.push_back(r);
    for (const sim::UarchConfig &slice : scoreboards())
        EXPECT_EQ(fold(runs, slice, scoreboards()).loadInterlocks,
                  2 * reps * static_cast<uint64_t>(slice.loadDelay()))
            << slice.key();
    expectByHand(runs, scoreboards());
}

TEST_F(RetimeRuns, LeavingTheTextRefusesEveryLane)
{
    // A run past the text, or off the instruction grid, mid-chunk; or
    // a write into the text: the fold refuses the stream for every
    // slice at once.
    const uint32_t end = static_cast<uint32_t>(table_.slots().size());
    const replay::DataAccess poke{image_.textBase + 8, 4, true};
    for (const replay::DataAccess &access :
         {replay::DataAccess{}, poke}) {
        for (const replay::FetchRun bad :
             {run(end, 1), run(end - 2, 3),
              replay::FetchRun{image_.textBase + 2, 1}, run(0, 1)}) {
            const bool inside = bad.startPc == image_.textBase;
            replay::TimingFold f(table_, 4);
            for (const sim::UarchConfig &slice : nonDefaultSlices())
                f.add(slice);
            EXPECT_EQ(f.lanes(), 3u);
            const std::vector<replay::FetchRun> runs = {run(0, 2), bad,
                                                        run(1, 1)};
            f.feed({runs, std::span(&access, 1), {}});
            const bool exact = inside && !access.write;
            EXPECT_EQ(f.exact(), exact);
            for (const sim::UarchConfig &slice : nonDefaultSlices()) {
                if (exact)
                    EXPECT_NO_THROW(f.finish(slice));
                else
                    EXPECT_THROW(f.finish(slice), FatalError)
                        << slice.key();
            }
        }
    }
}

// ----- error paths ----------------------------------------------------

TEST(TraceFormat, RejectsTruncatedTrace)
{
    std::vector<uint8_t> bytes =
        captureProgram(CompileOptions::d16()).serialize();
    // Chop anywhere: header, mid-stream, or just the trailer.
    for (size_t keep : {size_t{0}, size_t{3}, bytes.size() / 2,
                        bytes.size() - 1}) {
        std::vector<uint8_t> cut(bytes.begin(),
                                 bytes.begin() +
                                     static_cast<long>(keep));
        EXPECT_THROW(Trace::deserialize(cut), FatalError)
            << "kept " << keep << " bytes";
    }
    // Trailing garbage is also structural corruption.
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_THROW(Trace::deserialize(padded), FatalError);
}

TEST(TraceFormat, RejectsCorruptedTrace)
{
    const std::vector<uint8_t> good =
        captureProgram(CompileOptions::d16()).serialize();

    {
        std::vector<uint8_t> bad = good;
        bad[0] ^= 0xff;  // header magic
        EXPECT_THROW(Trace::deserialize(bad), FatalError);
    }
    {
        std::vector<uint8_t> bad = good;
        bad[4] = 99;  // unsupported version
        EXPECT_THROW(Trace::deserialize(bad), FatalError);
    }
    {
        std::vector<uint8_t> bad = good;
        bad[bad.size() - 1] ^= 0xff;  // trailer magic
        EXPECT_THROW(Trace::deserialize(bad), FatalError);
    }
}

} // namespace
