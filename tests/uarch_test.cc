/**
 * @file
 * Microarchitectural sweep-axis tests (DESIGN.md §16).
 *
 * Pins the uarch smoke matrix (sweep::uarchSmokeMatrix(): forwarding,
 * static/bimodal branch prediction, a 7-stage pipe, and the combined
 * machine over three workloads x two encodings) against the golden
 * file tests/golden/sweep_uarch_golden.json, and the engine-level
 * identities behind it: trace replay vs. direct simulation and
 * per-instruction step vs. block-compiled dispatch (which runs under
 * every configuration) must emit byte-identical canonical documents
 * for every configuration. Plus
 * unit coverage of the axes themselves: the uarch key round-trip, the
 * 2-bit bimodal predictor, the store-data forwarding ledger, and the
 * depth-derived penalties.
 *
 * Regenerating the golden after an *intended* metrics change:
 *
 *     build/tests/uarch_test --update-golden
 */

#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/sweep/sweep.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "support/error.hh"

using namespace d16sim;
using namespace d16sim::core;

namespace
{

bool updateGolden = false;

/** The uarch smoke matrix, swept once and shared by the tests below. */
const sweep::ResultStore &
uarchStore()
{
    static sweep::ResultStore s;
    static const bool swept = [] {
        sweep::SweepEngine engine(s, 4);
        engine.add(sweep::uarchSmokeMatrix());
        engine.run();
        return true;
    }();
    (void)swept;
    return s;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

sweep::JobSpec
uarchJob(const std::string &workload, const mc::CompileOptions &opts,
         const std::string &uarchKey)
{
    sweep::JobSpec spec = sweep::JobSpec::base(workload, opts);
    spec.uarch = sweep::parseUarch(uarchKey);
    return spec;
}

} // namespace

TEST(Uarch, GoldenMatch)
{
    const Json doc = sweep::sweepJson(uarchStore(), nullptr);
    if (updateGolden) {
        std::ofstream out(D16SIM_UARCH_GOLDEN_JSON);
        ASSERT_TRUE(out) << "cannot write " << D16SIM_UARCH_GOLDEN_JSON;
        out << doc.dump(2) << "\n";
        std::cout << "uarch_test: regenerated " << D16SIM_UARCH_GOLDEN_JSON
                  << " (" << uarchStore().size() << " jobs)\n";
        return;
    }
    const Json golden = Json::parse(readFile(D16SIM_UARCH_GOLDEN_JSON));
    std::string diff;
    EXPECT_TRUE(sweep::compareSweeps(doc, golden, &diff))
        << "uarch sweep diverged from " << D16SIM_UARCH_GOLDEN_JSON
        << ":\n"
        << diff
        << "(rerun with --update-golden if the change is intended)";
}

TEST(Uarch, ReplayMatchesDirectSimulation)
{
    // Branch-policy siblings evaluate from one shared trace when
    // replay is on; off, every job re-simulates. Both paths must emit
    // the same canonical document, byte for byte.
    sweep::ResultStore direct;
    {
        sweep::SweepEngine engine(direct, 4);
        engine.setReplay(false);
        engine.add(sweep::uarchSmokeMatrix());
        engine.run();
        EXPECT_EQ(engine.timing().replayedRuns, 0);
    }
    EXPECT_EQ(sweep::sweepJson(direct, nullptr).dump(2),
              sweep::sweepJson(uarchStore(), nullptr).dump(2));
}

TEST(Uarch, StepMatchesBlockEngine)
{
    // Both dispatch paths run every config; the engine-level toggle
    // must not change a single byte, and under each non-default config
    // the block side must really be the block engine.
    const std::vector<const char *> keys = {
        "", "fwd=on", "bp=bimodal6", "fwd=on,bp=bimodal6,depth=7"};
    const std::vector<const char *> names = {"bubblesort", "queens"};
    std::vector<sweep::JobSpec> jobs;
    for (const char *key : keys)
        for (const char *w : names)
            jobs.push_back(uarchJob(w, mc::CompileOptions::d16(), key));

    for (const char *w : names) {
        const assem::Image image =
            build(workload(w).source, mc::CompileOptions::d16());
        const auto blocks = buildBlockProgram(image);
        for (const char *key : keys) {
            if (*key == '\0')
                continue;
            sim::MachineConfig cfg;
            cfg.uarch = sweep::parseUarch(key);
            sim::Machine m(image, cfg);
            m.setBlockProgram(blocks);
            m.run();
            EXPECT_GE(m.blockInstructions(),
                      m.stats().instructions * 9 / 10)
                << w << " [" << key << "]";
        }
    }

    sweep::ResultStore blocks, steps;
    {
        sweep::SweepEngine engine(blocks, 4);
        engine.add(jobs);
        engine.run();
    }
    {
        sweep::SweepEngine engine(steps, 4);
        engine.setBlockEngine(false);
        engine.add(jobs);
        engine.run();
    }
    EXPECT_EQ(sweep::sweepJson(blocks, nullptr).dump(2),
              sweep::sweepJson(steps, nullptr).dump(2));
}

TEST(Uarch, SiblingsShareBuildAndTrace)
{
    // Every fwd x depth capture slice x three branch policies of one
    // (workload, variant): one build, one default-machine capture,
    // every other slice retimed from it and every job but the
    // capture's own replayed.
    std::vector<sweep::JobSpec> jobs;
    for (const char *slice : {"", "fwd=on", "depth=6", "fwd=on,depth=6",
                              "depth=7", "fwd=on,depth=7"}) {
        for (const char *bp : {"bp=delay", "bp=static", "bp=bimodal6"}) {
            const std::string key =
                std::string(slice) + (*slice ? "," : "") + bp;
            jobs.push_back(uarchJob("towers", mc::CompileOptions::d16(), key));
        }
    }
    sweep::ResultStore store;
    sweep::SweepEngine engine(store, 4);
    engine.add(jobs);
    engine.run();
    EXPECT_EQ(engine.timing().executedBuilds, 1);
    EXPECT_EQ(engine.timing().capturedTraces, 1);
    EXPECT_EQ(engine.timing().retimedSlices, 5);
    EXPECT_EQ(engine.timing().replayedRuns, 17);

    // ... and every row is the one direct simulation reports.
    sweep::ResultStore direct;
    sweep::SweepEngine reference(direct, 4);
    reference.setReplay(false);
    reference.add(jobs);
    reference.run();
    EXPECT_EQ(sweep::sweepJson(store, nullptr).dump(),
              sweep::sweepJson(direct, nullptr).dump());
}

TEST(Uarch, KeyRoundTrips)
{
    for (const std::string key :
         {"", "fwd=on", "bp=static", "bp=bimodal6", "bp=bimodal2",
          "depth=7", "fwd=on,bp=static,depth=7",
          "fwd=on,bp=bimodal6,depth=7"}) {
        const sim::UarchConfig cfg = sweep::parseUarch(key);
        EXPECT_EQ(cfg.key(), key);
        EXPECT_TRUE(sweep::parseUarch(cfg.key()) == cfg);
    }
    EXPECT_TRUE(sweep::parseUarch("").isDefault());
    EXPECT_TRUE(sweep::parseUarch("bp=delay").isDefault());
    EXPECT_THROW(sweep::parseUarch("fwd=maybe"), FatalError);
    EXPECT_THROW(sweep::parseUarch("bp=gshare"), FatalError);
    EXPECT_THROW(sweep::parseUarch("bp=bimodal0"), FatalError);
    EXPECT_THROW(sweep::parseUarch("bp=bimodal21"), FatalError);
    EXPECT_THROW(sweep::parseUarch("depth=9"), FatalError);
    EXPECT_THROW(sweep::parseUarch("turbo=on"), FatalError);
}

TEST(Uarch, DerivedPenalties)
{
    sim::UarchConfig five;
    EXPECT_EQ(five.loadDelay(), 1);
    EXPECT_EQ(five.takenExtra(), 0);
    EXPECT_EQ(five.mispredictPenalty(), 1);

    sim::UarchConfig seven;
    seven.depth = 7;
    EXPECT_EQ(seven.loadDelay(), 2);
    EXPECT_EQ(seven.takenExtra(), 2);
    EXPECT_EQ(seven.mispredictPenalty(), 3);

    // The capture slice ignores the branch policy: siblings share.
    sim::UarchConfig a = sweep::parseUarch("fwd=on,bp=static");
    sim::UarchConfig b = sweep::parseUarch("fwd=on,bp=bimodal4");
    EXPECT_TRUE(a.captureConfig() == b.captureConfig());
    EXPECT_EQ(a.captureKey(), "fwd=on");
}

TEST(Uarch, BranchPoliciesAreAdditiveAccounting)
{
    // The tentpole invariant: branch policies never advance the
    // scoreboard, so interlocks, outputs, and instruction counts are
    // policy-invariant and only branchStalls/mispredicts move.
    const assem::Image image =
        build(workload("queens").source, mc::CompileOptions::d16());
    sim::MachineConfig base;
    const RunMeasurement delay = run(image, {}, base);
    EXPECT_EQ(delay.stats.branchStalls, 0u);
    EXPECT_EQ(delay.stats.mispredicts, 0u);
    EXPECT_GT(delay.stats.condBranches, 0u);

    for (const char *key : {"bp=static", "bp=bimodal6", "bp=bimodal2"}) {
        sim::MachineConfig cfg;
        cfg.uarch = sweep::parseUarch(key);
        const RunMeasurement m = run(image, {}, cfg);
        EXPECT_EQ(m.output, delay.output) << key;
        EXPECT_EQ(m.stats.instructions, delay.stats.instructions) << key;
        EXPECT_EQ(m.stats.loadInterlocks, delay.stats.loadInterlocks)
            << key;
        EXPECT_EQ(m.stats.fpInterlocks, delay.stats.fpInterlocks) << key;
        EXPECT_EQ(m.stats.condBranches, delay.stats.condBranches) << key;
        EXPECT_GT(m.stats.mispredicts, 0u) << key;
        EXPECT_EQ(m.stats.branchStalls,
                  m.stats.mispredicts *
                      static_cast<uint64_t>(
                          cfg.uarch.mispredictPenalty()))
            << key;
        EXPECT_EQ(m.stats.baseCycles(),
                  delay.stats.baseCycles() + m.stats.branchStalls)
            << key;
    }
}

TEST(Uarch, BimodalBeatsStaticOnLoopyCode)
{
    // Loop-closing branches are overwhelmingly taken: static
    // not-taken mispredicts nearly every one, a 2-bit counter locks
    // on after the first. (A deliberately aliasing 4-entry table can
    // interfere either way — destructively on most codes,
    // occasionally constructively — so the only sound claim is that
    // both predictor sizes beat static not-taken here.)
    const assem::Image image =
        build(workload("bubblesort").source, mc::CompileOptions::d16());
    auto mispredicts = [&](const char *key) {
        sim::MachineConfig cfg;
        cfg.uarch = sweep::parseUarch(key);
        return run(image, {}, cfg).stats.mispredicts;
    };
    const uint64_t statics = mispredicts("bp=static");
    const uint64_t bimodal = mispredicts("bp=bimodal6");
    const uint64_t aliased = mispredicts("bp=bimodal2");
    EXPECT_LT(bimodal, statics);
    EXPECT_LT(aliased, statics);
}

TEST(Uarch, ForwardingSavesExactlyTheLedgeredCycles)
{
    for (const char *w : {"bubblesort", "queens", "towers"}) {
        const assem::Image image =
            build(workload(w).source, mc::CompileOptions::d16());
        const RunMeasurement off = run(image, {}, {});
        sim::MachineConfig cfg;
        cfg.uarch = sweep::parseUarch("fwd=on");
        const RunMeasurement on = run(image, {}, cfg);

        EXPECT_EQ(on.output, off.output) << w;
        EXPECT_EQ(on.stats.instructions, off.stats.instructions) << w;
        // Every saved cycle is ledgered: the interlock reduction is
        // exactly fwdSavedStalls, and so is the cycle reduction.
        EXPECT_EQ(off.stats.baseCycles() - on.stats.baseCycles(),
                  on.stats.fwdSavedStalls)
            << w;
        EXPECT_EQ(off.stats.loadInterlocks - on.stats.loadInterlocks,
                  on.stats.fwdSavedStalls)
            << w;
        EXPECT_EQ(off.stats.fwdSavedStalls, 0u) << w;
    }
}

TEST(Uarch, DepthSevenLengthensLoadDelayAndTakenTransfers)
{
    const assem::Image image =
        build(workload("towers").source, mc::CompileOptions::d16());
    const RunMeasurement five = run(image, {}, {});
    sim::MachineConfig cfg;
    cfg.uarch = sweep::parseUarch("depth=7");
    const RunMeasurement seven = run(image, {}, cfg);

    EXPECT_EQ(seven.output, five.output);
    EXPECT_EQ(seven.stats.instructions, five.stats.instructions);
    // A deeper pipe can only add stall cycles, on both axes.
    EXPECT_GT(seven.stats.loadInterlocks, five.stats.loadInterlocks);
    EXPECT_EQ(seven.stats.branchStalls,
              five.stats.takenBranches *
                  static_cast<uint64_t>(cfg.uarch.takenExtra()));
    EXPECT_GT(seven.stats.baseCycles(), five.stats.baseCycles());
}

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--update-golden") == 0)
            updateGolden = true;
    return RUN_ALL_TESTS();
}
