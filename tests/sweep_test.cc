/**
 * @file
 * Golden-result regression suite for the parallel sweep engine.
 *
 * Runs the smoke-scale experiment matrix (the full workload x variant
 * base matrix plus representative probe jobs, sweep::smokeMatrix())
 * and compares every emitted metric against the checked-in golden
 * file tests/golden/sweep_golden.json: integers exactly, doubles to a
 * relative tolerance. Any compiler, assembler, simulator, or memory-
 * model change that shifts a paper-facing number shows up here as a
 * keyed diff.
 *
 * Regenerating the golden after an *intended* metrics change:
 *
 *     build/tests/sweep_test --update-golden
 *
 * rewrites tests/golden/sweep_golden.json in place (the path is baked
 * in at configure time); re-run the test afterwards and review the
 * diff like any other source change.
 *
 * The full experiment matrix (sweep::fullMatrix(), 348 rows, among
 * them the §4.1 cache rows the smoke matrix leaves out) is pinned too,
 * one SHA-256 per row of its canonical JSON, in
 * tests/golden/sweep_full_digests_golden.json; --update-golden
 * rewrites that file as well.
 *
 * Also pins the engine's determinism contract (same matrix =>
 * byte-identical canonical JSON at --jobs 1 and --jobs 8), the
 * one-thread node schedule, the error path (a failed node leaves the
 * other rows settled), the dedup/caching accounting, and —
 * spot-checking the bench port — the exact table values the
 * fig04/fig05 drivers printed before they were ported onto the
 * engine.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "core/sweep/sweep.hh"
#include "core/workloads.hh"
#include "support/error.hh"
#include "support/hash.hh"

using namespace d16sim;
using namespace d16sim::core;

namespace
{

bool updateGolden = false;

/** The smoke matrix, swept once and shared by the tests below. */
const sweep::ResultStore &
smokeStore()
{
    static sweep::ResultStore s;
    static const bool swept = [] {
        sweep::SweepEngine engine(s, 4);
        engine.add(sweep::smokeMatrix());
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

/** A small, fast matrix for the determinism comparison. */
std::vector<sweep::JobSpec>
miniMatrix()
{
    std::vector<sweep::JobSpec> jobs;
    for (const std::string w :
         {"ackermann", "bubblesort", "solver", "whetstone", "queens"})
        for (const auto &[label, opts] : sweep::paperVariants())
            jobs.push_back(sweep::JobSpec::base(w, opts));
    jobs.push_back(sweep::JobSpec::fetch(
        "bubblesort", mc::CompileOptions::d16(), 4));
    jobs.push_back(sweep::JobSpec::imm(
        "queens", mc::CompileOptions::dlxe(16, false)));
    mem::CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.blockBytes = 32;
    cfg.subBlockBytes = 8;
    jobs.push_back(sweep::JobSpec::cache(
        "bubblesort", mc::CompileOptions::dlxe(), cfg, cfg));
    return jobs;
}

} // namespace

TEST(Sweep, GoldenMatch)
{
    const Json doc = sweep::sweepJson(smokeStore(), nullptr);
    if (updateGolden) {
        std::ofstream out(D16SIM_GOLDEN_JSON);
        ASSERT_TRUE(out) << "cannot write " << D16SIM_GOLDEN_JSON;
        out << doc.dump(2) << "\n";
        std::cout << "sweep_test: regenerated " << D16SIM_GOLDEN_JSON
                  << " (" << smokeStore().size() << " jobs)\n";
        return;
    }
    const Json golden = Json::parse(readFile(D16SIM_GOLDEN_JSON));
    std::string diff;
    EXPECT_TRUE(sweep::compareSweeps(doc, golden, &diff))
        << "sweep results diverged from " << D16SIM_GOLDEN_JSON << ":\n"
        << diff
        << "(rerun with --update-golden if the change is intended)";
}

TEST(Sweep, FullMatrixRowDigestsMatchGolden)
{
    // One digest per canonical row: a drift names its rows, and the
    // golden stays small enough to review.
    sweep::ResultStore store;
    {
        sweep::SweepEngine engine(store, 4);
        engine.add(sweep::fullMatrix());
        engine.run();
    }
    const Json doc = sweep::sweepJson(store, nullptr);
    Json digests = Json::object();
    for (const auto &[key, row] : doc.find("results")->members())
        digests[key] = Json(sha256Hex(row.dump()));
    ASSERT_EQ(digests.members().size(), 348u);
    if (updateGolden) {
        std::ofstream out(D16SIM_FULL_DIGESTS_JSON);
        ASSERT_TRUE(out) << "cannot write " << D16SIM_FULL_DIGESTS_JSON;
        out << digests.dump(2) << "\n";
        std::cout << "sweep_test: regenerated " << D16SIM_FULL_DIGESTS_JSON
                  << "\n";
        return;
    }
    const Json golden = Json::parse(readFile(D16SIM_FULL_DIGESTS_JSON));
    EXPECT_EQ(golden.members().size(), digests.members().size());
    int drifted = 0;
    std::string drift;
    for (const auto &[key, digest] : digests.members()) {
        const Json *pinned = golden.find(key);
        if ((!pinned || pinned->asString() != digest.asString()) &&
            ++drifted <= 10)
            drift += "  " + key + "\n";
    }
    EXPECT_EQ(drifted, 0)
        << "rows differ from " << D16SIM_FULL_DIGESTS_JSON << ":\n"
        << drift
        << "(rerun with --update-golden if the change is intended)";
}

TEST(Sweep, DeterministicAcrossThreadCounts)
{
    sweep::ResultStore serial, parallel;
    {
        sweep::SweepEngine engine(serial, 1);
        engine.add(miniMatrix());
        engine.run();
    }
    {
        sweep::SweepEngine engine(parallel, 8);
        engine.add(miniMatrix());
        engine.run();
    }
    // The comparable document (no timing section) must be
    // byte-identical whatever the schedule was.
    const std::string a = sweep::sweepJson(serial, nullptr).dump(2);
    const std::string b = sweep::sweepJson(parallel, nullptr).dump(2);
    EXPECT_EQ(a, b);
}

TEST(Sweep, OneThreadSettlesEachImageContiguously)
{
    // A worker settles a build node start to finish, so on one thread
    // every image's rows land as one contiguous run: a node's image
    // and trace are released before the next node starts. The nodes
    // cover a capture with cache siblings, a base + imm pair, and a
    // node with non-default capture slices.
    const mc::CompileOptions d16 = mc::CompileOptions::d16();
    const mc::CompileOptions dlxe = mc::CompileOptions::dlxe(16, false);
    std::vector<sweep::JobSpec> jobs;
    jobs.push_back(sweep::JobSpec::base("bubblesort", d16));
    for (uint32_t kb : {1u, 4u}) {
        mem::CacheConfig cfg;
        cfg.sizeBytes = kb * 1024;
        cfg.blockBytes = 16;
        cfg.subBlockBytes = 8;
        jobs.push_back(sweep::JobSpec::cache("bubblesort", d16, cfg, cfg));
    }
    jobs.push_back(sweep::JobSpec::base("queens", dlxe));
    jobs.push_back(sweep::JobSpec::imm("queens", dlxe));
    jobs.push_back(sweep::JobSpec::base("towers", d16));
    for (const char *key : {"fwd=on", "depth=7,bp=static"}) {
        sweep::JobSpec spec = sweep::JobSpec::fetch("towers", d16, 4);
        spec.uarch = sweep::parseUarch(key);
        jobs.push_back(spec);
    }
    std::map<std::string, std::string> imageOf;
    for (const sweep::JobSpec &spec : jobs)
        imageOf[sweep::jobKey(spec)] = sweep::imageKey(spec);

    sweep::ResultStore store;
    sweep::SweepEngine engine(store, 1);
    std::vector<std::string> order;
    engine.setResultCallback(
        [&](const std::string &key, const sweep::JobResult &) {
            order.push_back(imageOf.at(key));
        });
    engine.add(jobs);
    engine.run();
    ASSERT_EQ(order.size(), jobs.size());

    std::set<std::string> finished;
    for (size_t i = 0; i < order.size(); ++i) {
        EXPECT_FALSE(finished.count(order[i]))
            << order[i] << " resumed at row " << i;
        if (i + 1 == order.size() || order[i + 1] != order[i])
            finished.insert(order[i]);
    }
    EXPECT_EQ(finished.size(), 3u);
}

TEST(Sweep, OneThreadSettlesCheapestRowsFirst)
{
    // A free worker takes the node with the fewest estimated
    // instructions per job, each workload's estimate being what its
    // last settled node simulated (solver ~0.31 M, towers ~2.03 M).
    // Nothing is measured at first, so the sweep opens most jobs
    // first: solver|D16 ties towers|D16 and wins on imageKey. Towers
    // then takes solver's count as the mean of the measured
    // workloads, so towers|D16 (3 jobs) beats both DLXe nodes. Once
    // towers is measured, solver's lone job costs less than towers'
    // two; job count alone would put towers|DLXe/32/3 third.
    const mc::CompileOptions d16 = mc::CompileOptions::d16();
    const mc::CompileOptions dlxe = mc::CompileOptions::dlxe(32, true);
    std::vector<sweep::JobSpec> jobs;
    for (const char *name : {"solver", "towers"}) {
        jobs.push_back(sweep::JobSpec::base(name, d16));
        jobs.push_back(sweep::JobSpec::fetch(name, d16, 4));
        jobs.push_back(sweep::JobSpec::fetch(name, d16, 8));
    }
    jobs.push_back(sweep::JobSpec::base("towers", dlxe));
    jobs.push_back(sweep::JobSpec::fetch("towers", dlxe, 4));
    jobs.push_back(sweep::JobSpec::base("solver", dlxe));
    std::map<std::string, std::string> imageOf;
    for (const sweep::JobSpec &spec : jobs)
        imageOf[sweep::jobKey(spec)] = sweep::imageKey(spec);

    sweep::ResultStore store;
    sweep::SweepEngine engine(store, 1);
    std::vector<std::string> order;
    engine.setResultCallback(
        [&](const std::string &key, const sweep::JobResult &) {
            const std::string &image = imageOf.at(key);
            if (order.empty() || order.back() != image)
                order.push_back(image);
        });
    engine.add(jobs);
    engine.run();
    const std::vector<std::string> want = {"solver|D16", "towers|D16",
                                           "solver|DLXe/32/3",
                                           "towers|DLXe/32/3"};
    EXPECT_EQ(order, want);
    // The margin the order rests on.
    EXPECT_LT(3 * store.at("solver|D16").run.stats.instructions,
              store.at("towers|D16").run.stats.instructions);

    // Every row's landing time is booked, from the start of run().
    const sweep::SweepTiming &t = engine.timing();
    ASSERT_EQ(t.rowSeconds.size(), jobs.size());
    EXPECT_TRUE(std::is_sorted(t.rowSeconds.begin(), t.rowSeconds.end()));
    EXPECT_LE(t.rowLandedSeconds(50), t.rowLandedSeconds(90));
    EXPECT_LE(t.rowLandedSeconds(90), t.wallSeconds);
    EXPECT_EQ(t.rowLandedSeconds(100), t.rowSeconds.back());
}

TEST(Sweep, FailedNodeStillSettlesTheRest)
{
    // A job on an unknown workload throws inside its node's task; the
    // sweep still settles every other node and rethrows only then.
    // On one thread the failing node (two jobs, first in imageKey
    // order among the largest) is settled first.
    const mc::CompileOptions d16 = mc::CompileOptions::d16();
    std::vector<sweep::JobSpec> jobs;
    jobs.push_back(sweep::JobSpec::base("ackermann", d16));
    for (const char *name : {"nosuch", "queens"}) {
        jobs.push_back(sweep::JobSpec::base(name, d16));
        jobs.push_back(sweep::JobSpec::fetch(name, d16, 4));
    }
    for (int threads : {1, 3}) {
        sweep::ResultStore store;
        sweep::SweepEngine engine(store, threads);
        engine.add(jobs);
        try {
            engine.run();
            ADD_FAILURE() << "no error on " << threads << " threads";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("nosuch"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(store.size(), 3u) << threads << " threads";
        for (const char *key : {"ackermann|D16", "queens|D16",
                                "queens|D16|fb4"})
            EXPECT_TRUE(store.contains(key)) << key;
    }
}

// The exact values the (pre-port, serial) fig04/fig05 drivers printed,
// proving the engine port changed the execution strategy and not the
// measurements. Regenerate goldens instead if a compiler change
// legitimately moves these.
TEST(Sweep, SpotCheckBenchRowsUnchangedByPort)
{
    const sweep::ResultStore &s = smokeStore();

    // bench_fig05_pathlength rows (instructions).
    EXPECT_EQ(s.at("queens|D16").run.stats.instructions, 1639487u);
    EXPECT_EQ(s.at("queens|DLXe/16/2").run.stats.instructions, 1550785u);
    EXPECT_EQ(s.at("queens|DLXe/16/3").run.stats.instructions, 1301595u);
    EXPECT_EQ(s.at("queens|DLXe/32/2").run.stats.instructions, 1552934u);
    EXPECT_EQ(s.at("queens|DLXe/32/3").run.stats.instructions, 1301688u);
    EXPECT_EQ(s.at("ackermann|D16").run.stats.instructions, 827674u);
    // assem exercises 2-D arrays; its counts moved when the row-stride
    // indexing miscompile was fixed (see tests/corpus/two_dim_index.c).
    EXPECT_EQ(s.at("assem|D16").run.stats.instructions, 6850548u);
    EXPECT_EQ(s.at("pi|DLXe/32/3").run.stats.instructions, 16282521u);

    // bench_fig04_density rows (static sizeBytes).
    EXPECT_EQ(s.at("ackermann|D16").run.sizeBytes, 424u);
    EXPECT_EQ(s.at("ackermann|DLXe/32/3").run.sizeBytes, 674u);
    EXPECT_EQ(s.at("queens|D16").run.sizeBytes, 564u);
    EXPECT_EQ(s.at("queens|DLXe/16/2").run.sizeBytes, 940u);
    EXPECT_EQ(s.at("pi|DLXe/32/2").run.sizeBytes, 1262u);
    EXPECT_EQ(s.at("assem|D16").run.sizeBytes, 6760u);
}

TEST(Sweep, EngineDeduplicatesAndCaches)
{
    sweep::ResultStore store;
    const sweep::JobSpec spec =
        sweep::JobSpec::base("ackermann", mc::CompileOptions::d16());
    {
        sweep::SweepEngine engine(store, 2);
        engine.add(spec);
        engine.add(spec);
        engine.add(spec);
        engine.run();
        EXPECT_EQ(engine.timing().executedRuns, 1);
        EXPECT_EQ(engine.timing().dedupedRuns, 2);
        EXPECT_EQ(engine.timing().cachedRuns, 0);
    }
    EXPECT_EQ(store.size(), 1u);
    {
        // A second sweep over the same job hits the store.
        sweep::SweepEngine engine(store, 2);
        engine.add(spec);
        engine.run();
        EXPECT_EQ(engine.timing().executedRuns, 0);
        EXPECT_EQ(engine.timing().cachedRuns, 1);
    }
}

TEST(Sweep, BuildSharedAcrossProbeJobs)
{
    // Three probe variants of one (workload, variant) pair: one build.
    sweep::ResultStore store;
    sweep::SweepEngine engine(store, 4);
    const mc::CompileOptions opts = mc::CompileOptions::d16();
    engine.add(sweep::JobSpec::base("solver", opts));
    engine.add(sweep::JobSpec::fetch("solver", opts, 4));
    engine.add(sweep::JobSpec::fetch("solver", opts, 8));
    engine.run();
    EXPECT_EQ(engine.timing().executedRuns, 3);
    EXPECT_EQ(engine.timing().executedBuilds, 1);
    // All three saw the same program.
    const uint64_t insns = store.at("solver|D16").run.stats.instructions;
    EXPECT_EQ(store.at("solver|D16|fb4").run.stats.instructions, insns);
    EXPECT_EQ(store.at("solver|D16|fb8").run.stats.instructions, insns);
}

TEST(Sweep, VariantKeyRoundTrips)
{
    std::vector<mc::CompileOptions> all;
    for (const auto &[label, opts] : sweep::paperVariants())
        all.push_back(opts);
    mc::CompileOptions ni = mc::CompileOptions::dlxe(16, false);
    ni.narrowImmediates = true;
    all.push_back(ni);
    mc::CompileOptions o0 = mc::CompileOptions::d16();
    o0.optLevel = 0;
    all.push_back(o0);

    for (const mc::CompileOptions &opts : all) {
        const std::string key = sweep::variantKey(opts);
        const mc::CompileOptions parsed = sweep::parseVariant(key);
        EXPECT_EQ(sweep::variantKey(parsed), key);
        EXPECT_EQ(parsed.isa, opts.isa);
        EXPECT_EQ(parsed.gprCount, opts.gprCount);
        EXPECT_EQ(parsed.threeAddress, opts.threeAddress);
        EXPECT_EQ(parsed.narrowImmediates, opts.narrowImmediates);
        EXPECT_EQ(parsed.optLevel, opts.optLevel);
    }
    EXPECT_THROW(sweep::parseVariant("DLXe/24/3"), FatalError);
}

TEST(Sweep, CompareSweepsCatchesDrift)
{
    Json a = Json::object();
    a["schema"] = Json("d16sweep-v1");
    a["results"]["perm|D16"]["run"]["instructions"] = Json(int64_t{100});
    a["results"]["perm|D16"]["derived"]["interlockRate"] = Json(0.5);

    Json b = Json::parse(a.dump());
    EXPECT_TRUE(sweep::compareSweeps(a, b, nullptr));

    // Timing differences are not drift.
    b["timing"]["wallSeconds"] = Json(123.0);
    EXPECT_TRUE(sweep::compareSweeps(a, b, nullptr));

    // An integer counter off by one is.
    b["results"]["perm|D16"]["run"]["instructions"] = Json(int64_t{101});
    std::string diff;
    EXPECT_FALSE(sweep::compareSweeps(a, b, &diff));
    EXPECT_NE(diff.find("instructions"), std::string::npos);

    // A double outside tolerance is too; within tolerance is not.
    b = Json::parse(a.dump());
    b["results"]["perm|D16"]["derived"]["interlockRate"] =
        Json(0.5 + 1e-12);
    EXPECT_TRUE(sweep::compareSweeps(a, b, nullptr));
    b["results"]["perm|D16"]["derived"]["interlockRate"] = Json(0.51);
    EXPECT_FALSE(sweep::compareSweeps(a, b, nullptr));
}

TEST(Sweep, CompareSweepsCatchesUarchDrift)
{
    // The uarch section (emitted only off the default machine) is all
    // integer counters plus an exact config string: a single mispredict,
    // branch-stall cycle, or forwarded cycle of drift is a failure,
    // never tolerance-absorbed.
    const char *key = "perm|D16|uarch:fwd=on,bp=bimodal6";
    Json a = Json::object();
    a["schema"] = Json("d16sweep-v1");
    Json u = Json::object();
    u["config"] = Json("fwd=on,bp=bimodal6");
    u["condBranches"] = Json(int64_t{900});
    u["branchStalls"] = Json(int64_t{150});
    u["mispredicts"] = Json(int64_t{75});
    u["fwdSavedStalls"] = Json(int64_t{42});
    a["results"][key]["uarch"] = std::move(u);

    Json b = Json::parse(a.dump());
    EXPECT_TRUE(sweep::compareSweeps(a, b, nullptr));

    for (const char *field : {"condBranches", "branchStalls",
                              "mispredicts", "fwdSavedStalls"}) {
        b = Json::parse(a.dump());
        Json &f = b["results"][key]["uarch"][field];
        f = Json(f.asInt() + 1);
        std::string diff;
        EXPECT_FALSE(sweep::compareSweeps(a, b, &diff)) << field;
        EXPECT_NE(diff.find(field), std::string::npos) << field;
    }

    // The config descriptor is compared as an exact string.
    b = Json::parse(a.dump());
    b["results"][key]["uarch"]["config"] = Json("fwd=on,bp=bimodal2");
    EXPECT_FALSE(sweep::compareSweeps(a, b, nullptr));

    // Canonical order is structural: objects serialize with sorted
    // keys, so a uarch sibling always follows its base job key.
    a["results"]["perm|D16"]["run"]["instructions"] = Json(int64_t{1});
    const std::string dumped = a.dump();
    EXPECT_LT(dumped.find("\"perm|D16\""), dumped.find("\"perm|D16|uarch:"));
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
