/**
 * @file
 * Benchmark-suite tests: every workload compiles, runs, and produces
 * identical output on all five machine variants; aggregate ratios
 * land in the neighbourhoods the paper reports; and every image the
 * suite compiles to is pinned, byte for byte, by a digest in
 * tests/golden/image_digests_golden.json.
 *
 * Regenerating the image digests after an *intended* code-generation
 * change:
 *
 *     build/tests/workloads_test --update-golden
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "support/hash.hh"
#include "support/json.hh"

namespace
{

using namespace d16sim;
using namespace d16sim::core;
using mc::CompileOptions;

bool updateGolden = false;

const CompileOptions kVariants[] = {
    CompileOptions::d16(),
    CompileOptions::dlxe(16, false),
    CompileOptions::dlxe(16, true),
    CompileOptions::dlxe(32, false),
    CompileOptions::dlxe(32, true),
};

TEST(Workloads, SuiteShape)
{
    const auto &suite = workloadSuite();
    EXPECT_EQ(suite.size(), 15u);
    EXPECT_EQ(suite[0].name, "ackermann");
    EXPECT_EQ(workload("towers").name, "towers");
    EXPECT_THROW(workload("nope"), FatalError);
    const auto cacheNames = cacheBenchmarkNames();
    ASSERT_EQ(cacheNames.size(), 3u);
    for (const auto &n : cacheNames)
        EXPECT_TRUE(workload(n).cacheBenchmark);
}

class WorkloadRuns : public ::testing::TestWithParam<int>
{};

TEST_P(WorkloadRuns, IdenticalOutputOnAllVariants)
{
    const Workload &w = workloadSuite()[GetParam()];
    SCOPED_TRACE(w.name);

    std::string reference;
    uint64_t d16Path = 0, dlxePath = 0;
    uint32_t d16Size = 0, dlxeSize = 0;
    for (const CompileOptions &opts : kVariants) {
        SCOPED_TRACE(opts.name());
        const RunMeasurement m = buildAndRun(w.source, opts);
        EXPECT_EQ(m.exitStatus, 0) << opts.name();
        EXPECT_FALSE(m.output.empty());
        if (reference.empty())
            reference = m.output;
        else
            EXPECT_EQ(m.output, reference) << opts.name();
        if (opts.isa == isa::IsaKind::D16) {
            d16Path = m.stats.instructions;
            d16Size = m.sizeBytes;
        }
        if (opts.isa == isa::IsaKind::DLXe && opts.gprCount == 32 &&
            opts.threeAddress) {
            dlxePath = m.stats.instructions;
            dlxeSize = m.sizeBytes;
        }
    }

    // Path length sanity: the workload must be substantial and DLXe
    // must not be pathologically slower than D16.
    EXPECT_GT(d16Path, 10000u) << w.name;
    EXPECT_LT(dlxePath, d16Path * 11 / 10) << w.name;
    // Sizes include (identical) data; text favors D16.
    EXPECT_LT(d16Size, dlxeSize) << w.name;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, WorkloadRuns, ::testing::Range(0, 15),
    [](const ::testing::TestParamInfo<int> &info) {
        return workloadSuite()[info.param].name;
    });

TEST(Workloads, SpotOutputs)
{
    // Fixed, hand-checkable outputs.
    const auto ack = buildAndRun(workload("ackermann").source,
                                 CompileOptions::dlxe());
    EXPECT_EQ(ack.output, "ack(3,5)=253\n");
    const auto tow = buildAndRun(workload("towers").source,
                                 CompileOptions::d16());
    EXPECT_EQ(tow.output, "moves=65535\n");
    const auto q = buildAndRun(workload("queens").source,
                               CompileOptions::dlxe(16, false));
    EXPECT_EQ(q.output, "queens=92\n");
}

TEST(Workloads, AverageDensityNearPaper)
{
    // Paper Table 6: average DLXe/D16 static size ratio ~1.5-1.6.
    double ratioSum = 0;
    int n = 0;
    for (const Workload &w : workloadSuite()) {
        const auto d16 = build(w.source, CompileOptions::d16());
        const auto dlxe = build(w.source, CompileOptions::dlxe());
        // Compare text only to avoid data dilution in this check.
        ratioSum += static_cast<double>(dlxe.textSize) / d16.textSize;
        ++n;
    }
    const double avg = ratioSum / n;
    EXPECT_GT(avg, 1.3);
    EXPECT_LT(avg, 2.0);
}

TEST(Workloads, CacheBenchmarksHaveLargeFootprints)
{
    for (const auto &name : cacheBenchmarkNames()) {
        const auto img = build(workload(name).source,
                               CompileOptions::dlxe());
        EXPECT_GT(img.textSize, 8000u) << name;
    }
}

TEST(Workloads, ImageBytesMatchGolden)
{
    // 15 workloads x 5 variants x O0-O2 x narrow immediates off/on: a
    // digest of each image's serialized bytes. Register allocation,
    // scheduling, encoding and layout all show up here.
    Json digests = Json::object();
    for (const Workload &w : workloadSuite()) {
        for (CompileOptions opts : kVariants) {
            for (int level = 0; level <= 2; ++level) {
                for (const bool narrow : {false, true}) {
                    opts.optLevel = level;
                    opts.narrowImmediates = narrow;
                    const std::vector<uint8_t> bytes =
                        build(w.source, opts).serialize();
                    const std::string key = w.name + " " + opts.name() +
                                            (narrow ? " ni" : "") +
                                            " O" + std::to_string(level);
                    digests[key] = Json(sha256Hex(std::string_view(
                        reinterpret_cast<const char *>(bytes.data()),
                        bytes.size())));
                }
            }
        }
    }
    ASSERT_EQ(digests.members().size(), 450u);
    if (updateGolden) {
        std::ofstream out(D16SIM_IMAGE_GOLDEN_JSON);
        ASSERT_TRUE(out) << "cannot write " << D16SIM_IMAGE_GOLDEN_JSON;
        out << digests.dump(2) << "\n";
        std::cout << "workloads_test: regenerated "
                  << D16SIM_IMAGE_GOLDEN_JSON << "\n";
        return;
    }
    std::ifstream in(D16SIM_IMAGE_GOLDEN_JSON);
    ASSERT_TRUE(in) << "cannot read " << D16SIM_IMAGE_GOLDEN_JSON;
    std::ostringstream text;
    text << in.rdbuf();
    const Json golden = Json::parse(text.str());
    EXPECT_EQ(golden.members().size(), digests.members().size());
    for (const auto &[key, digest] : digests.members()) {
        const Json *pinned = golden.find(key);
        EXPECT_TRUE(pinned && pinned->asString() == digest.asString())
            << key << ": image bytes differ from "
            << D16SIM_IMAGE_GOLDEN_JSON
            << " (rerun with --update-golden if the change is intended)";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--update-golden") == 0)
            updateGolden = true;
    return RUN_ALL_TESTS();
}
