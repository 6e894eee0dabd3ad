/**
 * @file
 * Static pipeline-timing analyzer tests: seeded single-hazard images,
 * exact loop bounds, the full-matrix static/dynamic cross-validation
 * gate, and a golden timing sweep.
 *
 * The seeded-hazard tests hand-assemble small images that each contain
 * exactly one pipeline hazard of one kind — a load-use interlock, a
 * math-unit busy stall, an unfilled branch delay slot, a taken-branch
 * fetch refill — and require exactly one tim-* note with the right
 * code, location, and stall bounds: the analyzer's precision contract.
 *
 * The gate test analyzes and *runs* every workload under all five
 * paper variants at opt 0-2 (225 units) and requires the per-PC
 * dynamic interlocks to fall inside the static classification
 * everywhere, the per-category totals and bubble counts to match the
 * machine's counters exactly, and the whole-program bounds to bracket
 * baseCycles() — zero findings tolerated.
 *
 * The golden sweep pins the timing summary (hazard-site counts, stall
 * bounds, loop classification, program bounds) and the scheduler
 * feedback for the smoke matrix against
 * tests/golden/timing_golden.json. Regenerate after an *intended*
 * codegen or analyzer change:
 *
 *     build/tests/timing_test --update-golden
 *
 * and review the diff like any other source change.
 */

#include <atomic>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/timing.hh"
#include "asm/assembler.hh"
#include "asm/parser.hh"
#include "core/sweep/sweep.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "mc/compiler.hh"
#include "sim/machine.hh"
#include "support/error.hh"
#include "support/json.hh"

using namespace d16sim;
using namespace d16sim::analysis;

namespace
{

bool updateGolden = false;

assem::Image
assemble(const isa::TargetInfo &t, std::string_view src)
{
    assem::Assembler as(t);
    as.add(assem::parseAsm(t, src));
    return as.link();
}

int
countCode(const verify::DiagEngine &diags, std::string_view code)
{
    int n = 0;
    for (const verify::Diag &d : diags.diags())
        if (d.code == code)
            ++n;
    return n;
}

const verify::Diag *
findCode(const verify::DiagEngine &diags, std::string_view code)
{
    for (const verify::Diag &d : diags.diags())
        if (d.code == code)
            return &d;
    return nullptr;
}

std::string
readFile(const char *path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Analyze a hand-built image with per-site notes enabled. */
struct Analyzed
{
    assem::Image img;
    ImageCfg cfg;
    verify::DiagEngine diags;
    TimingResult timing;
};

std::unique_ptr<Analyzed>
analyze(const isa::TargetInfo &t, std::string_view src,
        uint32_t busBytes = 4, const sim::UarchConfig &uarch = {})
{
    auto a = std::make_unique<Analyzed>();
    a->img = assemble(t, src);
    a->cfg = buildCfg(a->img);
    TimingOptions opts;
    opts.busBytes = busBytes;
    opts.siteDiags = true;
    opts.uarch = uarch;
    a->timing = analyzeTiming(a->cfg, a->diags, opts);
    return a;
}

/** Profile a run of `img` under the analysis' uarch and cross-validate
 *  `timing` against it; returns the number of findings (0 = exact). */
int
runAndValidate(const Analyzed &a, verify::DiagEngine &diags)
{
    sim::MachineConfig mcfg;
    mcfg.uarch = a.timing.opts.uarch;
    sim::Machine m(a.img, mcfg);
    const PcProfile profile = profileRun(m);
    return crossValidateTiming(a.timing, profile, m.stats(), diags);
}

} // namespace

// ----- seeded single-hazard images ------------------------------------

TEST(SeededHazard, LoadUse)
{
    // The add consumes r3 in the load delay: exactly one guaranteed
    // one-cycle load-use interlock, and nothing else.
    auto a = analyze(isa::TargetInfo::dlxe(), R"(
main:
    ld r3, 0(gp)
    add r4, r3, r3
    mvi r2, 0
    trap 5
    .data
w:  .word 0
)");
    EXPECT_EQ(countCode(a->diags, "tim-load-use"), 1);
    EXPECT_EQ(a->diags.notes(), 1);
    EXPECT_EQ(a->diags.failures(), 0);
    const verify::Diag *d = findCode(a->diags, "tim-load-use");
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->hasAddr);
    EXPECT_EQ(d->addr, a->img.symbol("main") + 4);  // the add

    const int site = a->cfg.insnAt(d->addr);
    ASSERT_GE(site, 0);
    const SiteTiming &s = a->timing.sites[site];
    EXPECT_EQ(s.stallLo, 1);
    EXPECT_EQ(s.stallHi, 1);
    EXPECT_TRUE(s.loadUse);
    EXPECT_TRUE(s.guaranteedLoad);
    EXPECT_FALSE(s.fpBusy);
    EXPECT_TRUE(s.precise());

    verify::DiagEngine xval;
    EXPECT_EQ(runAndValidate(*a, xval), 0);
}

TEST(SeededHazard, FpBusy)
{
    // The add.df consumes the multiply's result three cycles early:
    // exactly one guaranteed math-unit busy stall. The mvi spacer
    // keeps the conversion latency (2) out of the multiply's issue.
    auto a = analyze(isa::TargetInfo::dlxe(), R"(
main:
    mvi r2, 3
    mif.l f2, r2
    si2df f2, f2
    mvi r5, 0
    mul.df f3, f2, f2
    add.df f4, f3, f3
    mvi r2, 0
    trap 5
)");
    EXPECT_EQ(countCode(a->diags, "tim-fp-busy"), 1);
    EXPECT_EQ(a->diags.notes(), 1);
    EXPECT_EQ(a->diags.failures(), 0);
    const verify::Diag *d = findCode(a->diags, "tim-fp-busy");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->addr, a->img.symbol("main") + 5 * 4);  // the add.df

    const int site = a->cfg.insnAt(d->addr);
    ASSERT_GE(site, 0);
    const SiteTiming &s = a->timing.sites[site];
    EXPECT_EQ(s.stallLo, 3);  // mul latency 4, one cycle apart
    EXPECT_EQ(s.stallHi, 3);
    EXPECT_TRUE(s.fpBusy);
    EXPECT_TRUE(s.guaranteedFp);
    EXPECT_FALSE(s.loadUse);

    verify::DiagEngine xval;
    EXPECT_EQ(runAndValidate(*a, xval), 0);
}

TEST(SeededHazard, BranchBubble)
{
    // An unfilled delay slot behind the br: exactly one branch-bubble
    // note. The wide fetch bus keeps the taken branch inside one
    // fetch block so no refill note can co-occur.
    auto a = analyze(isa::TargetInfo::dlxe(), R"(
main:
    br end
    nop
end:
    mvi r2, 0
    trap 5
)",
                     /*busBytes=*/64);
    EXPECT_EQ(countCode(a->diags, "tim-branch-bubble"), 1);
    EXPECT_EQ(a->diags.notes(), 1);
    EXPECT_EQ(a->diags.failures(), 0);
    const verify::Diag *d = findCode(a->diags, "tim-branch-bubble");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->addr, a->img.symbol("main") + 4);  // the slot nop
    EXPECT_EQ(a->timing.bubbleSites, 1);

    // The dynamic taxonomy agrees: the machine counts exactly one
    // branch bubble for the run.
    sim::Machine m(a->img);
    m.run();
    EXPECT_EQ(m.stats().branchBubbles, 1u);

    verify::DiagEngine xval;
    EXPECT_EQ(runAndValidate(*a, xval), 0);
}

TEST(SeededHazard, FetchRefill)
{
    // The taken br leaves the 4-byte fetch block of its (filled)
    // delay slot: exactly one fetch-refill note, no bubble.
    auto a = analyze(isa::TargetInfo::dlxe(), R"(
main:
    br end
    mvi r5, 1
end:
    mvi r2, 0
    trap 5
)");
    EXPECT_EQ(countCode(a->diags, "tim-fetch-refill"), 1);
    EXPECT_EQ(a->diags.notes(), 1);
    EXPECT_EQ(a->diags.failures(), 0);
    const verify::Diag *d = findCode(a->diags, "tim-fetch-refill");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->addr, a->img.symbol("main"));  // the branch itself
    EXPECT_EQ(a->timing.bubbleSites, 0);

    verify::DiagEngine xval;
    EXPECT_EQ(runAndValidate(*a, xval), 0);
}

// ----- seeded uarch hazards (DESIGN.md §16) ---------------------------

TEST(SeededUarchHazard, ForwardedLoadUseStillStalls)
{
    // Store-data forwarding saves one cycle at the MEM boundary, but a
    // depth-7 load delay of two leaves one residual interlock cycle:
    // exactly one load-use note, bounds pinned at the forwarded value.
    auto a = analyze(isa::TargetInfo::dlxe(), R"(
main:
    ld r3, 0(gp)
    st r3, 4(gp)
    mvi r2, 0
    trap 5
    .data
w:  .word 0
)",
                     /*busBytes=*/4,
                     core::sweep::parseUarch("fwd=on,depth=7"));
    EXPECT_EQ(countCode(a->diags, "tim-load-use"), 1);
    EXPECT_EQ(a->diags.notes(), 1);
    EXPECT_EQ(a->diags.failures(), 0);
    const verify::Diag *d = findCode(a->diags, "tim-load-use");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->addr, a->img.symbol("main") + 4);  // the st

    const int site = a->cfg.insnAt(d->addr);
    ASSERT_GE(site, 0);
    const SiteTiming &s = a->timing.sites[site];
    EXPECT_EQ(s.stallLo, 1);  // load delay 2, minus the forward
    EXPECT_EQ(s.stallHi, 1);
    EXPECT_TRUE(s.guaranteedLoad);
    EXPECT_EQ(s.branchStallHi, 0);

    verify::DiagEngine xval;
    EXPECT_EQ(runAndValidate(*a, xval), 0);

    // The machine agrees cycle-for-cycle: one residual interlock, one
    // cycle saved by the forward. Without forwarding the same image
    // stalls the full two cycles and notes them.
    sim::MachineConfig mcfg;
    mcfg.uarch = core::sweep::parseUarch("fwd=on,depth=7");
    sim::Machine m(a->img, mcfg);
    m.run();
    EXPECT_EQ(m.stats().loadInterlocks, 1u);
    EXPECT_EQ(m.stats().fwdSavedStalls, 1u);

    auto noFwd = analyze(isa::TargetInfo::dlxe(), R"(
main:
    ld r3, 0(gp)
    st r3, 4(gp)
    mvi r2, 0
    trap 5
    .data
w:  .word 0
)",
                         /*busBytes=*/4, core::sweep::parseUarch("depth=7"));
    const SiteTiming &sn =
        noFwd->timing.sites[noFwd->cfg.insnAt(d->addr)];
    EXPECT_EQ(sn.stallLo, 2);
    EXPECT_EQ(sn.stallHi, 2);
}

TEST(SeededUarchHazard, MispredictedBranch)
{
    // Under static predict-not-taken the lone conditional transfer is
    // the only possible mispredict site: exactly one branch-mispredict
    // note, upper bound one penalty cycle, lower bound zero. The slot
    // is filled and the bus wide so no other note can co-occur.
    auto a = analyze(isa::TargetInfo::dlxe(), R"(
main:
    mvi r3, 1
    bnz r3, end
    mvi r5, 1
end:
    mvi r2, 0
    trap 5
)",
                     /*busBytes=*/64, core::sweep::parseUarch("bp=static"));
    EXPECT_EQ(countCode(a->diags, "tim-branch-mispredict"), 1);
    EXPECT_EQ(a->diags.notes(), 1);
    EXPECT_EQ(a->diags.failures(), 0);
    const verify::Diag *d = findCode(a->diags, "tim-branch-mispredict");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->addr, a->img.symbol("main") + 4);  // the bnz

    const int site = a->cfg.insnAt(d->addr);
    ASSERT_GE(site, 0);
    const SiteTiming &s = a->timing.sites[site];
    EXPECT_EQ(s.branchStallHi, 1);  // depth 5: penalty = depth - 4
    EXPECT_EQ(s.stallLo, 0);        // interlocks are bp-invariant
    EXPECT_EQ(a->timing.branchSites, 1);

    // The taken bnz really mispredicts under not-taken: one stall
    // cycle, inside the static bound.
    sim::MachineConfig mcfg;
    mcfg.uarch = core::sweep::parseUarch("bp=static");
    sim::Machine m(a->img, mcfg);
    m.run();
    EXPECT_EQ(m.stats().mispredicts, 1u);
    EXPECT_EQ(m.stats().branchStalls, 1u);

    verify::DiagEngine xval;
    EXPECT_EQ(runAndValidate(*a, xval), 0);
}

TEST(SeededUarchHazard, BhtAliasedBranch)
{
    // Two conditional branches sixteen bytes apart collide in a
    // four-entry BHT: exactly one alias note on the *later* site.
    // Each conditional also carries its own mispredict note.
    auto a = analyze(isa::TargetInfo::dlxe(), R"(
main:
    mvi r3, 1
    bnz r3, mid
    mvi r5, 1
mid:
    mvi r6, 1
    mvi r7, 1
    bnz r3, end
    mvi r8, 1
end:
    mvi r2, 0
    trap 5
)",
                     /*busBytes=*/64,
                     core::sweep::parseUarch("bp=bimodal2"));
    EXPECT_EQ(countCode(a->diags, "tim-bht-alias"), 1);
    EXPECT_EQ(countCode(a->diags, "tim-branch-mispredict"), 2);
    EXPECT_EQ(a->diags.notes(), 3);
    EXPECT_EQ(a->diags.failures(), 0);
    EXPECT_EQ(a->timing.bhtAliasSites, 1);
    const verify::Diag *d = findCode(a->diags, "tim-bht-alias");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->addr, a->img.symbol("main") + 20);  // the second bnz

    // Aliasing is constructive here: the first taken bnz trains the
    // shared counter so the second predicts correctly — one mispredict
    // total, still inside each site's per-execution bound.
    sim::MachineConfig mcfg;
    mcfg.uarch = core::sweep::parseUarch("bp=bimodal2");
    sim::Machine m(a->img, mcfg);
    m.run();
    EXPECT_EQ(m.stats().condBranches, 2u);
    EXPECT_EQ(m.stats().mispredicts, 1u);

    verify::DiagEngine xval;
    EXPECT_EQ(runAndValidate(*a, xval), 0);
}

// ----- loop bounds ----------------------------------------------------

TEST(Bounds, BoundedCountdownLoop)
{
    // A provable five-trip countdown self-loop: the worst-case bound
    // is exact (equals the run's base cycles), the best case is the
    // one-trip path below it.
    auto a = analyze(isa::TargetInfo::dlxe(), R"(
main:
    mvi r3, 5
loop:
    subi r3, r3, 1
    bnz r3, loop
    mvi r6, 0
    mvi r2, 0
    trap 5
)");
    EXPECT_EQ(a->timing.boundedLoops, 1);
    EXPECT_EQ(a->timing.unboundedLoops, 0);

    sim::Machine m(a->img);
    m.run();
    const auto base = static_cast<int64_t>(m.stats().baseCycles());
    EXPECT_EQ(base, 18);  // 1 + 5 * 3 + 2, no interlocks
    EXPECT_EQ(a->timing.worstCycles, base);
    EXPECT_LE(a->timing.bestCycles, base);
    EXPECT_GT(a->timing.bestCycles, 0);

    verify::DiagEngine xval;
    EXPECT_EQ(runAndValidate(*a, xval), 0);
}

TEST(Bounds, UnprovableLoopIsUnbounded)
{
    // The counter comes from memory, not an immediate: no trip bound
    // may be claimed.
    auto a = analyze(isa::TargetInfo::dlxe(), R"(
main:
    ld r3, 0(gp)
    mvi r5, 0
loop:
    subi r3, r3, 1
    bnz r3, loop
    mvi r6, 0
    mvi r2, 0
    trap 5
    .data
n:  .word 3
)");
    EXPECT_EQ(a->timing.boundedLoops, 0);
    EXPECT_EQ(a->timing.unboundedLoops, 1);
    EXPECT_EQ(a->timing.worstCycles, -1);

    verify::DiagEngine xval;
    EXPECT_EQ(runAndValidate(*a, xval), 0);
}

// ----- the full-matrix cross-validation gate --------------------------

TEST(Gate, FullMatrixCrossValidation)
{
    // Every workload x every paper variant x opt 0-2: the static
    // classification must bracket the dynamic per-PC interlocks
    // everywhere, the totals and bubble taxonomy must match exactly,
    // and the program bounds must bracket baseCycles(). Any finding
    // is a bug in the analyzer or the machine.
    struct Job
    {
        const core::Workload *workload;
        mc::CompileOptions opts;
        std::string name;
    };
    std::vector<Job> jobs;
    for (const core::Workload &w : core::workloadSuite())
        for (const auto &[vname, vopts] : core::sweep::paperVariants())
            for (int lvl = 0; lvl <= 2; ++lvl) {
                Job j{&w, vopts, w.name + "|" + vname + "|O" +
                                     std::to_string(lvl)};
                j.opts.optLevel = lvl;
                jobs.push_back(std::move(j));
            }

    std::atomic<size_t> next{0};
    std::mutex mu;
    std::vector<std::string> failures;
    auto worker = [&] {
        for (size_t i = next.fetch_add(1); i < jobs.size();
             i = next.fetch_add(1)) {
            const Job &j = jobs[i];
            std::string failure;
            try {
                const assem::Image img =
                    core::build(j.workload->source, j.opts);
                const ImageCfg cfg = buildCfg(img);
                verify::DiagEngine diags;
                diags.setUnit(j.name);
                TimingOptions topts;
                topts.siteDiags = false;
                const TimingResult timing =
                    analyzeTiming(cfg, diags, topts);

                sim::Machine m(img);
                const PcProfile profile = profileRun(m);
                const int findings = crossValidateTiming(
                    timing, profile, m.stats(), diags);
                if (findings != 0 || diags.failures() != 0) {
                    std::ostringstream os;
                    os << j.name << ": " << findings << " findings\n";
                    diags.renderText(os);
                    failure = os.str();
                }
            } catch (const Error &e) {
                failure = j.name + ": exception: " + e.what();
            }
            if (!failure.empty()) {
                std::lock_guard<std::mutex> lock(mu);
                failures.push_back(std::move(failure));
            }
        }
    };
    const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < hw; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();

    for (const std::string &f : failures)
        ADD_FAILURE() << f;
    EXPECT_EQ(failures.size(), 0u)
        << failures.size() << " of " << jobs.size()
        << " units failed timing cross-validation";
}

TEST(Gate, SmokeMatrixCrossValidationUnderUarch)
{
    // The smoke matrix with forwarding and a bimodal predictor on (and
    // the pipeline deepened so both penalties are live): the per-PC
    // interlocks must stay inside the static classification, the
    // branch stalls inside the per-site mispredict bounds, and the
    // totals exact — same zero-findings contract as the baseline gate.
    const sim::UarchConfig uarch =
        core::sweep::parseUarch("fwd=on,bp=bimodal6,depth=7");
    for (const core::sweep::JobSpec &j : core::sweep::smokeBaseMatrix()) {
        const std::string name = j.workload + "|" +
                                 core::sweep::variantKey(j.opts) + "|" +
                                 uarch.key();
        const assem::Image img =
            core::build(core::workload(j.workload).source, j.opts);
        const ImageCfg cfg = buildCfg(img);
        verify::DiagEngine diags;
        diags.setUnit(name);
        TimingOptions topts;
        topts.siteDiags = false;
        topts.uarch = uarch;
        const TimingResult timing = analyzeTiming(cfg, diags, topts);
        EXPECT_EQ(diags.failures(), 0) << name;

        sim::MachineConfig mcfg;
        mcfg.uarch = uarch;
        sim::Machine m(img, mcfg);
        const PcProfile profile = profileRun(m);
        verify::DiagEngine xval;
        const int findings =
            crossValidateTiming(timing, profile, m.stats(), xval);
        if (findings != 0) {
            std::ostringstream os;
            xval.renderText(os);
            ADD_FAILURE() << name << ": " << findings
                          << " cross-validation findings\n"
                          << os.str();
        }
    }
}

// ----- golden timing sweep --------------------------------------------

namespace
{

Json
timingUnitJson(const core::Workload &w, const mc::CompileOptions &opts)
{
    const assem::Image img = core::build(w.source, opts);
    const ImageCfg cfg = buildCfg(img);
    verify::DiagEngine diags;
    TimingOptions topts;
    topts.siteDiags = false;
    const TimingResult timing = analyzeTiming(cfg, diags, topts);
    const mc::SchedFeedback fb = schedFeedback(timing, diags);

    Json j = Json::object();
    std::ostringstream os;
    timing.renderJson(os);
    j["timing"] = Json::parse(os.str());
    Json f = Json::object();
    f["residualLoadUse"] = Json(int64_t{fb.loadUseSites});
    f["avoidableLoadUse"] = Json(int64_t{fb.avoidableSites});
    j["schedFeedback"] = f;
    return j;
}

} // namespace

TEST(Golden, TimingSweep)
{
    Json units = Json::object();
    for (const core::sweep::JobSpec &j : core::sweep::smokeBaseMatrix()) {
        const std::string key =
            j.workload + "|" + core::sweep::variantKey(j.opts);
        units[key] = timingUnitJson(core::workload(j.workload), j.opts);
    }
    Json doc = Json::object();
    doc["schema"] = "d16-timing-golden-v1";
    doc["units"] = std::move(units);

    if (updateGolden) {
        std::ofstream out(D16SIM_TIMING_GOLDEN_JSON);
        ASSERT_TRUE(out) << "cannot write " << D16SIM_TIMING_GOLDEN_JSON;
        out << doc.dump(2) << "\n";
        std::cout << "timing_test: regenerated "
                  << D16SIM_TIMING_GOLDEN_JSON << " ("
                  << doc["units"].size() << " units)\n";
        return;
    }

    const Json golden = Json::parse(readFile(D16SIM_TIMING_GOLDEN_JSON));
    const Json *gu = golden.find("units");
    ASSERT_NE(gu, nullptr) << "golden file has no units section";
    for (const auto &[key, value] : doc["units"].members()) {
        const Json *g = gu->find(key);
        ASSERT_NE(g, nullptr) << "unit " << key << " missing from golden "
                              << "(rerun with --update-golden?)";
        EXPECT_EQ(value.dump(2), g->dump(2))
            << "timing summary diverged for " << key
            << " (rerun with --update-golden if the change is intended)";
    }
    EXPECT_EQ(doc.dump(2), golden.dump(2))
        << "timing golden diverged (stale or extra units?)";
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
