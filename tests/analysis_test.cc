/**
 * @file
 * Binary CFG analyzer tests: seeded defects, dominators/loops,
 * static/dynamic cross-validation, and a golden-result sweep.
 *
 * The seeded-defect tests hand-assemble small images that each violate
 * exactly one analyzer invariant (an unreachable block, a cold-path
 * use-before-def, a caller-saved value read across a call, a recursive
 * call cycle) and require exactly one diagnostic with the right code
 * and location — the analyzer's precision contract.
 *
 * The golden sweep analyzes all 15 workloads x {D16, DLXe} x opt 0-2
 * (90 images) and pins every summary field (graph shape, density
 * accounting, stack bounds, static instruction mix) against
 * tests/golden/analysis_golden.json. Regenerate after an *intended*
 * codegen or analyzer change:
 *
 *     build/tests/analysis_test --update-golden
 *
 * and review the diff like any other source change.
 */

#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "analysis/dom.hh"
#include "analysis/xvalidate.hh"
#include "asm/assembler.hh"
#include "asm/parser.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "mc/compiler.hh"
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

} // namespace

// ----- seeded defects -------------------------------------------------

TEST(SeededDefect, UnreachableBlock)
{
    // The unconditional branch skips the addi block, which no leader
    // path can claim: one cfa-unreachable-block warning, nothing else.
    const assem::Image img = assemble(isa::TargetInfo::dlxe(), R"(
main:
    br end
    nop
    addi r2, r0, 1
end:
    ret
    nop
)");
    verify::DiagEngine diags;
    const AnalysisResult r = analyzeImage(img, diags);
    EXPECT_EQ(countCode(diags, "cfa-unreachable-block"), 1);
    EXPECT_EQ(diags.failures(), 1);
    EXPECT_EQ(r.unreachableBlocks, 1);
    const verify::Diag *d = findCode(diags, "cfa-unreachable-block");
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->hasAddr);
    EXPECT_EQ(d->addr, img.symbol("main") + 8);  // past branch + slot
}

TEST(SeededDefect, UseBeforeDefOnColdPath)
{
    // r6 is a caller-saved temp with no def on *any* path; the cold
    // block reads it. The hot path is clean, so this is exactly the
    // may-analysis case (flag only when no path defines the register).
    const assem::Image img = assemble(isa::TargetInfo::d16(), R"(
main:
    mvi r2, 0
    cmp.lt r2, r3
    bz cold
    nop
    ret
    nop
cold:
    mv r2, r6
    ret
    nop
)");
    verify::DiagEngine diags;
    analyzeImage(img, diags);
    EXPECT_EQ(countCode(diags, "cfa-use-before-def"), 1);
    EXPECT_EQ(diags.failures(), 1);
    const verify::Diag *d = findCode(diags, "cfa-use-before-def");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->symbol, "cold");
    EXPECT_TRUE(d->hasAddr);
    EXPECT_EQ(d->addr, img.symbol("cold"));
}

TEST(SeededDefect, ClobberedAcrossCall)
{
    // r10 is caller-saved under the DLXe ABI (callee-saved starts at
    // r16): defined before the call, read after it. Both source reads
    // of the add dedup to one diagnostic per (site, register).
    const assem::Image img = assemble(isa::TargetInfo::dlxe(), R"(
main:
    addi sp, sp, -8
    st ra, 0(sp)
    addi r10, r0, 5
    jl f
    nop
    add r11, r10, r10
    ld ra, 0(sp)
    addi sp, sp, 8
    ret
    nop
f:
    ret
    nop
)");
    verify::DiagEngine diags;
    analyzeImage(img, diags);
    EXPECT_EQ(countCode(diags, "cfa-clobbered-across-call"), 1);
    EXPECT_EQ(diags.failures(), 1);
    const verify::Diag *d = findCode(diags, "cfa-clobbered-across-call");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->symbol, "main");
    EXPECT_NE(d->message.find("r10"), std::string::npos);
}

TEST(SeededDefect, RecursiveCycle)
{
    // D16 self-call through the constant pool (ldc + jlr at), the
    // exact shape the compiler emits: the resolver must read the
    // callee out of the pool word, and the stack pass must report the
    // cycle once and give up on a bound.
    const assem::Image img = assemble(isa::TargetInfo::d16(), R"(
main:
    subi sp, 8
    ldc cpool
    jlr at
    nop
    addi sp, 8
    ret
    nop
    .align 4
cpool:
    .word main
)");
    verify::DiagEngine diags;
    const AnalysisResult r = analyzeImage(img, diags);
    EXPECT_EQ(countCode(diags, "cfa-recursive-cycle"), 1);
    EXPECT_EQ(diags.failures(), 0);  // a Note, not a failure
    EXPECT_TRUE(r.recursive);
    EXPECT_EQ(r.maxStackBytes, -1);
    ASSERT_EQ(r.functions.size(), 1u);
    EXPECT_EQ(r.functions[0].stackDepth, -1);
    EXPECT_EQ(r.callEdgeCount, 1);
    const verify::Diag *d = findCode(diags, "cfa-recursive-cycle");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->symbol, "main");
    EXPECT_NE(d->message.find("main"), std::string::npos);
}

TEST(SeededDefect, CleanImageHasNoFindings)
{
    // The same shapes with the defects repaired: zero diagnostics of
    // any severity (the precision side of the contract).
    const assem::Image img = assemble(isa::TargetInfo::dlxe(), R"(
main:
    addi sp, sp, -8
    st ra, 0(sp)
    addi r10, r0, 5
    jl f
    nop
    ld ra, 0(sp)
    addi sp, sp, 8
    ret
    nop
f:
    ret
    nop
)");
    verify::DiagEngine diags;
    const AnalysisResult r = analyzeImage(img, diags);
    EXPECT_TRUE(diags.empty()) << [&] {
        std::ostringstream os;
        diags.renderText(os);
        return os.str();
    }();
    EXPECT_EQ(r.funcCount, 2);
    EXPECT_EQ(r.maxStackBytes, 8);
}

// ----- dominators and natural loops -----------------------------------

TEST(Dominators, CountingLoop)
{
    const assem::Image img = assemble(isa::TargetInfo::dlxe(), R"(
main:
    addi r10, r0, 4
loop:
    addi r10, r10, -1
    bnz r10, loop
    nop
    ret
    nop
)");
    verify::DiagEngine diags;
    const AnalysisResult r = analyzeImage(img, diags);
    EXPECT_EQ(diags.failures(), 0);
    EXPECT_EQ(r.loopCount, 1);
    ASSERT_EQ(r.functions.size(), 1u);
    EXPECT_EQ(r.functions[0].loops, 1);

    const ImageCfg &cfg = r.cfg;
    ASSERT_EQ(cfg.funcs.size(), 1u);
    const int entry = cfg.funcs[0].entryBlock;
    const int head = cfg.blockAt(img.symbol("loop"));
    ASSERT_GE(head, 0);

    const DomInfo dom = computeDoms(cfg, cfg.funcs[0]);
    ASSERT_EQ(dom.loopHeaders.size(), 1u);
    EXPECT_EQ(dom.loopHeaders[0], head);
    EXPECT_EQ(dom.idom[head], entry);
    EXPECT_TRUE(dom.dominates(entry, head));
    EXPECT_TRUE(dom.dominates(head, head));
    EXPECT_FALSE(dom.dominates(head, entry));
    // The loop body branches back to itself: a self back edge.
    const Block &hb = cfg.blocks[head];
    EXPECT_NE(std::find(hb.succs.begin(), hb.succs.end(), head),
              hb.succs.end());
}

// ----- static/dynamic cross-validation --------------------------------

TEST(CrossValidation, AgreesWithSimulator)
{
    for (const auto &opts :
         {mc::CompileOptions::d16(), mc::CompileOptions::dlxe()}) {
        const core::Workload &w = core::workload("queens");
        const assem::Image img = core::build(w.source, opts);
        verify::DiagEngine diags;
        const AnalysisResult r = analyzeImage(img, diags, Abi::from(opts));
        ASSERT_EQ(diags.failures(), 0) << opts.name();

        sim::Machine m(img);
        const PcProfile profile = profileRun(m);
        EXPECT_EQ(crossValidate(r.cfg, profile, m.stats(), diags), 0)
            << opts.name();
        EXPECT_EQ(diags.errors(), 0) << opts.name();
        EXPECT_FALSE(profile.sites.empty());
        EXPECT_FALSE(profile.edges.empty());
    }
}

TEST(PcProfile, SumsToRunStatsOnLinpack)
{
    // linpack exercises FP interlocks as well as load interlocks. At
    // each capture slice, and under a predictor, the per-PC profile
    // must account for the run's counters exactly, and profiling must
    // not perturb the run.
    const auto uarch = [](bool fwd, int depth, bool bimodal) {
        sim::UarchConfig u;
        u.forward = fwd;
        u.depth = depth;
        if (bimodal)
            u.branch = sim::BranchPolicy::Bimodal;
        return u;
    };
    const core::Workload &w = core::workload("linpack");
    for (const auto &opts :
         {mc::CompileOptions::d16(), mc::CompileOptions::dlxe()}) {
        const assem::Image img = core::build(w.source, opts);
        for (const sim::UarchConfig &u :
             {uarch(false, 5, false), uarch(true, 5, false),
              uarch(false, 7, false), uarch(true, 7, false),
              uarch(false, 5, true)}) {
            const std::string where =
                std::string(opts.name()) + " [" + u.key() + "]";
            sim::MachineConfig mcfg;
            mcfg.uarch = u;
            sim::Machine m(img, mcfg);
            const PcProfile profile = profileRun(m);
            ASSERT_TRUE(m.halted()) << where;
            PcProfile::Site sum;
            for (const auto &[pc, s] : profile.sites) {
                sum.execs += s.execs;
                sum.loadStall += s.loadStall;
                sum.fpStall += s.fpStall;
                sum.branchStall += s.branchStall;
            }
            const sim::SimStats &st = m.stats();
            EXPECT_EQ(sum.execs, st.instructions) << where;
            EXPECT_EQ(sum.loadStall, st.loadInterlocks) << where;
            EXPECT_EQ(sum.fpStall, st.fpInterlocks) << where;
            EXPECT_EQ(sum.branchStall, st.branchStalls) << where;
            EXPECT_GT(st.fpInterlocks, 0u) << where;
            EXPECT_EQ(st.branchStalls > 0,
                      u.depth == 7 || u.branch == sim::BranchPolicy::Bimodal)
                << where;

            const core::RunMeasurement plain = core::run(img, nullptr, mcfg);
            EXPECT_TRUE(st == plain.stats) << where;
            EXPECT_EQ(m.output(), plain.output) << where;
        }
    }
}

TEST(CrossValidation, DetectsTamperedCounts)
{
    const core::Workload &w = core::workload("ackermann");
    const auto opts = mc::CompileOptions::d16();
    const assem::Image img = core::build(w.source, opts);
    verify::DiagEngine clean;
    const AnalysisResult r = analyzeImage(img, clean, Abi::from(opts));
    ASSERT_EQ(clean.failures(), 0);

    sim::Machine m(img);
    const PcProfile profile = profileRun(m);

    // An instruction count the per-PC profile cannot account for must
    // be flagged exactly (no tolerances anywhere in the validator).
    sim::SimStats tampered = m.stats();
    tampered.instructions += 1;
    verify::DiagEngine diags;
    EXPECT_GE(crossValidate(r.cfg, profile, tampered, diags), 1);
    EXPECT_EQ(countCode(diags, "cfa-xval-count-mismatch"), 1);

    // And the untampered stats still validate afterwards.
    verify::DiagEngine ok;
    EXPECT_EQ(crossValidate(r.cfg, profile, m.stats(), ok), 0);
}

// ----- golden sweep ---------------------------------------------------

namespace
{

/** Analyze one workload/variant/opt unit into its golden JSON entry. */
Json
analyzeUnitJson(const core::Workload &w, mc::CompileOptions opts)
{
    mc::CompileResult comp = mc::compile(w.source, opts);
    assem::Assembler as(opts.target());
    as.add(std::move(comp.items));
    const assem::Image img = as.link();

    verify::DiagEngine diags;
    const AnalysisResult r = analyzeImage(img, diags, Abi::from(opts));
    EXPECT_EQ(diags.failures(), 0)
        << w.name << "/" << opts.name() << "/O" << opts.optLevel
        << ": analyzer reported failures on toolchain output";

    std::ostringstream os;
    r.renderJson(os);
    return Json::parse(os.str());
}

} // namespace

TEST(Golden, AnalysisSweep)
{
    Json units = Json::object();
    for (const core::Workload &w : core::workloadSuite()) {
        for (auto opts :
             {mc::CompileOptions::d16(), mc::CompileOptions::dlxe()}) {
            for (int lvl = 0; lvl <= 2; ++lvl) {
                opts.optLevel = lvl;
                const std::string key = w.name + "|" + opts.name() +
                                        "|O" + std::to_string(lvl);
                units[key] = analyzeUnitJson(w, opts);
            }
        }
    }
    Json doc = Json::object();
    doc["schema"] = "d16-analysis-golden-v1";
    doc["units"] = std::move(units);

    if (updateGolden) {
        std::ofstream out(D16SIM_ANALYSIS_GOLDEN_JSON);
        ASSERT_TRUE(out) << "cannot write " << D16SIM_ANALYSIS_GOLDEN_JSON;
        out << doc.dump(2) << "\n";
        std::cout << "analysis_test: regenerated "
                  << D16SIM_ANALYSIS_GOLDEN_JSON << " ("
                  << doc["units"].size() << " units)\n";
        return;
    }

    const Json golden =
        Json::parse(readFile(D16SIM_ANALYSIS_GOLDEN_JSON));
    // Per-unit comparison first for a targeted diff, then the whole
    // document byte-for-byte (every field is an integer or a string,
    // so equality is exact).
    const Json *gu = golden.find("units");
    ASSERT_NE(gu, nullptr) << "golden file has no units section";
    for (const auto &[key, value] : doc["units"].members()) {
        const Json *g = gu->find(key);
        ASSERT_NE(g, nullptr) << "unit " << key << " missing from golden "
                              << "(rerun with --update-golden?)";
        EXPECT_EQ(value.dump(2), g->dump(2))
            << "analysis summary diverged for " << key
            << " (rerun with --update-golden if the change is intended)";
    }
    EXPECT_EQ(doc.dump(2), golden.dump(2))
        << "analysis golden diverged (stale or extra units?)";
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
