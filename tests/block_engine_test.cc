/**
 * @file
 * Differential gate for the block-compiled threaded-code engine.
 *
 * The engine's contract is bit-exactness against Machine::step: same
 * architectural results, same SimStats field by field, same recorded
 * D16T traces, same canonical sweep JSON — the only observable
 * difference allowed is speed. These tests run both dispatchers over
 * the whole workload suite under the default and every uarch smoke
 * config, over seeded images for each load-delay/forwarding rule of
 * the translator, and over seeded fallback scenarios (jumps into pool
 * data, mid-block entry, probe-attached runs, instruction limits) and
 * require equality everywhere.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "asm/assembler.hh"
#include "asm/parser.hh"
#include "core/replay/trace.hh"
#include "core/sweep/sweep.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "sim/block_engine.hh"
#include "sim/machine.hh"
#include "support/error.hh"

namespace
{

using namespace d16sim;
using d16sim::core::sweep::SweepEngine;

/** Every SimStats field, attributed individually on mismatch. */
void
expectStatsEqual(const sim::SimStats &a, const sim::SimStats &b,
                 const std::string &where)
{
    EXPECT_EQ(a.instructions, b.instructions) << where;
    EXPECT_EQ(a.loads, b.loads) << where;
    EXPECT_EQ(a.stores, b.stores) << where;
    EXPECT_EQ(a.loadInterlocks, b.loadInterlocks) << where;
    EXPECT_EQ(a.fpInterlocks, b.fpInterlocks) << where;
    EXPECT_EQ(a.branches, b.branches) << where;
    EXPECT_EQ(a.takenBranches, b.takenBranches) << where;
    EXPECT_EQ(a.fpOps, b.fpOps) << where;
    EXPECT_EQ(a.traps, b.traps) << where;
    EXPECT_EQ(a.branchBubbles, b.branchBubbles) << where;
    EXPECT_TRUE(a == b) << where;  // defaulted operator== agrees
}

assem::Image
buildAsm(const isa::TargetInfo &t, std::string_view src)
{
    assem::Assembler as(t);
    as.add(assem::parseAsm(t, src));
    return as.link();
}

/** Little-endian instruction word read straight from the image. */
uint32_t
imageWord(const assem::Image &img, uint32_t addr, int bytes)
{
    uint32_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<uint32_t>(img.bytes[addr - img.textBase + i])
             << (8 * i);
    return v;
}

/** Run one image through step dispatch and block dispatch and require
 *  identical measurements; returns the block machine for inspection.
 *  `blocks` defaults to a fresh translation of `img`. */
std::unique_ptr<sim::Machine>
runBothAndCompare(const assem::Image &img, const std::string &where,
                  sim::MachineConfig config = {},
                  std::shared_ptr<const sim::BlockProgram> blocks = nullptr)
{
    sim::Machine stepM(img, config);
    stepM.run();

    auto blockM = std::make_unique<sim::Machine>(img, config);
    blockM->setBlockProgram(blocks ? std::move(blocks)
                                   : core::buildBlockProgram(img));
    blockM->run();

    EXPECT_EQ(stepM.halted(), blockM->halted()) << where;
    EXPECT_EQ(stepM.output(), blockM->output()) << where;
    EXPECT_EQ(stepM.pc(), blockM->pc()) << where;
    for (int r = 0; r < 16; ++r)
        EXPECT_EQ(stepM.reg(r), blockM->reg(r)) << where << " r" << r;
    expectStatsEqual(stepM.stats(), blockM->stats(), where);
    return blockM;
}

/** Every workload x `variants` (default {D16, DLXe/32/3}), spread
 *  over a few threads: the matrix is embarrassingly parallel and
 *  dominates this binary. */
void
forEachWorkloadVariant(
    const std::function<void(const core::Workload &,
                             const mc::CompileOptions &)> &body,
    const std::vector<mc::CompileOptions> &variants = {
        mc::CompileOptions::d16(), mc::CompileOptions::dlxe(32, true)})
{
    struct Item
    {
        const core::Workload *w;
        mc::CompileOptions opts;
    };
    std::vector<Item> items;
    for (const core::Workload &w : core::workloadSuite())
        for (const mc::CompileOptions &opts : variants)
            items.push_back({&w, opts});

    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&] {
            for (size_t i = next++; i < items.size(); i = next++) {
                try {
                    body(*items[i].w, items[i].opts);
                } catch (const std::exception &e) {
                    ADD_FAILURE() << items[i].w->name << ": " << e.what();
                }
            }
        });
    for (std::thread &t : workers)
        t.join();
}

/** The six non-default machines of sweep::uarchSmokeMatrix(). */
std::vector<sim::UarchConfig>
uarchSmokeConfigs()
{
    std::vector<sim::UarchConfig> configs;
    for (const core::sweep::JobSpec &spec : core::sweep::uarchSmokeMatrix())
        if (std::find(configs.begin(), configs.end(), spec.uarch) ==
            configs.end())
            configs.push_back(spec.uarch);
    return configs;
}

sim::MachineConfig
uarchConfig(const std::string &key)
{
    sim::MachineConfig config;
    config.uarch = core::sweep::parseUarch(key);
    return config;
}

/** The per-instruction imm reference: classify() on every fetched
 *  site, one instruction at a time. */
class SiteClassFold : public sim::TraceFold
{
  public:
    explicit SiteClassFold(const sim::DecodedText &text) : text_(text) {}

    void
    feed(const sim::TraceChunk &chunk) override
    {
        const uint32_t ib = 1u << text_.insnShift();
        for (const sim::FetchRun &r : chunk.runs) {
            for (uint32_t i = 0; i < r.count; ++i) {
                const uint32_t slot =
                    (r.startPc + i * ib - text_.base()) >> text_.insnShift();
                ++total;
                if (text_.valid(slot))
                    ++counts[static_cast<size_t>(
                        core::ImmediateClassProbe::classify(text_.at(slot)))];
            }
        }
    }

    uint64_t total = 0;
    std::array<uint64_t, 4> counts{};

  private:
    const sim::DecodedText &text_;
};

// ----- whole-suite differential ---------------------------------------

TEST(BlockEngine, SmokeMatrixByteIdenticalJson)
{
    core::sweep::ResultStore onStore, offStore;

    SweepEngine on(onStore, 4);
    on.setBlockEngine(true);
    on.add(core::sweep::smokeMatrix());
    on.run();

    SweepEngine off(offStore, 4);
    off.setBlockEngine(false);
    off.add(core::sweep::smokeMatrix());
    off.run();

    const std::string onJson =
        core::sweep::sweepJson(onStore, nullptr).dump(2);
    const std::string offJson =
        core::sweep::sweepJson(offStore, nullptr).dump(2);
    EXPECT_EQ(onJson, offJson);
}

TEST(BlockEngine, WorkloadStatsAndTracesIdentical)
{
    forEachWorkloadVariant([](const core::Workload &w,
                              const mc::CompileOptions &opts) {
        const assem::Image img = core::build(w.source, opts);
        auto predecoded = std::make_shared<const sim::DecodedText>(img);
        auto blocks = core::buildBlockProgram(img, predecoded);

        const std::string where =
            w.name + " " + std::string(opts.name());

        // Step vs block, probe-less.
        const core::RunMeasurement stepRun =
            core::run(img, {}, {}, predecoded);
        const core::RunMeasurement blockRun =
            core::run(img, {}, {}, predecoded, blocks);
        EXPECT_EQ(stepRun.output, blockRun.output) << where;
        EXPECT_EQ(stepRun.exitStatus, blockRun.exitStatus) << where;
        expectStatsEqual(stepRun.stats, blockRun.stats, where);

        // Step vs block trace capture: byte-identical D16T files (which
        // embed the run's stats) for the default machine and the two
        // depth-7 capture slices, where the load delay is two.
        for (const char *key : {"", "depth=7", "fwd=on,depth=7"}) {
            const sim::MachineConfig config = uarchConfig(key);
            const core::replay::Trace stepTrace =
                core::replay::capture(img, predecoded, config);
            const core::replay::Trace blockTrace =
                core::replay::capture(img, predecoded, config, blocks);
            EXPECT_EQ(stepTrace.serialize(), blockTrace.serialize())
                << where << " [" << key << "]";
        }
    });
}

TEST(BlockEngine, UarchSmokeConfigsMatchStep)
{
    // Block dispatch runs under every microarchitecture: each smoke
    // config must retire nearly everything through compiled blocks
    // and still match step() field for field.
    const std::vector<sim::UarchConfig> configs = uarchSmokeConfigs();
    ASSERT_EQ(configs.size(), 6u);
    forEachWorkloadVariant([&](const core::Workload &w,
                               const mc::CompileOptions &opts) {
        const assem::Image img = core::build(w.source, opts);
        auto blocks = core::buildBlockProgram(img);
        for (const sim::UarchConfig &uarch : configs) {
            const std::string where = w.name + " " +
                                      std::string(opts.name()) + " [" +
                                      uarch.key() + "]";
            sim::MachineConfig config;
            config.uarch = uarch;
            auto m = runBothAndCompare(img, where, config, blocks);
            EXPECT_GE(m->blockInstructions(),
                      m->stats().instructions * 9 / 10)
                << where;
        }
    });
}

TEST(BlockEngine, ImmClassRunsOnBlocks)
{
    // The imm classifier is a trace fold that counts each fetch run's
    // sites by prefix sums. On block dispatch it must agree in every
    // counter with classify() applied to each fetched site of a step()
    // run, and so must the counts the sweep engine replays from a
    // capture of the same image. DLXe/16/2 is the matrix's imm
    // variant; D16 and DLXe/32/3 widen the opcode mix.
    using Class = core::ImmediateClassProbe::Class;
    forEachWorkloadVariant(
        [](const core::Workload &w, const mc::CompileOptions &opts) {
            const assem::Image img = core::build(w.source, opts);
            auto predecoded = std::make_shared<const sim::DecodedText>(img);
            const std::string where =
                w.name + " " + std::string(opts.name());
            const auto count = [](const SiteClassFold &f, Class c) {
                return f.counts[static_cast<size_t>(c)];
            };

            const auto ib = static_cast<uint32_t>(img.target->insnBytes());
            SiteClassFold reference(*predecoded);
            sim::Machine stepM(img, {}, predecoded);
            sim::TraceSink stepSink(ib, reference);
            stepM.setTraceSink(&stepSink);
            stepM.run();
            stepSink.finish();

            core::ImmediateClassProbe blockFold(*predecoded);
            sim::Machine blockM(img, {}, predecoded);
            blockM.setBlockProgram(core::buildBlockProgram(img, predecoded));
            sim::TraceSink blockSink(ib, blockFold);
            blockM.setTraceSink(&blockSink);
            blockM.run();
            blockSink.finish();

            EXPECT_EQ(stepM.output(), blockM.output()) << where;
            EXPECT_EQ(stepM.pc(), blockM.pc()) << where;
            expectStatsEqual(stepM.stats(), blockM.stats(), where);
            EXPECT_GE(blockM.blockInstructions(),
                      blockM.stats().instructions * 9 / 10)
                << where;
            EXPECT_EQ(reference.total, stepM.stats().instructions) << where;
            EXPECT_EQ(blockFold.total(), reference.total) << where;
            EXPECT_EQ(blockFold.cmpImmediate(),
                      count(reference, Class::CmpImmediate))
                << where;
            EXPECT_EQ(blockFold.aluImmediate(),
                      count(reference, Class::AluImmediate))
                << where;
            EXPECT_EQ(blockFold.memDisplacement(),
                      count(reference, Class::MemDisplacement))
                << where;

            const core::replay::Trace trace = core::replay::capture(
                img, predecoded, {},
                core::buildBlockProgram(img, predecoded));
            const core::sweep::JobResult replayed = core::sweep::replayJob(
                core::sweep::JobSpec::imm(w.name, opts), trace,
                predecoded.get());
            EXPECT_EQ(replayed.imm.total, reference.total) << where;
            EXPECT_EQ(replayed.imm.cmpImmediate,
                      count(reference, Class::CmpImmediate))
                << where;
            EXPECT_EQ(replayed.imm.aluImmediate,
                      count(reference, Class::AluImmediate))
                << where;
            EXPECT_EQ(replayed.imm.memDisplacement,
                      count(reference, Class::MemDisplacement))
                << where;
            expectStatsEqual(replayed.run.stats, stepM.stats(), where);
        },
        {mc::CompileOptions::dlxe(16, false), mc::CompileOptions::d16(),
         mc::CompileOptions::dlxe(32, true)});
}

TEST(BlockEngine, EngineActuallyDispatchesBlocks)
{
    const core::Workload &w = core::workload("queens");
    const assem::Image img =
        core::build(w.source, mc::CompileOptions::d16());
    sim::Machine m(img);
    m.setBlockProgram(core::buildBlockProgram(img));
    m.run();
    ASSERT_TRUE(m.halted());
    // Nearly everything should retire through compiled blocks; the
    // remainder is delay-slot/pool stepping around indirect calls.
    EXPECT_GT(m.blockInstructions(),
              m.stats().instructions * 9 / 10);
}

TEST(BlockEngine, TranslationCoversCfg)
{
    const core::Workload &w = core::workload("towers");
    for (const auto &opts : {mc::CompileOptions::d16(),
                             mc::CompileOptions::dlxe(16, false)}) {
        const assem::Image img = core::build(w.source, opts);
        auto blocks = core::buildBlockProgram(img);
        EXPECT_GT(blocks->blockCount(), 0u) << opts.name();
        EXPECT_GT(blocks->uopCount(), 0u) << opts.name();
        // NeedsStep blocks are the rare edges (terminator without a
        // slot before a pool, transfers inside slots), never the bulk.
        EXPECT_LT(blocks->needsStepCount(), blocks->blockCount() / 2)
            << opts.name();
    }
}

// ----- seeded load-delay and forwarding scenarios --------------------

/** Step vs block at the configs whose rules the translator must honor
 *  beyond the paper's machine: a two-cycle load delay, the store-data
 *  bypass, and both. Returns the block machine's stats per config. */
std::vector<sim::SimStats>
compareUnderUarchRules(const std::string &src, const std::string &what)
{
    const assem::Image img = buildAsm(isa::TargetInfo::dlxe(), src);
    auto blocks = core::buildBlockProgram(img);
    std::vector<sim::SimStats> stats;
    for (const char *key : {"depth=7", "fwd=on", "fwd=on,depth=7"}) {
        const sim::MachineConfig config = uarchConfig(key);
        auto m = runBothAndCompare(img, what + " [" + key + "]", config,
                                   blocks);
        EXPECT_EQ(m->blockInstructions(), m->stats().instructions)
            << what << " [" << key << "]";
        stats.push_back(m->stats());
    }
    return stats;
}

TEST(BlockEngineUarch, LoadOverwriteUseInOneBlock)
{
    // r3: the add overwrites the loaded value in the load's shadow, so
    // the use sees the add's ready time, never the load's. r7: the
    // load is two uops before its use, inside the depth-7 delay.
    const auto stats = compareUnderUarchRules(R"(
main:
    ld r3, 0(gp)
    add r3, r4, r5
    add r6, r3, r3
    ld r7, 0(gp)
    mvi r8, 1
    add r9, r7, r7
    mvi r2, 0
    trap 5
    .data
w:  .word 0
)",
                                              "ld; add r; use r");
    EXPECT_EQ(stats[0].loadInterlocks, 1u);  // depth 7: only r7 stalls
}

TEST(BlockEngineUarch, LoadOverwriteUseAcrossBlocks)
{
    // The same overwrite, with the use opening the next block (a
    // leader: the never-taken bnz targets it). Block entry checks
    // every source, so the add's ready write must survive
    // translation or the use would see the load's stale ready time.
    const auto stats = compareUnderUarchRules(R"(
main:
    mvi r5, 0
    bnz r5, next
    nop
    ld r3, 0(gp)
    add r3, r4, r4
next:
    add r6, r3, r3
    mvi r2, 0
    trap 5
    .data
w:  .word 0
)",
                                              "ld; add r | use r");
    EXPECT_EQ(stats[0].loadInterlocks, 0u);
}

TEST(BlockEngineUarch, LoadTwoUopsBeforeDelaySlotUse)
{
    // The slot's dynamic predecessor is the branch, but at depth 7 the
    // load two issues back still stalls it one cycle.
    const auto stats = compareUnderUarchRules(R"(
main:
    mvi r5, 1
    ld r3, 0(gp)
    bnz r5, end
    add r6, r3, r3
end:
    mvi r2, 0
    trap 5
    .data
w:  .word 0
)",
                                              "ld; bnz; slot use");
    EXPECT_EQ(stats[0].loadInterlocks, 1u);
}

TEST(BlockEngineUarch, LoadThenStoreOfLoadedRegister)
{
    // Store data straight from a load: the bypass forwards one cycle
    // of the data stall (ledgered in fwdSavedStalls); the second pair
    // has its load two issues back, a depth-7-only stall.
    const auto stats = compareUnderUarchRules(R"(
main:
    ld r3, 0(gp)
    st r3, 4(gp)
    ld r4, 0(gp)
    mvi r5, 1
    st r4, 8(gp)
    mvi r2, 0
    trap 5
    .data
w:  .word 0
    .word 0
    .word 0
)",
                                              "ld r; st r");
    EXPECT_EQ(stats[0].loadInterlocks, 3u);  // depth 7, no bypass
    EXPECT_EQ(stats[1].fwdSavedStalls, 1u);  // fwd on, depth 5
    EXPECT_EQ(stats[2].fwdSavedStalls, 2u);  // fwd on, depth 7
}

// ----- seeded fallback scenarios --------------------------------------

TEST(BlockEngine, FallbackJumpIntoPoolDataDLXe)
{
    const isa::TargetInfo &t = isa::TargetInfo::dlxe();
    // Steal real encodings (jr ra; nop) to plant as in-text "data".
    const assem::Image donor = buildAsm(t, "main:\n    ret\n    nop\n");
    const uint32_t retWord = imageWord(donor, donor.entry, 4);
    const uint32_t nopWord = imageWord(donor, donor.entry + 4, 4);

    // The straight-line block falls off its end into .word data the
    // CFG never claimed; both dispatchers must execute it raw.
    const std::string src =
        "main:\n"
        "    mvi r2, 7\n"
        "    mvi r3, 1\n"
        "data:\n"
        "    .word " + std::to_string(retWord) + "\n"
        "    .word " + std::to_string(nopWord) + "\n";
    const assem::Image img = buildAsm(t, src);
    auto m = runBothAndCompare(img, "fall into pool data");
    EXPECT_EQ(m->reg(2), 7u);
    EXPECT_EQ(m->stats().instructions, 4u);
    // The opening block ran compiled; the pool words were stepped.
    EXPECT_EQ(m->blockInstructions(), 2u);
}

TEST(BlockEngine, FallbackJumpIntoPoolDataD16)
{
    const isa::TargetInfo &t = isa::TargetInfo::d16();
    const assem::Image donor = buildAsm(t, "main:\n    ret\n    nop\n");
    const uint32_t retHalf = imageWord(donor, donor.entry, 2);
    const uint32_t nopHalf = imageWord(donor, donor.entry + 2, 2);

    // An indirect jump INTO a constant pool: the target pc is not an
    // instruction site, so no block claims it and step() decodes the
    // raw halfwords, exactly as without the engine.
    const std::string src =
        "    .align 4\n"
        "paddr:\n"
        "    .word pool\n"
        "main:\n"
        "    mvi r2, 9\n"
        "    ldc paddr\n"
        "    jr at\n"
        "    nop\n"
        "pool:\n"
        "    .half " + std::to_string(retHalf) + "\n"
        "    .half " + std::to_string(nopHalf) + "\n";
    const assem::Image img = buildAsm(t, src);
    auto m = runBothAndCompare(img, "jump into pool data");
    EXPECT_EQ(m->reg(2), 9u);
    EXPECT_TRUE(m->halted());
}

TEST(BlockEngine, FallbackUnclaimedMidBlockPc)
{
    const isa::TargetInfo &t = isa::TargetInfo::dlxe();
    // f returns past the return-point leader: the landing pc is inside
    // a block but is not a block start, so dispatch punts to step()
    // until control reaches a claimed leader again.
    const std::string src = R"(
main:
    jl f
    nop
    mvi r3, 1
    mvi r4, 2
    mvi r2, 5
    mvi r1, 0
    ret
    nop
f:
    addi r1, r1, 4
    jr r1
    nop
)";
    const assem::Image img = buildAsm(t, src);
    auto m = runBothAndCompare(img, "unclaimed mid-block pc");
    EXPECT_EQ(m->reg(2), 5u);
    EXPECT_EQ(m->reg(4), 2u);
    EXPECT_EQ(m->reg(3), 0u);  // skipped by the off-by-one return
    // Some instructions ran compiled, some stepped — and the counts
    // reconcile.
    EXPECT_GT(m->blockInstructions(), 0u);
    EXPECT_LT(m->blockInstructions(), m->stats().instructions);
}

TEST(BlockEngine, InstructionLimitFiresAtSamePoint)
{
    const isa::TargetInfo &t = isa::TargetInfo::dlxe();
    const std::string src = R"(
main:
loop:
    addi r2, r2, 1
    j loop
    nop
)";
    const assem::Image img = buildAsm(t, src);
    sim::MachineConfig config;
    config.maxInstructions = 100;

    sim::Machine stepM(img, config);
    EXPECT_THROW(stepM.run(), FatalError);

    sim::Machine blockM(img, config);
    blockM.setBlockProgram(core::buildBlockProgram(img));
    EXPECT_THROW(blockM.run(), FatalError);

    expectStatsEqual(stepM.stats(), blockM.stats(), "instruction limit");
    EXPECT_EQ(stepM.reg(2), blockM.reg(2));
}

// ----- chained-edge exits ----------------------------------------------

/** The block starting at `label`'s address in `img`. */
const sim::BlockProgram::Block &
blockAtLabel(const sim::BlockProgram &bp, const assem::Image &img,
             const std::string &label)
{
    const int32_t id = bp.blockAt(img.symbols.at(label));
    EXPECT_GE(id, 0) << label;
    return bp.block(id);
}

TEST(BlockEngineChain, InstructionLimitInsideChainedSelfLoop)
{
    // A three-instruction self-loop chains to itself; 10000 is not a
    // multiple of three, so the limit lands inside a block, after the
    // runaway guard has re-armed twice on chained dispatch.
    const isa::TargetInfo &t = isa::TargetInfo::dlxe();
    const assem::Image img = buildAsm(t, R"(
main:
loop:
    addi r2, r2, 1
    j loop
    addi r3, r3, 2
)");
    auto blocks = core::buildBlockProgram(img);
    const auto &loop = blockAtLabel(*blocks, img, "loop");
    EXPECT_EQ(loop.takenId, blocks->blockAt(img.symbols.at("loop")));

    sim::MachineConfig config;
    config.maxInstructions = 10000;
    sim::Machine stepM(img, config);
    EXPECT_THROW(stepM.run(), FatalError);
    sim::Machine blockM(img, config);
    blockM.setBlockProgram(blocks);
    EXPECT_THROW(blockM.run(), FatalError);

    expectStatsEqual(stepM.stats(), blockM.stats(), "chained limit");
    EXPECT_EQ(stepM.stats().instructions, 10000u);
    EXPECT_EQ(stepM.pc(), blockM.pc());
    EXPECT_EQ(stepM.reg(2), blockM.reg(2));
    EXPECT_EQ(stepM.reg(3), blockM.reg(3));
    EXPECT_GT(blockM.blockInstructions(), 9900u);
}

TEST(BlockEngineChain, FaultInBlockEnteredByChainedEdge)
{
    // `bad` is entered through main's chained j edge and faults on its
    // second uop; the block path must back out to step()'s stats, pc
    // and message.
    const isa::TargetInfo &t = isa::TargetInfo::dlxe();
    const assem::Image img = buildAsm(t, R"(
main:
    mvhi r6, 32767
    j bad
    mvi r3, 1
bad:
    mvi r4, 1
    ld r5, 0(r6)
    mvi r2, 0
    trap 5
)");
    auto blocks = core::buildBlockProgram(img);
    EXPECT_EQ(blockAtLabel(*blocks, img, "main").takenId,
              blocks->blockAt(img.symbols.at("bad")));

    const auto faultOf = [&](sim::Machine &m) {
        try {
            m.run();
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        ADD_FAILURE() << "no fault";
        return std::string();
    };
    sim::Machine stepM(img);
    sim::Machine blockM(img);
    blockM.setBlockProgram(blocks);
    const std::string stepFault = faultOf(stepM);
    EXPECT_FALSE(stepFault.empty());
    EXPECT_EQ(stepFault, faultOf(blockM));
    expectStatsEqual(stepM.stats(), blockM.stats(), "chained fault");
    EXPECT_EQ(stepM.stats().instructions, 5u);
    EXPECT_EQ(stepM.pc(), blockM.pc());
    EXPECT_EQ(blockM.pc(), img.symbols.at("bad") + 4);
    EXPECT_EQ(blockM.reg(4), 1u);
    EXPECT_EQ(blockM.blockInstructions(), 5u);
}

// ----- dispatch shortcuts: fault back-out, nop slots, the r0 sink ------

/** Run `img` by step and by block dispatch (which must take at least
 *  `minBlockInsns` instructions) until both fault, and require the same
 *  fault message, stats, registers and pc. */
void
compareFault(const assem::Image &img, const std::string &where,
             uint64_t minBlockInsns = 1)
{
    const auto faultOf = [&](sim::Machine &m) {
        try {
            m.run();
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        ADD_FAILURE() << where << ": no fault";
        return std::string();
    };
    sim::Machine stepM(img);
    sim::Machine blockM(img);
    blockM.setBlockProgram(core::buildBlockProgram(img));
    const std::string stepFault = faultOf(stepM);
    EXPECT_FALSE(stepFault.empty()) << where;
    EXPECT_EQ(stepFault, faultOf(blockM)) << where;
    expectStatsEqual(stepM.stats(), blockM.stats(), where);
    EXPECT_EQ(stepM.pc(), blockM.pc()) << where;
    for (int r = 0; r < 32; ++r)
        EXPECT_EQ(stepM.reg(r), blockM.reg(r)) << where << " r" << r;
    EXPECT_GE(blockM.blockInstructions(), minBlockInsns) << where;
}

TEST(BlockEngineFault, LoadInDelaySlot)
{
    // The taken bnz's slot loads from outside memory: the whole block
    // has retired, and pc stays at the slot as in step().
    const assem::Image img = buildAsm(isa::TargetInfo::dlxe(), R"(
main:
    mvhi r6, 32767
    mvi r5, 1
    bnz r5, next
    ld r7, 0(r6)
next:
    mvi r2, 0
    trap 5
)");
    compareFault(img, "ld fault in a delay slot", 4);
}

TEST(BlockEngineFault, UnknownTrapMidBlock)
{
    const assem::Image img = buildAsm(isa::TargetInfo::dlxe(), R"(
main:
    mvi r3, 1
    mvi r4, 2
    trap 99
    mvi r5, 3
    mvi r2, 0
    trap 5
)");
    compareFault(img, "unknown trap mid-block", 3);
}

TEST(BlockEngineFault, UnknownTrapInDelaySlot)
{
    const assem::Image img = buildAsm(isa::TargetInfo::dlxe(), R"(
main:
    mvi r3, 1
    bz r0, next
    trap 99
    mvi r4, 2
next:
    mvi r2, 0
    trap 5
)");
    compareFault(img, "unknown trap in a delay slot", 3);
}

TEST(BlockEngineSlot, D16NopSlotAfterLdcStallsAtDepth7)
{
    // At `back`, ldc loads at (r0) right before a jlr through another
    // register, so at depth 7 the slot's mv r0,r0 waits one cycle for
    // it. Both nop slots become Op::Nop, retired inline; `back`'s keeps
    // its hazard flags, f's has none. (The first call, through at,
    // makes f a recovered block.)
    const assem::Image img = buildAsm(isa::TargetInfo::d16(), R"(
main:
    ldc fptr
    jlr at
    mv r5, at
back:
    ldc fptr
    jlr r5
    nop
    mvi r2, 0
    trap 5
f:
    mvi r3, 1
    ret
    nop
    .align 4
fptr:
    .word f
)");
    auto blocks = core::buildBlockProgram(img);
    const auto &backBlock = blockAtLabel(*blocks, img, "back");
    ASSERT_TRUE(backBlock.hasTerm);
    EXPECT_TRUE(backBlock.slotBubble);
    EXPECT_EQ(backBlock.slot.op, isa::Op::Nop);
    EXPECT_NE(backBlock.slot.flags, 0);
    const auto &fBlock = blockAtLabel(*blocks, img, "f");
    ASSERT_TRUE(fBlock.hasTerm);
    EXPECT_TRUE(fBlock.slotBubble);
    EXPECT_EQ(fBlock.slot.op, isa::Op::Nop);
    EXPECT_EQ(fBlock.slot.flags, 0);

    for (const char *key : {"", "depth=7"}) {
        auto m = runBothAndCompare(img, std::string("ldc; jlr; nop [") +
                                            key + "]",
                                   uarchConfig(key), blocks);
        EXPECT_EQ(m->blockInstructions(), m->stats().instructions) << key;
        EXPECT_EQ(m->stats().branchBubbles, 3u) << key;
        // `jlr at` waits for its ldc: one cycle at depth 5, two at
        // depth 7, where `back`'s slot also stalls once.
        EXPECT_EQ(m->stats().loadInterlocks, *key ? 3u : 1u) << key;
    }
}

TEST(BlockEngineSink, DLXeWritesToR0AreDiscarded)
{
    // Writes of DLXe r0 by an ALU op, a load, a compare and an FPR
    // half move go to the block engine's sink entry: r0 still reads as
    // zero afterwards, in the same block and the next one.
    const assem::Image img = buildAsm(isa::TargetInfo::dlxe(), R"(
main:
    mvi r3, 5
    add r0, r3, r3
    add r4, r0, r3
    ld r0, 0(gp)
    add r5, r0, r0
    cmp.lt r0, r0, r3
    add r6, r0, r3
    mif.l f2, r3
    mfi.l r0, f2
    bz r0, next
    add r7, r0, r3
next:
    st r0, 4(gp)
    ld r8, 4(gp)
    mvi r2, 0
    trap 5
    .data
w:  .word 1234
    .word 99
)");
    auto m = runBothAndCompare(img, "r0 writes");
    EXPECT_EQ(m->blockInstructions(), m->stats().instructions);
    EXPECT_EQ(m->reg(0), 0u);
    EXPECT_EQ(m->reg(4), 5u);
    EXPECT_EQ(m->reg(5), 0u);
    EXPECT_EQ(m->reg(6), 5u);
    EXPECT_EQ(m->reg(7), 5u);
    EXPECT_EQ(m->reg(8), 0u);
    EXPECT_EQ(m->stats().takenBranches, 1u);
}

TEST(BlockEngineChain, StaticBranchToNeedsStepBlock)
{
    // `tail` ends the text with a transfer that has no delay slot, so
    // the translator marks it NeedsStep and the j into it stays
    // unchained: dispatch must hand `tail` to step().
    const isa::TargetInfo &t = isa::TargetInfo::dlxe();
    const assem::Image img = buildAsm(t, R"(
main:
    mvi r2, 3
    j tail
    mvi r3, 4
tail:
    mvi r1, 0
    jr r1
)");
    auto blocks = core::buildBlockProgram(img);
    EXPECT_TRUE(blockAtLabel(*blocks, img, "tail").needsStep);
    EXPECT_EQ(blockAtLabel(*blocks, img, "main").takenId, -1);

    auto m = runBothAndCompare(img, "j to NeedsStep block", {}, blocks);
    EXPECT_TRUE(m->halted());
    EXPECT_EQ(m->reg(2), 3u);
    EXPECT_EQ(m->reg(3), 4u);
    EXPECT_EQ(m->blockInstructions(), 3u);
    EXPECT_EQ(m->stats().instructions, 5u);
}

TEST(BlockEngineChain, ReturnToHaltSentinel)
{
    // Linked at text base 0, so pc 0 — the halt sentinel — is also a
    // block start. After a chained call and a register return, `j
    // zero` must halt as in step(), not chain into the block there.
    const isa::TargetInfo &t = isa::TargetInfo::dlxe();
    assem::Assembler as(t);
    as.add(assem::parseAsm(t, R"(
zero:
    mvi r9, 1
    mvi r2, 1
    trap 5
main:
    jl f
    nop
back:
    mvi r2, 7
    j zero
    mvi r3, 5
f:
    addi r4, r4, 1
    jr r1
    nop
)"));
    const assem::Image img = as.link(0);
    auto blocks = core::buildBlockProgram(img);
    ASSERT_EQ(img.symbols.at("zero"), 0u);
    EXPECT_GE(blocks->blockAt(0), 0);
    EXPECT_EQ(blockAtLabel(*blocks, img, "main").takenId,
              blocks->blockAt(img.symbols.at("f")));
    EXPECT_EQ(blockAtLabel(*blocks, img, "back").takenId, -1);

    auto m = runBothAndCompare(img, "static branch to pc 0", {}, blocks);
    EXPECT_TRUE(m->halted());
    EXPECT_EQ(m->pc(), 0u);
    EXPECT_EQ(m->reg(2), 7u);
    EXPECT_EQ(m->reg(3), 5u);
    EXPECT_EQ(m->reg(4), 1u);
    EXPECT_EQ(m->reg(9), 0u);
    EXPECT_EQ(m->blockInstructions(), m->stats().instructions);
}

} // namespace
