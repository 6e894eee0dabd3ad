/**
 * @file
 * Core experiment-layer tests: the fetch-buffer, cache and
 * immediate-class folds (on hand-built trace chunks and on runs), and
 * the §4 performance formulas.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/toolchain.hh"
#include "core/workloads.hh"

namespace
{

using namespace d16sim;
using namespace d16sim::core;
using mc::CompileOptions;

/** Feed `fold` one hand-built chunk of fetch runs and data accesses. */
void
feed(sim::TraceFold &fold, std::vector<sim::FetchRun> runs,
     std::vector<sim::DataAccess> accesses = {})
{
    fold.feed({runs, accesses, {}});
}

TEST(FetchBuffer, CountsAlignedBlockRequests)
{
    FetchBufferProbe fb(8, 4);  // 64-bit bus
    // Two fetches in the same 8-byte block: one request.
    feed(fb, {{0x1000, 2}});
    EXPECT_EQ(fb.requests(), 1u);
    // Next block.
    feed(fb, {{0x1008, 1}});
    EXPECT_EQ(fb.requests(), 2u);
    // Branch backwards out of the buffer: refetch.
    feed(fb, {{0x1000, 1}});
    EXPECT_EQ(fb.requests(), 3u);
    // Words = requests * busWords.
    EXPECT_EQ(fb.words(), 6u);
}

TEST(FetchBuffer, D16PacksTwicePerBlock)
{
    FetchBufferProbe fb(4, 2);
    // Two 16-bit instructions share a 32-bit word.
    feed(fb, {{0x1000, 3}});
    EXPECT_EQ(fb.requests(), 2u);
}

TEST(FetchBuffer, SequentialRunContinuesAcrossChunks)
{
    // The buffered block carries from one chunk to the next: a run
    // that picks up where the last chunk's run stopped inside the same
    // 16-byte block issues no new request.
    FetchBufferProbe fb(16, 4);
    feed(fb, {{0x1000, 1}, {0x1020, 2}});
    EXPECT_EQ(fb.requests(), 2u);
    feed(fb, {{0x1028, 3}});  // 0x1028, 0x102c, then 0x1030
    EXPECT_EQ(fb.requests(), 3u);
}

TEST(PerfFormulas, MatchPaperDefinitions)
{
    sim::SimStats s;
    s.instructions = 1000;
    s.loadInterlocks = 40;
    s.fpInterlocks = 10;
    s.loads = 100;
    s.stores = 50;
    // Cycles = IC + Interlocks + l*(Ireq + Dreq)
    EXPECT_EQ(cyclesNoCache(s, 0, 600), 1050u);
    EXPECT_EQ(cyclesNoCache(s, 2, 600), 1050u + 2 * (600 + 150));
    // Cycles = IC + Interlocks + penalty*(misses)
    mem::CacheStats ic, dc;
    ic.readMisses = 20;
    dc.readMisses = 5;
    dc.writeMisses = 5;
    EXPECT_EQ(cyclesWithCache(s, 4, ic, dc), 1050u + 4 * 30);
}

TEST(ImmediateClassifier, FlagsD16IllegalImmediates)
{
    using Class = ImmediateClassProbe::Class;
    const auto classOf = [](isa::Op op, int32_t imm) {
        isa::DecodedInst i;
        i.op = op;
        i.imm = imm;
        return ImmediateClassProbe::classify(i);
    };
    // addi within 5-bit unsigned: legal on D16.
    EXPECT_EQ(classOf(isa::Op::AddI, 31), Class::Fits);
    // addi 100: exceeds D16's 5 bits.
    EXPECT_EQ(classOf(isa::Op::AddI, 100), Class::AluImmediate);
    // addi -3 == subi 3: legal.
    EXPECT_EQ(classOf(isa::Op::AddI, -3), Class::Fits);
    // cmpi: never available on D16.
    EXPECT_EQ(classOf(isa::Op::CmpI, 1), Class::CmpImmediate);
    // ld with offset 200: not expressible.
    EXPECT_EQ(classOf(isa::Op::Ld, 200), Class::MemDisplacement);
    // ld offset 64: expressible.
    EXPECT_EQ(classOf(isa::Op::Ld, 64), Class::Fits);
    // ldb with any offset: not expressible.
    EXPECT_EQ(classOf(isa::Op::Ldb, 4), Class::MemDisplacement);
}

TEST(ImmediateClassifier, CountsFetchRunsBySite)
{
    // The fold counts each run's sites by class; the sum over a run is
    // the per-site sum whatever the run's length or chunk.
    const char *src = R"(
int v[100];
int main() { v[99] = 7; print_int(v[99] + 1000); return 0; }
)";
    const auto img = build(src, CompileOptions::dlxe(16, false));
    const sim::DecodedText text(img);
    std::array<uint64_t, 4> want{};
    for (uint32_t i = 0; i < text.size(); ++i)
        if (text.valid(i))
            ++want[static_cast<size_t>(
                ImmediateClassProbe::classify(text.at(i)))];

    ImmediateClassProbe whole(text), split(text);
    feed(whole, {{text.base(), text.size()}});
    const uint32_t half = text.size() / 2;
    feed(split, {{text.base(), half}});
    feed(split, {{text.base() + half * 4, text.size() - half}});
    for (const ImmediateClassProbe *p : {&whole, &split}) {
        EXPECT_EQ(p->total(), text.size());
        EXPECT_EQ(p->cmpImmediate(), want[1]);
        EXPECT_EQ(p->aluImmediate(), want[2]);
        EXPECT_EQ(p->memDisplacement(), want[3]);
    }
    EXPECT_GT(want[2] + want[3], 0u);
    EXPECT_NEAR(whole.pct(whole.total()), 100.0, 1e-9);
}

TEST(CacheProbe, RoutesStreams)
{
    mem::CacheConfig cfg;
    cfg.sizeBytes = 1024;
    CacheProbe p(cfg, cfg, 2);
    feed(p, {{0x1000, 2}}, {{0x2000, 4, false}, {0x2004, 4, true}});
    EXPECT_EQ(p.icache().stats().reads, 2u);
    EXPECT_EQ(p.icache().stats().readMisses, 1u);  // same block
    EXPECT_EQ(p.dcache().stats().reads, 1u);
    EXPECT_EQ(p.dcache().stats().writes, 1u);
    // The next chunk's sequential run continues in the same I-block.
    feed(p, {{0x1004, 2}}, {{0x2008, 4, false}});
    EXPECT_EQ(p.icache().stats().reads, 4u);
    EXPECT_EQ(p.icache().stats().readMisses, 1u);
    EXPECT_EQ(p.dcache().stats().reads, 2u);
}

TEST(Toolchain, BuildRunRoundTrip)
{
    const char *src = R"(
int main() { print_int(6 * 7); return 0; }
)";
    const auto img = build(src, CompileOptions::d16());
    EXPECT_GT(img.textInsns, 0u);
    FetchBufferProbe fb(4, img.target->insnBytes());
    const auto m = run(img, &fb);
    EXPECT_EQ(m.output, "42");
    EXPECT_GT(fb.requests(), 0u);
    EXPECT_LE(fb.requests(), m.stats.instructions);
}

TEST(Toolchain, CacheRunAgreesWithPlainRun)
{
    const char *src = R"(
int v[64];
int main() {
    int i, s = 0;
    for (i = 0; i < 64; i++) v[i] = i;
    for (i = 0; i < 64; i++) s += v[i];
    print_int(s);
    return 0;
}
)";
    const auto img = build(src, CompileOptions::dlxe());
    mem::CacheConfig cfg;
    cfg.sizeBytes = 1024;
    CacheProbe probe(cfg, cfg, img.target->insnBytes());
    const auto m1 = run(img);
    const auto m2 = run(img, &probe);
    // Observing the streams must not perturb execution.
    EXPECT_EQ(m1.output, m2.output);
    EXPECT_EQ(m1.stats.instructions, m2.stats.instructions);
    // All loads/stores reached the D-cache.
    EXPECT_EQ(probe.dcache().stats().accesses(), m2.stats.memOps());
    // All instruction fetches reached the I-cache.
    EXPECT_EQ(probe.icache().stats().reads, m2.stats.instructions);
}

TEST(Toolchain, NormalizedCpiCrossoverWithWaitStates)
{
    // The paper's central crossover (Fig. 14): at zero wait states
    // DLXe wins; with wait states on a 32-bit bus, D16 catches up or
    // wins. Measured on a fetch-heavy workload.
    const auto &w = workload("towers");
    const auto imgD = build(w.source, CompileOptions::d16());
    const auto imgX = build(w.source, CompileOptions::dlxe());
    FetchBufferProbe fbD(4, 2), fbX(4, 4);
    const auto mD = run(imgD, &fbD);
    const auto mX = run(imgX, &fbX);

    const uint64_t d0 = cyclesNoCache(mD.stats, 0, fbD.requests());
    const uint64_t x0 = cyclesNoCache(mX.stats, 0, fbX.requests());
    const uint64_t d3 = cyclesNoCache(mD.stats, 3, fbD.requests());
    const uint64_t x3 = cyclesNoCache(mX.stats, 3, fbX.requests());
    EXPECT_LT(x0, d0);  // zero latency: fewer instructions wins
    EXPECT_LT(d3, x3);  // three wait states: lower traffic wins
}

} // namespace
