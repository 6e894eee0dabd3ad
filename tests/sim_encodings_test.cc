/**
 * @file
 * Exhaustive raw-encoding replay.
 *
 * A program can jump into in-text pool data (or clobber its own
 * return address) and end up executing arbitrary words through
 * Machine::decoded()'s raw-word fallback.  Whatever those words hold,
 * the simulator must either execute them or reject them with a
 * diagnosis (FatalError); an internal-invariant crash (PanicError)
 * means a reachable hole in the decode/execute surface.
 *
 * D16's 16-bit space is replayed exhaustively (all 65536 words);
 * DLXe's 32-bit space is sampled deterministically.  Each word is
 * replayed three times per position: through the raw-word fallback (no
 * predecoded sites), through the predecode table, and through the
 * block-compiled threaded-code engine (a hand-built BlockTable claiming
 * the whole text), which must all behave identically — the block replay
 * additionally requires bit-equal stats and architectural state against
 * the predecoded step replay, on the paper's machine and on the
 * forwarding + bimodal + depth-7 one.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>

#include "asm/image.hh"
#include "isa/target.hh"
#include "sim/block_engine.hh"
#include "sim/machine.hh"
#include "sim/predecode.hh"
#include "support/error.hh"

namespace
{

using namespace d16sim;

/** A text section of `count` copies of `word`, no insnSites, so every
 *  fetch goes through the raw-word fallback.  Repeating the word makes
 *  a taken branch execute the same word again in its delay slot. */
assem::Image
rawImage(const isa::TargetInfo &target, uint32_t word, int count)
{
    assem::Image img;
    img.target = &target;
    img.textBase = 0x100;
    const int ib = target.insnBytes();
    for (int i = 0; i < count; ++i)
        for (int b = 0; b < ib; ++b)
            img.bytes.push_back(
                static_cast<uint8_t>((word >> (8 * b)) & 0xff));
    img.textSize = static_cast<uint32_t>(img.bytes.size());
    img.textInsns = 0;
    img.dataBase = img.textBase + img.textSize;
    img.dataSize = 0;
    img.entry = img.textBase;
    return img;
}

/** Same image but with insnSites, so Machine predecodes each slot. */
assem::Image
sitedImage(const isa::TargetInfo &target, uint32_t word, int count)
{
    assem::Image img = rawImage(target, word, count);
    img.textInsns = static_cast<uint32_t>(count);
    const int ib = target.insnBytes();
    for (int i = 0; i < count; ++i)
        img.insnSites.push_back(
            {img.textBase + static_cast<uint32_t>(i * ib), 0});
    return img;
}

enum class Verdict
{
    Ran,    //!< executed to halt or ran out of budget without error
    Fatal,  //!< rejected with a diagnosis — acceptable
    Panic,  //!< internal crash — never acceptable
};

/** Architectural + measurement state after a replay, for differential
 *  comparison between the step and block dispatch paths. */
struct Outcome
{
    Verdict verdict = Verdict::Ran;
    sim::SimStats stats;
    std::string output;
    uint32_t pc = 0;
    std::array<uint32_t, 16> regs{};

    bool
    operator==(const Outcome &o) const
    {
        return verdict == o.verdict && stats == o.stats &&
               output == o.output && pc == o.pc && regs == o.regs;
    }
};

/** The paper's machine, or with `uarchRules` every axis off the
 *  baseline (fwd=on,bp=bimodal6,depth=7). */
sim::MachineConfig
replayConfig(bool uarchRules = false)
{
    sim::MachineConfig cfg;
    cfg.memBytes = 1u << 16;
    cfg.maxInstructions = 16;
    if (uarchRules) {
        cfg.uarch.forward = true;
        cfg.uarch.branch = sim::BranchPolicy::Bimodal;
        cfg.uarch.bhtLog2 = 6;
        cfg.uarch.depth = 7;
    }
    return cfg;
}

void
snapshot(const sim::Machine &m, Outcome *out)
{
    out->stats = m.stats();
    out->output = m.output();
    out->pc = m.pc();
    for (int r = 0; r < 16; ++r)
        out->regs[static_cast<size_t>(r)] = m.reg(r);
}

Verdict
replay(const assem::Image &img, std::string *why, Outcome *out = nullptr,
       const sim::MachineConfig &config = replayConfig())
{
    try {
        sim::Machine m(img, config);
        try {
            m.run();
        } catch (...) {
            if (out)
                snapshot(m, out);
            throw;
        }
        if (out)
            snapshot(m, out);
        return Verdict::Ran;
    } catch (const PanicError &e) {
        *why = e.what();
        return Verdict::Panic;
    } catch (const FatalError &e) {
        *why = e.what();
        return Verdict::Fatal;
    }
}

/** Replay through the block engine with a hand-built BlockTable that
 *  claims the whole (sited) text as one span; translation demotes
 *  whatever it cannot compile to needsStep, and dispatch falls back to
 *  step() for the rest — the outcome must match step dispatch bit for
 *  bit. */
Verdict
replayBlocks(const assem::Image &img, std::string *why, Outcome *out,
             const sim::MachineConfig &config)
{
    try {
        auto text = std::make_shared<const sim::DecodedText>(img);
        sim::BlockTable table;
        table.spans.push_back(
            {img.textBase, static_cast<uint32_t>(img.insnSites.size())});
        auto blocks = std::make_shared<const sim::BlockProgram>(
            img, *text, table);
        sim::Machine m(img, config, text);
        m.setBlockProgram(std::move(blocks));
        try {
            m.run();
        } catch (...) {
            snapshot(m, out);
            throw;
        }
        snapshot(m, out);
        return Verdict::Ran;
    } catch (const PanicError &e) {
        *why = e.what();
        return Verdict::Panic;
    } catch (const FatalError &e) {
        *why = e.what();
        return Verdict::Fatal;
    }
}

/** Replay `word` through all three dispatch paths; report any panic or
 *  any step-vs-block divergence. */
void
checkWord(const isa::TargetInfo &target, uint32_t word, int &panics,
          std::ostringstream &report)
{
    std::string why;
    if (replay(rawImage(target, word, 4), &why) == Verdict::Panic) {
        if (++panics <= 10)
            report << "  raw word " << std::hex << word << std::dec
                   << ": " << why << "\n";
        return;
    }
    const assem::Image sited = sitedImage(target, word, 4);
    for (const bool uarchRules : {false, true}) {
        const sim::MachineConfig config = replayConfig(uarchRules);
        const char *const machine = uarchRules ? " (uarch)" : "";
        Outcome step, block;
        step.verdict = replay(sited, &why, &step, config);
        if (step.verdict == Verdict::Panic) {
            if (++panics <= 10)
                report << "  sited word " << std::hex << word << std::dec
                       << machine << ": " << why << "\n";
            return;
        }
        block.verdict = replayBlocks(sited, &why, &block, config);
        if (block.verdict == Verdict::Panic) {
            if (++panics <= 10)
                report << "  block word " << std::hex << word << std::dec
                       << machine << ": " << why << "\n";
            return;
        }
        if (!(step == block)) {
            if (++panics <= 10)
                report << "  word " << std::hex << word << std::dec
                       << machine << ": step/block divergence (insns "
                       << step.stats.instructions << " vs "
                       << block.stats.instructions << ", pc " << std::hex
                       << step.pc << " vs " << block.pc << std::dec
                       << ")\n";
            return;
        }
    }
}

TEST(RawEncodings, AllD16WordsDiagnoseOrExecute)
{
    const isa::TargetInfo &d16 = isa::TargetInfo::d16();
    int panics = 0;
    std::ostringstream report;
    for (uint32_t word = 0; word <= 0xffff; ++word)
        checkWord(d16, word, panics, report);
    EXPECT_EQ(panics, 0) << report.str();
}

TEST(RawEncodings, SampledDlxeWordsDiagnoseOrExecute)
{
    // 2^32 words is out of reach; cover every value of the top opcode
    // byte crossed with a deterministic xorshift sample of operand
    // bits, plus the low 16-bit patterns (immediate corner cases).
    const isa::TargetInfo &dlxe = isa::TargetInfo::dlxe();
    int panics = 0;
    std::ostringstream report;
    uint32_t s = 0x243f6a88u;
    for (uint32_t hi = 0; hi <= 0xff; ++hi) {
        for (int i = 0; i < 64; ++i) {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            checkWord(dlxe, (hi << 24) | (s & 0x00ffffffu), panics,
                      report);
        }
        checkWord(dlxe, (hi << 24) | 0x0000ffffu, panics, report);
        checkWord(dlxe, hi << 24, panics, report);
    }
    EXPECT_EQ(panics, 0) << report.str();
}

} // namespace
