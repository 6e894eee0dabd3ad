/**
 * @file
 * Every-op hazard gate for the shared issue-slot table (sim::issueSlot).
 *
 * One hand-assembled program per target executes every op the target
 * decodes, and every op that reads a register reads one still in
 * flight: a GPR straight from a load, an FPR or the status word from a
 * long FP op, and store data under the forwarding bypass; two-source
 * ops do so once per source. Compiled workloads never reach some ops
 * (codegen emits no jrz/jrnz), so this is the only gate on their
 * entries. At each capture slice (forwarding off/on x depth 5/7) the
 * table's three readers must agree with Machine::execute, the
 * hand-written reference:
 *
 *  (a) replayTiming() of the default machine's trace equals a capture
 *      at the slice;
 *  (b) block dispatch equals step();
 *  (c) the static timing analyzer cross-validates with zero findings.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "analysis/timing.hh"
#include "asm/assembler.hh"
#include "asm/parser.hh"
#include "core/replay/replay.hh"
#include "core/sweep/sweep.hh"
#include "core/toolchain.hh"
#include "sim/machine.hh"

namespace
{

using namespace d16sim;
using isa::Op;

/** D16: two-address ALU and FP ops, r0 the implicit compare/test
 *  register, ldc from an in-text pool. */
constexpr const char *kD16 = R"(
    .align 4
pool:
    .word 1
main:
    ld r5, 4(gp)        ; ready operands: r5 = 2, r7 = &buf
    ld r7, 8(gp)
    mvi r6, 0
    ld r3, 0(gp)        ; each op reads r3 (= 1) straight from a load
    add r3, r5
    ld r3, 0(gp)
    add r6, r3
    ld r3, 0(gp)
    sub r3, r5
    ld r3, 0(gp)
    sub r6, r3
    ld r3, 0(gp)
    and r3, r5
    ld r3, 0(gp)
    and r6, r3
    ld r3, 0(gp)
    or r3, r5
    ld r3, 0(gp)
    or r6, r3
    ld r3, 0(gp)
    xor r3, r5
    ld r3, 0(gp)
    xor r6, r3
    ld r3, 0(gp)
    shl r3, r5
    ld r3, 0(gp)
    shl r6, r3
    ld r3, 0(gp)
    shr r3, r5
    ld r3, 0(gp)
    shr r6, r3
    ld r3, 0(gp)
    shra r3, r5
    ld r3, 0(gp)
    shra r6, r3
    ld r3, 0(gp)
    cmp.lt r3, r5
    ld r3, 0(gp)
    cmp.ne r5, r3
    ld r3, 0(gp)
    neg r6, r3
    ld r3, 0(gp)
    inv r6, r3
    ld r3, 0(gp)
    mv r6, r3
    ld r3, 0(gp)
    addi r3, 1
    ld r3, 0(gp)
    subi r3, 1
    ld r3, 0(gp)
    shli r3, 1
    ld r3, 0(gp)
    shri r3, 1
    ld r3, 0(gp)
    shrai r3, 1
    ld r3, 0(gp)
    mif.l f4, r3
    ld r3, 0(gp)
    mif.h f4, r3
    ld r3, 0(gp)        ; store data (the bypass under fwd=on)
    st r3, 0(r7)
    ld r3, 0(gp)
    sth r3, 0(r7)
    ld r3, 0(gp)
    stb r3, 0(r7)
    ld r3, 8(gp)        ; addresses: r3 = &buf
    st r5, 0(r3)
    ld r3, 8(gp)
    sth r5, 0(r3)
    ld r3, 8(gp)
    stb r5, 0(r3)
    ld r3, 8(gp)
    ld r6, 0(r3)
    ld r3, 8(gp)
    ldh r6, 0(r3)
    ld r3, 8(gp)
    ldhu r6, 0(r3)
    ld r3, 8(gp)
    ldb r6, 0(r3)
    ld r3, 8(gp)
    ldbu r6, 0(r3)
    ld r2, 0(gp)
    trap 1              ; prints r2
    ldc pool            ; control flow: r0 (tested) or r3 (a target)
    bz b1
    nop
b1: ld r0, 0(gp)
    bnz b2
    nop
b2: br b3
    nop
b3: ld r3, 12(gp)
    jlr r3
    nop
    ld r3, 16(gp)
    jr r3
    nop
j1: ld r3, 20(gp)
    jrz r3
    nop
j2: ld r4, 24(gp)
    mvi r6, 0
    ld r0, 0(gp)
    jrz r4
    nop
j3: ld r3, 28(gp)
    jrnz r3
    nop
j4: ld r4, 32(gp)
    mvi r6, 0
    ld r0, 0(gp)
    jrnz r4
    nop
j5: mvi r8, 3           ; FP operands: f1 = 3.0, f2 = 2.0, f11/f12 singles
    mif.l f1, r8
    si2df f1, f1
    mvi r8, 2
    mif.l f2, r8
    si2df f2, f2
    df2sf f11, f1
    df2sf f12, f2
    fmv f4, f2
    fmv f3, f1          ; each consumer reads f3 (or f13) from a mul
    mul.df f3, f2
    add.df f3, f2
    mul.df f3, f2
    add.df f4, f3
    mul.df f3, f2
    sub.df f3, f2
    mul.df f3, f2
    sub.df f4, f3
    mul.df f3, f2
    mul.df f3, f2
    mul.df f3, f2
    mul.df f4, f3
    mul.df f3, f2
    div.df f3, f2
    mul.df f3, f2
    div.df f4, f3
    mul.df f3, f2
    neg.df f4, f3
    mul.df f3, f2
    fmv f4, f3
    mul.df f3, f2
    cmp.lt.df f3, f2
    mul.df f3, f2
    cmp.le.df f2, f3
    rdsr r6             ; the status word from the compare
    mul.df f3, f2
    df2sf f4, f3
    mul.df f3, f2
    df2si f4, f3
    mul.df f3, f2
    mfi.l r6, f3
    mul.df f3, f2
    mfi.h r6, f3
    mul.df f3, f2
    mif.l f3, r5        ; the kept half
    mul.df f3, f2
    mif.h f3, r5
    fmv f4, f12
    fmv f13, f11
    mul.sf f13, f12
    add.sf f13, f12
    mul.sf f13, f12
    add.sf f4, f13
    mul.sf f13, f12
    sub.sf f13, f12
    mul.sf f13, f12
    sub.sf f4, f13
    mul.sf f13, f12
    mul.sf f13, f12
    mul.sf f13, f12
    mul.sf f4, f13
    mul.sf f13, f12
    div.sf f13, f12
    mul.sf f13, f12
    div.sf f4, f13
    mul.sf f13, f12
    neg.sf f4, f13
    mul.sf f13, f12
    cmp.eq.sf f13, f12
    mul.sf f13, f12
    cmp.lt.sf f12, f13
    mul.sf f13, f12
    sf2df f4, f13
    mul.sf f13, f12
    sf2si f4, f13
    df2si f5, f1
    si2sf f4, f5
    df2si f5, f1
    si2df f4, f5
    mvi r2, 0
    trap 5
f:  ret
    nop
    .data
    .word 1, 2, buf, f, j1, j2, j3, j4, j5
buf:
    .word 0, 0
)";

/** DLXe: three-address forms, r0 reads as zero, plus the DLXe-only
 *  immediate logicals, cmpi, mvhi, j and jl. */
constexpr const char *kDLXe = R"(
main:
    ld r5, 4(gp)        ; ready operands: r5 = 2, r7 = &buf
    ld r7, 8(gp)
    mvi r6, 0
    ld r3, 0(gp)        ; each op reads r3 (= 1) straight from a load
    add r6, r3, r5
    ld r3, 0(gp)
    add r6, r5, r3
    ld r3, 0(gp)
    sub r6, r3, r5
    ld r3, 0(gp)
    sub r6, r5, r3
    ld r3, 0(gp)
    and r6, r3, r5
    ld r3, 0(gp)
    and r6, r5, r3
    ld r3, 0(gp)
    or r6, r3, r5
    ld r3, 0(gp)
    or r6, r5, r3
    ld r3, 0(gp)
    xor r6, r3, r5
    ld r3, 0(gp)
    xor r6, r5, r3
    ld r3, 0(gp)
    shl r6, r3, r5
    ld r3, 0(gp)
    shl r6, r5, r3
    ld r3, 0(gp)
    shr r6, r3, r5
    ld r3, 0(gp)
    shr r6, r5, r3
    ld r3, 0(gp)
    shra r6, r3, r5
    ld r3, 0(gp)
    shra r6, r5, r3
    ld r3, 0(gp)
    cmp.lt r6, r3, r5
    ld r3, 0(gp)
    cmp.ne r6, r5, r3
    ld r3, 0(gp)
    neg r6, r3
    ld r3, 0(gp)
    inv r6, r3
    ld r3, 0(gp)
    mv r6, r3
    ld r3, 0(gp)
    addi r6, r3, 1
    ld r3, 0(gp)
    subi r6, r3, 1
    ld r3, 0(gp)
    andi r6, r3, 1
    ld r3, 0(gp)
    ori r6, r3, 1
    ld r3, 0(gp)
    xori r6, r3, 1
    ld r3, 0(gp)
    shli r6, r3, 1
    ld r3, 0(gp)
    shri r6, r3, 1
    ld r3, 0(gp)
    shrai r6, r3, 1
    ld r3, 0(gp)
    cmpi.lt r6, r3, 4
    mvhi r6, 1
    ld r3, 0(gp)
    mif.l f4, r3
    ld r3, 0(gp)
    mif.h f4, r3
    ld r3, 0(gp)        ; store data (the bypass under fwd=on)
    st r3, 0(r7)
    ld r3, 0(gp)
    sth r3, 4(r7)
    ld r3, 0(gp)
    stb r3, 6(r7)
    ld r3, 8(gp)        ; addresses: r3 = &buf
    st r5, 0(r3)
    ld r3, 8(gp)
    sth r5, 4(r3)
    ld r3, 8(gp)
    stb r5, 6(r3)
    ld r3, 8(gp)
    ld r6, 0(r3)
    ld r3, 8(gp)
    ldh r6, 4(r3)
    ld r3, 8(gp)
    ldhu r6, 4(r3)
    ld r3, 8(gp)
    ldb r6, 6(r3)
    ld r3, 8(gp)
    ldbu r6, 6(r3)
    ld r2, 0(gp)
    trap 1              ; prints r2
    ld r3, 0(gp)        ; control flow: r3 tested, or a target
    bz r3, b1
    nop
b1: ld r3, 0(gp)
    bnz r3, b2
    nop
b2: br b3
    nop
b3: j b4
    nop
b4: jl f
    nop
    ld r3, 12(gp)
    jlr r3
    nop
    ld r3, 16(gp)
    jr r3
    nop
j1: ld r3, 20(gp)
    jrz r3, r5
    nop
j2: ld r4, 24(gp)
    mvi r6, 0
    ld r3, 0(gp)
    jrz r4, r3
    nop
j3: ld r3, 28(gp)
    jrnz r3, r5
    nop
j4: ld r4, 32(gp)
    mvi r6, 0
    ld r3, 0(gp)
    jrnz r4, r3
    nop
j5: mvi r8, 3           ; FP operands: f1 = 3.0, f2 = 2.0, f11/f12 singles
    mif.l f1, r8
    si2df f1, f1
    mvi r8, 2
    mif.l f2, r8
    si2df f2, f2
    df2sf f11, f1
    df2sf f12, f2
    mul.df f3, f1, f2   ; each consumer reads f3 (or f13) from a mul
    add.df f4, f3, f2
    mul.df f3, f1, f2
    add.df f4, f2, f3
    mul.df f3, f1, f2
    sub.df f4, f3, f2
    mul.df f3, f1, f2
    sub.df f4, f2, f3
    mul.df f3, f1, f2
    mul.df f4, f3, f2
    mul.df f3, f1, f2
    mul.df f4, f2, f3
    mul.df f3, f1, f2
    div.df f4, f3, f2
    mul.df f3, f1, f2
    div.df f4, f2, f3
    mul.df f3, f1, f2
    neg.df f4, f3
    mul.df f3, f1, f2
    fmv f4, f3
    mul.df f3, f1, f2
    cmp.lt.df f3, f2
    mul.df f3, f1, f2
    cmp.le.df f2, f3
    rdsr r6             ; the status word from the compare
    mul.df f3, f1, f2
    df2sf f4, f3
    mul.df f3, f1, f2
    df2si f4, f3
    mul.df f3, f1, f2
    mfi.l r6, f3
    mul.df f3, f1, f2
    mfi.h r6, f3
    mul.df f3, f1, f2
    mif.l f3, r5        ; the kept half
    mul.df f3, f1, f2
    mif.h f3, r5
    mul.sf f13, f11, f12
    add.sf f4, f13, f12
    mul.sf f13, f11, f12
    add.sf f4, f12, f13
    mul.sf f13, f11, f12
    sub.sf f4, f13, f12
    mul.sf f13, f11, f12
    sub.sf f4, f12, f13
    mul.sf f13, f11, f12
    mul.sf f4, f13, f12
    mul.sf f13, f11, f12
    mul.sf f4, f12, f13
    mul.sf f13, f11, f12
    div.sf f4, f13, f12
    mul.sf f13, f11, f12
    div.sf f4, f12, f13
    mul.sf f13, f11, f12
    neg.sf f4, f13
    mul.sf f13, f11, f12
    cmp.eq.sf f13, f12
    mul.sf f13, f11, f12
    cmp.lt.sf f12, f13
    mul.sf f13, f11, f12
    sf2df f4, f13
    mul.sf f13, f11, f12
    sf2si f4, f13
    df2si f5, f1
    si2sf f4, f5
    df2si f5, f1
    si2df f4, f5
    mvi r2, 0
    trap 5
f:  ret
    nop
    .data
    .word 1, 2, buf, f, j1, j2, j3, j4, j5
buf:
    .word 0, 0
)";

/** The ops the target's decoder produces: Nop is assembler-level
 *  only, and DLXe encodes mvi as addi from r0. */
bool
decodes(const isa::TargetInfo &t, Op op)
{
    if (op == Op::Nop)
        return false;
    return t.kind() == isa::IsaKind::D16
               ? !isa::isDLXeOnly(op)
               : !isa::isD16Only(op) && op != Op::MvI;
}

/** Ops that read no register, so cannot interlock. */
bool
readsNothing(Op op)
{
    return op == Op::MvI || op == Op::MvHI || op == Op::Ldc ||
           op == Op::Br || op == Op::J || op == Op::Jl;
}

void
checkEveryOp(const isa::TargetInfo &t, const char *src)
{
    assem::Assembler as(t);
    as.add(assem::parseAsm(t, src));
    const assem::Image image = as.link();
    const auto text = std::make_shared<const sim::DecodedText>(image);
    const auto blocks = core::buildBlockProgram(image, text);
    const core::replay::TimingTable table(image, *text);
    const core::replay::Trace trace = core::replay::capture(image, text);
    ASSERT_TRUE(core::replay::timingReplayable(trace, table));

    // The program covers the target: every op it decodes executes, and
    // every one that reads a register stalls on it (default machine).
    sim::Machine profiled(image);
    const analysis::PcProfile coverage = analysis::profileRun(profiled);
    ASSERT_TRUE(profiled.halted());
    std::map<Op, uint64_t> stalls;
    for (const auto &[pc, s] : coverage.sites)
        stalls[text->at((pc - text->base()) >> text->insnShift()).op] +=
            s.loadStall + s.fpStall;
    for (int i = 0; i < isa::numOps; ++i) {
        const Op op = static_cast<Op>(i);
        if (!decodes(t, op))
            continue;
        EXPECT_TRUE(stalls.count(op)) << opName(op) << " never executes";
        if (!readsNothing(op)) {
            EXPECT_GT(stalls[op], 0u) << opName(op) << " never interlocks";
        }
    }

    const analysis::ImageCfg cfg = analysis::buildCfg(image);
    for (const char *key : {"", "fwd=on", "depth=7", "fwd=on,depth=7"}) {
        sim::MachineConfig config;
        if (*key)
            config.uarch = core::sweep::parseUarch(key);
        const std::string where = std::string(t.name()) + " [" + key + "]";

        // (a) Retimed from the default trace == captured at the slice.
        const core::RunMeasurement direct = core::run(image, {}, config);
        const core::replay::TimingReplayStats timed =
            core::replay::replayTiming(trace, table, config.uarch);
        const core::RunMeasurement replayed =
            core::replay::replayRun(trace, config.uarch, &timed);
        EXPECT_TRUE(replayed.stats == direct.stats) << where;
        EXPECT_EQ(timed.loadInterlocks, direct.stats.loadInterlocks) << where;
        EXPECT_EQ(timed.fpInterlocks, direct.stats.fpInterlocks) << where;
        EXPECT_EQ(timed.fwdSavedStalls, direct.stats.fwdSavedStalls)
            << where;

        // (b) Block dispatch == step().
        sim::Machine stepped(image, config);
        stepped.run();
        sim::Machine blocked(image, config);
        blocked.setBlockProgram(blocks);
        blocked.run();
        EXPECT_TRUE(stepped.stats() == blocked.stats()) << where;
        EXPECT_EQ(stepped.output(), blocked.output()) << where;
        EXPECT_TRUE(stepped.stats() == direct.stats) << where;
        EXPECT_GT(blocked.blockInstructions() * 2,
                  blocked.stats().instructions)
            << where << ": most of the program should dispatch on blocks";

        // (c) The static analyzer agrees with the machine.
        analysis::TimingOptions opts;
        opts.uarch = config.uarch;
        opts.siteDiags = false;
        verify::DiagEngine diags;
        const analysis::TimingResult timing =
            analysis::analyzeTiming(cfg, diags, opts);
        sim::Machine m(image, config);
        const analysis::PcProfile profile = analysis::profileRun(m);
        verify::DiagEngine xval;
        EXPECT_EQ(analysis::crossValidateTiming(timing, profile, m.stats(),
                                                xval),
                  0)
            << where << "\n" << [&] {
                   std::ostringstream os;
                   xval.renderText(os);
                   return os.str();
               }();
    }
}

TEST(IssueSlot, EveryOpInterlocksAlikeD16)
{
    checkEveryOp(isa::TargetInfo::d16(), kD16);
}

TEST(IssueSlot, EveryOpInterlocksAlikeDLXe)
{
    checkEveryOp(isa::TargetInfo::dlxe(), kDLXe);
}

} // namespace
