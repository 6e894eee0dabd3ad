/**
 * @file
 * Pipeline-model tests: execution semantics, delay slots, interlock
 * timing (hand-computed cycle counts), traps, and both encodings
 * end-to-end through the assembler.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "asm/parser.hh"
#include "sim/machine.hh"
#include "sim/trap.hh"
#include "support/error.hh"

namespace
{

using namespace d16sim;
using namespace d16sim::assem;
using namespace d16sim::isa;
using namespace d16sim::sim;

Image
build(const TargetInfo &t, std::string_view src)
{
    Assembler as(t);
    as.add(parseAsm(t, src));
    return as.link();
}

/** Run a program to halt and return the machine for inspection. */
std::unique_ptr<Machine>
runProgram(const TargetInfo &t, std::string_view src)
{
    auto m = std::make_unique<Machine>(build(t, src));
    m->run();
    return m;
}

TEST(Machine, InitialState)
{
    const Image img = build(TargetInfo::dlxe(), "main:\n  ret\n  nop\n");
    Machine m(img);
    EXPECT_EQ(m.pc(), img.entry);
    EXPECT_EQ(m.reg(31), m.memory().size());  // sp at top
    EXPECT_EQ(m.reg(30), img.dataBase);       // gp at data
    EXPECT_EQ(m.reg(1), 0u);                  // ra = halt sentinel
}

TEST(Machine, HaltViaReturn)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    mvi r2, 7
    ret
    nop
)");
    EXPECT_TRUE(m->halted());
    EXPECT_EQ(m->reg(2), 7u);
    EXPECT_EQ(m->stats().instructions, 3u);
}

TEST(Machine, HaltViaTrap)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    mvi r2, 3
    trap 5
)");
    EXPECT_TRUE(m->halted());
    EXPECT_EQ(m->stats().traps, 1u);
}

TEST(Machine, ArithmeticDLXe)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    mvi r2, 100
    mvi r3, 7
    add r4, r2, r3
    sub r5, r2, r3
    and r6, r2, r3
    or r7, r2, r3
    xor r8, r2, r3
    mvi r9, 2
    shl r10, r2, r9
    shr r11, r2, r9
    mvi r12, -100
    shra r13, r12, r9
    neg r14, r3
    inv r15, r3
    ret
    nop
)");
    EXPECT_EQ(m->reg(4), 107u);
    EXPECT_EQ(m->reg(5), 93u);
    EXPECT_EQ(m->reg(6), 100u & 7u);
    EXPECT_EQ(m->reg(7), 100u | 7u);
    EXPECT_EQ(m->reg(8), 100u ^ 7u);
    EXPECT_EQ(m->reg(10), 400u);
    EXPECT_EQ(m->reg(11), 25u);
    EXPECT_EQ(static_cast<int32_t>(m->reg(13)), -25);
    EXPECT_EQ(static_cast<int32_t>(m->reg(14)), -7);
    EXPECT_EQ(m->reg(15), ~7u);
}

TEST(Machine, TwoAddressD16)
{
    auto m = runProgram(TargetInfo::d16(), R"(
main:
    mvi r2, 10
    mvi r3, 3
    add r2, r3       ; r2 = 13
    sub r2, r3       ; r2 = 10
    shli r2, 2       ; r2 = 40
    addi r2, 2       ; r2 = 42
    ret
    nop
)");
    EXPECT_EQ(m->reg(2), 42u);
}

TEST(Machine, DLXeR0IsZero)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    mvi r0, 55
    add r2, r0, r0
    ret
    nop
)");
    EXPECT_EQ(m->reg(0), 0u);
    EXPECT_EQ(m->reg(2), 0u);
}

TEST(Machine, D16R0IsWritable)
{
    auto m = runProgram(TargetInfo::d16(), R"(
main:
    mvi at, 55
    mv r2, at
    ret
    nop
)");
    EXPECT_EQ(m->reg(0), 55u);
    EXPECT_EQ(m->reg(2), 55u);
}

TEST(Machine, CompareAndBranchD16)
{
    // D16 compares write r0; bz/bnz test r0 implicitly.
    auto m = runProgram(TargetInfo::d16(), R"(
main:
    mvi r2, 5
    mvi r3, 9
    cmp.lt r2, r3    ; at = 1
    bnz took
    nop
    mvi r4, 111      ; skipped
took:
    mvi r5, 222
    ret
    nop
)");
    EXPECT_EQ(m->reg(4), 0u);
    EXPECT_EQ(m->reg(5), 222u);
}

TEST(Machine, DelaySlotAlwaysExecutes)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    mvi r2, 0
    br over
    addi r2, r2, 1   ; delay slot: executes although branch taken
    addi r2, r2, 10  ; skipped
over:
    ret
    nop
)");
    EXPECT_EQ(m->reg(2), 1u);
    EXPECT_EQ(m->stats().takenBranches, 2u);  // br + ret
}

TEST(Machine, NotTakenBranchFallsThrough)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    mvi r3, 1
    bz r3, skip      ; not taken
    mvi r4, 5        ; delay slot
    mvi r5, 6
skip:
    ret
    nop
)");
    EXPECT_EQ(m->reg(4), 5u);
    EXPECT_EQ(m->reg(5), 6u);
    EXPECT_EQ(m->stats().branches, 2u);
    EXPECT_EQ(m->stats().takenBranches, 1u);  // only ret
}

TEST(Machine, CallAndReturnDLXe)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    addi sp, sp, -4
    st ra, 0(sp)
    mvi r2, 4
    jl double        ; direct call
    nop
    jl double        ; again: r2 = 16
    nop
    ld ra, 0(sp)
    addi sp, sp, 4
    ret
    nop
double:
    add r2, r2, r2
    ret
    nop
)");
    EXPECT_EQ(m->reg(2), 16u);
}

TEST(Machine, CallViaPoolD16)
{
    // D16 calls: materialize the callee address with ldc, then jlr.
    auto m = runProgram(TargetInfo::d16(), R"(
    .align 4
pool:
    .word double
main:
    subi sp, 4
    st ra, 0(sp)
    mvi r2, 21
    ldc pool
    jlr at
    nop
    ld ra, 0(sp)
    addi sp, 4
    ret
    nop
double:
    add r2, r2
    jr ra
    nop
)");
    EXPECT_EQ(m->reg(2), 42u);
    EXPECT_EQ(m->stats().loads, 2u);  // pool load + ra restore
}

TEST(Machine, MemoryOps)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    mvi r2, -2
    st r2, 0(gp)
    ld r3, 0(gp)
    sth r2, 4(gp)
    ldh r4, 4(gp)
    ldhu r5, 4(gp)
    stb r2, 6(gp)
    ldb r6, 6(gp)
    ldbu r7, 6(gp)
    ret
    nop
    .data
buf: .space 16
)");
    EXPECT_EQ(static_cast<int32_t>(m->reg(3)), -2);
    EXPECT_EQ(static_cast<int32_t>(m->reg(4)), -2);
    EXPECT_EQ(m->reg(5), 0xfffeu);
    EXPECT_EQ(static_cast<int32_t>(m->reg(6)), -2);
    EXPECT_EQ(m->reg(7), 0xfeu);
    EXPECT_EQ(m->stats().loads, 5u);
    EXPECT_EQ(m->stats().stores, 3u);
}

TEST(Machine, LoadInterlockTiming)
{
    // ld result consumed by the very next instruction: exactly one
    // delayed-load interlock cycle.
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    st r0, 0(gp)
    ld r3, 0(gp)
    add r4, r3, r3   ; immediate use: 1 stall
    ret
    nop
    .data
w: .word 0
)");
    EXPECT_EQ(m->stats().loadInterlocks, 1u);
    EXPECT_EQ(m->stats().instructions, 5u);
    EXPECT_EQ(m->stats().baseCycles(), 6u);
}

TEST(Machine, LoadDelaySlotFilledNoInterlock)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    st r0, 0(gp)
    ld r3, 0(gp)
    mvi r5, 1        ; independent: fills the load delay slot
    add r4, r3, r3   ; no stall now
    ret
    nop
    .data
w: .word 0
)");
    EXPECT_EQ(m->stats().loadInterlocks, 0u);
    EXPECT_EQ(m->stats().baseCycles(), m->stats().instructions);
}

TEST(Machine, FpInterlockTiming)
{
    MachineConfig cfg;
    cfg.fpu.mul = 4;
    const Image img = build(TargetInfo::dlxe(), R"(
main:
    mvi r2, 3
    mif.l f2, r2
    si2df f2, f2
    mul.df f3, f2, f2     ; issues t
    add.df f4, f3, f3     ; needs f3: stalls mul-1 = 3 cycles
    ret
    nop
)");
    Machine m(img, cfg);
    m.run();
    // si2df also interlocks mif.l->si2df (move lat 1: no stall) and
    // mul consumes f2 (convert lat 2: 1 stall).
    EXPECT_EQ(m.stats().fpInterlocks, 1u + 3u);
    EXPECT_DOUBLE_EQ(m.fregD(4), 18.0);
}

TEST(Machine, FpArithmeticAndConversions)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    mvi r2, 7
    mif.l f1, r2
    si2df f1, f1          ; f1 = 7.0
    mvi r3, 2
    mif.l f2, r3
    si2df f2, f2          ; f2 = 2.0
    div.df f3, f1, f2     ; 3.5
    add.df f4, f3, f2     ; 5.5
    mul.df f5, f4, f2     ; 11.0
    sub.df f6, f5, f1     ; 4.0
    neg.df f7, f6         ; -4.0
    df2si f8, f3          ; 3 (truncation)
    mfi.l r4, f8
    df2sf f9, f3          ; 3.5f
    sf2df f10, f9
    ret
    nop
)");
    EXPECT_DOUBLE_EQ(m->fregD(3), 3.5);
    EXPECT_DOUBLE_EQ(m->fregD(7), -4.0);
    EXPECT_EQ(m->reg(4), 3u);
    EXPECT_FLOAT_EQ(m->fregS(9), 3.5f);
    EXPECT_DOUBLE_EQ(m->fregD(10), 3.5);
}

TEST(Machine, FpCompareAndRdsr)
{
    auto m = runProgram(TargetInfo::d16(), R"(
main:
    mvi r2, 1
    mif.l f1, r2
    si2df f1, f1
    mvi r3, 2
    mif.l f2, r3
    si2df f2, f2
    cmp.lt.df f1, f2
    rdsr r4              ; 1
    cmp.eq.df f1, f2
    rdsr r5              ; 0
    ret
    nop
)");
    EXPECT_EQ(m->reg(4), 1u);
    EXPECT_EQ(m->reg(5), 0u);
    EXPECT_GT(m->stats().fpInterlocks, 0u);  // rdsr right after cmp
}

TEST(Machine, DoubleThroughGprHalves)
{
    // Build a double from two 32-bit halves (the only memory<->FPU
    // path on these machines) and read it back.
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    ld r2, 0(gp)
    ld r3, 4(gp)
    mif.l f2, r2
    mif.h f2, r3
    add.df f3, f2, f2
    mfi.l r4, f3
    mfi.h r5, f3
    ret
    nop
    .data
d:  .word 0, 0x3ff00000   ; IEEE-754 double 1.0, little endian halves
)");
    EXPECT_DOUBLE_EQ(m->fregD(2), 1.0);
    EXPECT_DOUBLE_EQ(m->fregD(3), 2.0);
    // 2.0 == 0x4000000000000000
    EXPECT_EQ(m->reg(4), 0u);
    EXPECT_EQ(m->reg(5), 0x40000000u);
}

TEST(Machine, TrapOutput)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    mvi r2, -42
    trap 1
    mvi r2, 10
    trap 2
    mvi r2, msg
    trap 3
    mvhi r2, 45
    ori r2, r2, 50880   ; 45<<16 | 50880 = 3000000
    trap 7
    ret
    nop
    .data
msg: .asciz "hi "
)");
    EXPECT_EQ(m->output(), "-42\nhi 3000000");
}

TEST(Machine, TrapAlloc)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    mvi r2, 100
    trap 6
    mv r4, r2
    mvi r2, 8
    trap 6
    mv r5, r2
    ret
    nop
)");
    EXPECT_NE(m->reg(4), 0u);
    EXPECT_EQ(m->reg(5), m->reg(4) + 104);  // 100 rounded up to 8
    EXPECT_EQ(m->reg(5) % 8, 0u);
}

TEST(Machine, LoopExecution)
{
    // Sum 1..10 on both machines; identical results.
    auto mD = runProgram(TargetInfo::d16(), R"(
main:
    mvi r2, 0
    mvi r3, 10
loop:
    add r2, r3
    subi r3, 1
    cmp.eq r3, r4    ; r4 never written: 0
    bz loop
    nop
    ret
    nop
)");
    EXPECT_EQ(mD->reg(2), 55u);

    auto mX = runProgram(TargetInfo::dlxe(), R"(
main:
    mvi r2, 0
    mvi r3, 10
loop:
    add r2, r2, r3
    subi r3, r3, 1
    bnz r3, loop
    nop
    ret
    nop
)");
    EXPECT_EQ(mX->reg(2), 55u);
    // DLXe path is shorter: no explicit compare.
    EXPECT_LT(mX->stats().instructions, mD->stats().instructions);
}

TEST(Machine, StackDiscipline)
{
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    addi sp, sp, -8
    mvi r2, 77
    st r2, 0(sp)
    mvi r2, 0
    ld r2, 0(sp)
    addi sp, sp, 8
    ret
    nop
)");
    EXPECT_EQ(m->reg(2), 77u);
    EXPECT_EQ(m->reg(31), m->memory().size());
}

TEST(Machine, RecursiveCallDLXe)
{
    // factorial(5) via recursion, exercising ra save/restore.
    auto m = runProgram(TargetInfo::dlxe(), R"(
main:
    addi sp, sp, -4
    st ra, 0(sp)
    mvi r2, 5
    jl fact
    nop
    ld ra, 0(sp)
    addi sp, sp, 4
    ret
    nop
fact:
    cmpi.le r4, r2, 1
    bnz r4, base
    nop
    addi sp, sp, -8
    st ra, 0(sp)
    st r2, 4(sp)
    subi r2, r2, 1
    jl fact
    nop
    ld r3, 4(sp)          ; original n
    ld ra, 0(sp)
    addi sp, sp, 8
    ; r2 = fact(n-1); multiply by n via repeated add (no mul insn)
    mv r5, r2
    mvi r2, 0
mulloop:
    add r2, r2, r5
    subi r3, r3, 1
    bnz r3, mulloop
    nop
base:
    ret
    nop
)");
    EXPECT_EQ(m->reg(2), 120u);
}

TEST(Machine, IllegalPcIsFatal)
{
    const Image img = build(TargetInfo::dlxe(), R"(
main:
    mvhi r3, 16         ; 0x100000
    jr r3
    nop
)");
    Machine m(img);
    EXPECT_THROW(m.run(), FatalError);
}

TEST(Machine, MisalignedAccessIsFatal)
{
    const Image img = build(TargetInfo::dlxe(), R"(
main:
    mvi r3, 2
    ld r4, 1(r3)
    ret
    nop
)");
    Machine m(img);
    EXPECT_THROW(m.run(), FatalError);
}

TEST(Machine, InstructionLimitIsFatal)
{
    MachineConfig cfg;
    cfg.maxInstructions = 100;
    const Image img = build(TargetInfo::dlxe(), R"(
main:
    br main
    nop
)");
    Machine m(img, cfg);
    EXPECT_THROW(m.run(), FatalError);
}

/** Trace fold recording the reference streams one record at a time. */
struct RecordingFold : TraceFold
{
    uint32_t insnBytes = 4;
    std::vector<uint32_t> fetches;
    std::vector<std::pair<uint32_t, int>> reads, writes;

    void
    feed(const TraceChunk &chunk) override
    {
        for (const FetchRun &r : chunk.runs)
            for (uint32_t i = 0; i < r.count; ++i)
                fetches.push_back(r.startPc + i * insnBytes);
        for (const DataAccess &a : chunk.accesses)
            (a.write ? writes : reads).emplace_back(a.addr, a.size);
    }
};

TEST(Machine, TraceFoldObservesStreams)
{
    // One loop block, three times round: step() and block dispatch
    // must hand a fold the same fetch, read and write streams.
    const Image img = build(TargetInfo::dlxe(), R"(
main:
    mvi r4, 3
loop:
    st r4, 4(gp)
    ld r3, 4(gp)
    subi r4, r4, 1
    bnz r4, loop
    nop
    ret
    nop
    .data
w: .space 8
)");
    const DecodedText text(img);
    BlockTable table;
    table.spans = {{img.entry, 1}, {img.entry + 4, 5}, {img.entry + 24, 2}};
    const auto blocks = std::make_shared<const BlockProgram>(img, text, table);

    RecordingFold folds[2];
    uint64_t blockInsns[2] = {};
    for (int useBlocks = 0; useBlocks < 2; ++useBlocks) {
        RecordingFold &fold = folds[useBlocks];
        TraceSink sink(4, fold);
        Machine m(img);
        if (useBlocks)
            m.setBlockProgram(blocks);
        m.setTraceSink(&sink);
        m.run();
        sink.finish();
        blockInsns[useBlocks] = m.blockInstructions();
        EXPECT_EQ(fold.fetches.size(), m.stats().instructions);
    }
    const RecordingFold &step = folds[0];
    EXPECT_EQ(blockInsns[0], 0u);
    EXPECT_GT(blockInsns[1], 0u);
    ASSERT_EQ(step.fetches.size(), 1u + 3 * 5 + 2);
    EXPECT_EQ(step.fetches[0], img.entry);
    EXPECT_EQ(step.fetches[1], img.entry + 4);
    EXPECT_EQ(step.fetches[6], img.entry + 4);  // back round the loop
    ASSERT_EQ(step.reads.size(), 3u);
    EXPECT_EQ(step.reads[0].first, img.dataBase + 4);
    EXPECT_EQ(step.reads[0].second, 4);
    ASSERT_EQ(step.writes.size(), 3u);
    EXPECT_EQ(step.writes[2].first, img.dataBase + 4);
    EXPECT_EQ(folds[1].fetches, step.fetches);
    EXPECT_EQ(folds[1].reads, step.reads);
    EXPECT_EQ(folds[1].writes, step.writes);
}

TEST(Machine, D16LdcTiming)
{
    // Ldc is a load: consumer immediately after stalls one cycle.
    auto m = runProgram(TargetInfo::d16(), R"(
    .align 4
pool: .word 1234
main:
    ldc pool
    mv r2, at         ; immediate use of the loaded constant
    ret
    nop
)");
    EXPECT_EQ(m->reg(2), 1234u);
    EXPECT_EQ(m->stats().loadInterlocks, 1u);
}

} // namespace
