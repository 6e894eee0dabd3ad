/**
 * @file
 * The shared operation vocabulary of D16 and DLXe (paper Table 1).
 *
 * Both instruction sets are "nearly identical in function" — they share
 * ALU, shift, memory, branch, and floating-point operations executed on
 * the same pipeline. This enum is the single semantic namespace; the two
 * codecs map (a per-ISA subset of) it to/from bits. Ops marked D16-only
 * or DLXe-only below follow the paper:
 *
 *  - D16 only:  Ldc (PC-relative constant-pool word load into implicit
 *               r0, the "LDC format" with offsets reaching -4096).
 *  - DLXe only: AndI/OrI/XorI, MvHI ("set upper 16 bits"), CmpI
 *               (immediate compares), J/Jl (26-bit direct jumps).
 *
 * Neither machine has integer multiply/divide (software routines) nor
 * direct FP loads/stores (FPU interface restriction, paper §2): memory
 * traffic to FP registers moves through GPRs via MifL/MifH/MfiL/MfiH.
 */

#ifndef D16SIM_ISA_OPERATION_HH
#define D16SIM_ISA_OPERATION_HH

#include <cstdint>
#include <string_view>

namespace d16sim::isa
{

enum class Op : uint8_t
{
    // Integer ALU, register forms. D16 executes these two-address
    // (rx = rx op ry); DLXe three-address (rd = rs1 op rs2).
    Add, Sub, And, Or, Xor, Shl, Shr, Shra,
    Neg,  //!< rd = -rs1
    Inv,  //!< rd = ~rs1
    Mv,   //!< rd = rs1

    // Integer ALU, immediate forms. D16 immediates are 5-bit unsigned;
    // DLXe immediates are 16 bits (sign-extended for arithmetic,
    // zero-extended for logical ops, per DLX convention).
    AddI, SubI, ShlI, ShrI, ShraI,
    AndI, OrI, XorI,  // DLXe only

    MvI,   //!< rd = imm (D16: 9-bit signed; DLXe: 16-bit signed)
    MvHI,  //!< rd = imm << 16 (DLXe only)

    // Integer compares; result is all-zeros/all-ones... the paper says
    // "sets r0 to zeros or ones"; we define the result as 1/0 (a boolean)
    // which composes with Bz/Bnz identically. D16 destination is always
    // r0 and only the first six conditions exist.
    Cmp,   //!< rd = (rs1 cond rs2)
    CmpI,  //!< rd = (rs1 cond imm), DLXe only

    // Memory. D16 word forms take a 5-bit unsigned word-scaled offset
    // (0..124 bytes); sub-word forms are not offsettable (offset must be
    // zero). DLXe takes 16-bit signed byte displacements everywhere.
    Ld, Ldh, Ldhu, Ldb, Ldbu,
    St, Sth, Stb,
    Ldc,  //!< D16 only: r0 = mem[(pc & ~3) + imm], imm in [-4096, 4092]

    // Control transfer. All branches/jumps have one delay slot.
    Br,    //!< unconditional PC-relative branch
    Bz,    //!< branch if test register zero (D16 tests r0 implicitly)
    Bnz,   //!< branch if test register nonzero
    J,     //!< DLXe only: PC-relative 26-bit jump
    Jl,    //!< DLXe only: PC-relative 26-bit jump-and-link (link = r1)
    Jr,    //!< jump to address in register
    Jlr,   //!< jump to register, link in r1
    Jrz,   //!< jump to register if test register zero
    Jrnz,  //!< jump to register if test register nonzero

    // Floating point (separate 16/32-entry FP register file; 64-bit
    // registers holding either single or double values).
    FAddS, FAddD, FSubS, FSubD, FMulS, FMulD, FDivS, FDivD,
    FNegS, FNegD,
    FMv,    //!< FPR-to-FPR raw move
    FCmpS,  //!< sets FP status (read with Rdsr); conds lt/le/eq
    FCmpD,

    // Conversions.
    CvtSiSf, CvtSiDf, CvtSfDf, CvtDfSf, CvtSfSi, CvtDfSi,

    // GPR <-> FPR half moves (the only path between memory and the FPU).
    MifL,  //!< fpr[rd].lo32 = gpr[rs1] (also how floats enter the FPU)
    MifH,  //!< fpr[rd].hi32 = gpr[rs1]
    MfiL,  //!< gpr[rd] = fpr[rs1].lo32
    MfiH,  //!< gpr[rd] = fpr[rs1].hi32

    // Special.
    Trap,  //!< OS/simulator service call, code in immediate
    Rdsr,  //!< rd = FP status register (result of last FCmp)
    Nop,   //!< assembler-level only; encoded as a harmless Mv/Add

    NumOps
};

constexpr int numOps = static_cast<int>(Op::NumOps);

/** Broad behavioural class, used by the timing model and schedulers. */
enum class OpClass : uint8_t
{
    IntAlu,     //!< register ALU ops incl. moves and compares
    IntAluImm,  //!< immediate ALU ops
    Load,       //!< memory read (has one delay slot, interlocked)
    Store,      //!< memory write
    LoadConst,  //!< D16 Ldc (a load for timing purposes)
    Branch,     //!< conditional/unconditional PC-relative
    Jump,       //!< register or long direct jumps
    FpAlu,      //!< FP arithmetic (multi-cycle, interlocked)
    FpMove,     //!< FMv and GPR<->FPR half moves
    FpConvert,  //!< conversions (multi-cycle)
    Misc,       //!< Trap, Rdsr, Nop
};

/** Mnemonic used by the assembler and disassemblers. */
std::string_view opName(Op op);

/** Parse a mnemonic; returns false if unknown. */
bool parseOp(std::string_view name, Op &out);

/** Behavioural class of the op. */
OpClass opClass(Op op);

/** True iff the op exists only in the D16 encoding. */
bool isD16Only(Op op);

/** True iff the op exists only in the DLXe encoding. */
bool isDLXeOnly(Op op);

/** True for St/Sth/Stb. */
bool isStore(Op op);

/** Memory access size in bytes for loads/stores (4 for Ldc). */
int memAccessSize(Op op);

/** True for ops that end a basic block (branches and jumps). */
bool isControlFlow(Op op);

/** True iff the op takes a Cond field. */
bool hasCond(Op op);

} // namespace d16sim::isa

#endif // D16SIM_ISA_OPERATION_HH
