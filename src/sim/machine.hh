/**
 * @file
 * Machine — functional + timing model of the shared five-stage pipeline.
 *
 * Both instruction sets execute on this one model (the paper's central
 * methodological point: identical execution resources, different
 * encodings). Behaviour follows §2 and Appendix A:
 *
 *  - single issue, peak one instruction per cycle;
 *  - branches and jumps have ONE architectural delay slot (the next
 *    sequential instruction always executes);
 *  - loads have one delay slot enforced by a hardware interlock: an
 *    immediately-dependent consumer stalls one cycle;
 *  - FPU results interlock by latency (a simple ready-time scoreboard);
 *  - r0 reads as zero and ignores writes on DLXe; on D16 r0 is the
 *    ordinary at/compare register.
 *
 * Timing is accounted per instruction (issue-time scoreboard), which
 * for this in-order, single-issue pipeline is cycle-equivalent to a
 * stage-by-stage model. Memory latency is deliberately NOT modeled
 * here: the machine reports base cycles (instructions + interlocks) and
 * exposes the reference streams through a TraceSink; the §4 memory
 * models in src/mem add ell * traffic or missPenalty * misses exactly
 * as the paper's formulas do.
 */

#ifndef D16SIM_SIM_MACHINE_HH
#define D16SIM_SIM_MACHINE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asm/image.hh"
#include "isa/decoded.hh"
#include "isa/target.hh"
#include "mem/memory.hh"
#include "sim/block_engine.hh"
#include "sim/issue_slot.hh"
#include "sim/predecode.hh"
#include "sim/stats.hh"
#include "sim/uarch.hh"

namespace d16sim::sim
{

struct MachineConfig
{
    uint32_t memBytes = 8u << 20;
    uint64_t maxInstructions = 2'000'000'000;
    FpLatencies fpu;

    /** Microarchitectural axes (sim/uarch.hh). The default is the
     *  paper's machine; both dispatch engines honor every config. */
    UarchConfig uarch;
};

class Machine
{
  public:
    /** `predecoded` is an optional shared decode table for the image's
     *  text section (see DecodedText); when null the machine builds a
     *  private one. Passing the same table to many machines amortizes
     *  decoding across runs of one image. */
    Machine(const assem::Image &image, MachineConfig config = {},
            std::shared_ptr<const DecodedText> predecoded = nullptr);

    /** Attach a compiled block program for the image (shared,
     *  immutable; see BlockProgram). run() then dispatches whole
     *  blocks wherever the static picture holds and falls back to
     *  step() everywhere else. Results, trace sink streams included,
     *  are bit-identical either way. */
    void
    setBlockProgram(std::shared_ptr<const BlockProgram> blocks)
    {
        blocks_ = std::move(blocks);
    }

    /** Append the run's fetch, data and branch-outcome streams to
     *  `sink` (not owned), from block dispatch and step() alike. The
     *  caller finishes the sink once the run is over. */
    void setTraceSink(TraceSink *sink) { traceSink_ = sink; }

    /** Instructions retired through block dispatch (diagnostic: all
     *  of stats().instructions that did not go through step()). */
    uint64_t
    blockInstructions() const
    {
        return stats_.instructions - stepInstructions_;
    }

    /** Run until halt; returns the exit status (r2 at halt). */
    int run();

    /** Execute one instruction; returns false once halted. */
    bool step();

    bool halted() const { return halted_; }

    const SimStats &stats() const { return stats_; }
    const std::string &output() const { return output_; }
    const isa::TargetInfo &target() const { return *target_; }
    mem::Memory &memory() { return memory_; }

    uint32_t pc() const { return pc_; }
    uint32_t reg(int r) const { return gpr_[r]; }
    void setReg(int r, uint32_t v) { writeGpr(r, v); }
    uint64_t fregRaw(int r) const { return fpr_[r]; }
    double fregD(int r) const;
    float fregS(int r) const;

  private:
    const isa::DecodedInst &decoded(uint32_t pc);
    void execute(const isa::DecodedInst &inst);
    void executeFpOrTrap(const isa::DecodedInst &inst);
    void doTrap(int code);

    void
    writeGpr(int r, uint32_t v)
    {
        if (r == 0 && r0IsZero_)
            return;
        gpr_[r] = v;
    }

    /** Block-engine dispatch (defined in block_engine.cc): runBlocks()
     *  enters the dispatchBlocks() instance for this machine's hazard
     *  flag set (hazardShift_) and for whether a TraceSink is attached;
     *  execUop and uopGprStall are inlined into each instance. The
     *  dispatch loop keeps the issue cycle in a local (`cycle`), which
     *  these take by reference, execSlot takes and returns, and the
     *  out-of-line FP/status/trap uops (execSlowUop) see as cycle_;
     *  every exit writes it back to cycle_. The loops are 64-byte
     *  aligned, so code growth elsewhere cannot shift their speed. */
    bool runBlocks();
    template <unsigned Shift, bool Traced>
    __attribute__((aligned(64))) bool dispatchBlocks();
    template <unsigned Shift, bool Traced>
    bool execUop(const Uop &u, uint64_t &cycle);
    template <unsigned Shift, bool Traced>
    uint64_t execSlot(const Uop &u, uint64_t cycle);
    bool execSlowUop(const Uop &u);
    void uopGprStall(const Uop &u, uint8_t flags, uint64_t &cycle,
                     bool forwardRs2 = false);
    template <isa::Op O>
    void aluUop(const Uop &u, uint8_t flags, uint64_t &cycle, uint32_t b);
    template <isa::Op O, bool Traced>
    void memUop(const Uop &u, uint8_t flags, uint64_t &cycle);
    void backOutBlockFault();

    /** Branch-policy accounting of execute() (sim/uarch.hh); block
     *  terminators apply the same model inline. Penalties are additive
     *  (SimStats::branchStalls) and never touch the issue scoreboard,
     *  so the interlock counters stay branch-policy-invariant. */
    void
    chargeBranch(int cycles)
    {
        if (cycles > 0)
            stats_.branchStalls += static_cast<uint64_t>(cycles);
    }

    /** The conditional branch at `pc` resolved `taken`: record the
     *  outcome (the replay stream) and apply the policy. */
    void
    resolveCond(uint32_t pc, bool taken)
    {
        stats_.condBranches += 1;
        if (traceSink_)
            traceSink_->outcome(pc, taken);
        bool mispredicted = false;
        chargeBranch(branch_.conditional(pc, taken, mispredicted));
        stats_.mispredicts += mispredicted ? 1 : 0;
    }

    /** An unconditional transfer at `pc`. */
    void resolveJump() { chargeBranch(branch_.jump()); }

    /** The datapath both dispatch paths share: the integer ALU
     *  (register and immediate forms alike), memory by access width,
     *  and the FP conversions. */
    [[gnu::always_inline]] static uint32_t
    alu(isa::Op op, uint32_t a, uint32_t b)
    {
        using isa::Op;
        switch (op) {
          case Op::Add: case Op::AddI: return a + b;
          case Op::Sub: case Op::SubI: return a - b;
          case Op::And: case Op::AndI: return a & b;
          case Op::Or: case Op::OrI: return a | b;
          case Op::Xor: case Op::XorI: return a ^ b;
          case Op::Shl: case Op::ShlI: return a << (b & 31);
          case Op::Shr: case Op::ShrI: return a >> (b & 31);
          default:
            return static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                         (b & 31));
        }
    }

    [[gnu::always_inline]] uint32_t
    loadValue(isa::Op op, uint32_t ea)
    {
        using isa::Op;
        switch (op) {
          case Op::Ld: return memory_.read32(ea);
          case Op::Ldh:
            return static_cast<uint32_t>(static_cast<int32_t>(
                static_cast<int16_t>(memory_.read16(ea))));
          case Op::Ldhu: return memory_.read16(ea);
          case Op::Ldb:
            return static_cast<uint32_t>(static_cast<int32_t>(
                static_cast<int8_t>(memory_.read8(ea))));
          default: return memory_.read8(ea);
        }
    }

    [[gnu::always_inline]] void
    storeValue(isa::Op op, uint32_t ea, uint32_t v)
    {
        if (op == isa::Op::St)
            memory_.write32(ea, v);
        else if (op == isa::Op::Sth)
            memory_.write16(ea, static_cast<uint16_t>(v));
        else
            memory_.write8(ea, static_cast<uint8_t>(v));
    }

    static uint64_t
    convert(isa::Op op, uint64_t src)
    {
        using isa::Op;
        const auto word = static_cast<int32_t>(static_cast<uint32_t>(src));
        switch (op) {
          case Op::CvtSiSf: return fromFloat(static_cast<float>(word));
          case Op::CvtSiDf: return fromDouble(static_cast<double>(word));
          case Op::CvtSfDf:
            return fromDouble(static_cast<double>(asFloat(src)));
          case Op::CvtDfSf:
            return fromFloat(static_cast<float>(asDouble(src)));
          case Op::CvtSfSi:
            return static_cast<uint32_t>(static_cast<int32_t>(asFloat(src)));
          default:
            return static_cast<uint32_t>(
                static_cast<int32_t>(asDouble(src)));
        }
    }

    /** FP register bit views: singles live in the low word. */
    static float
    asFloat(uint64_t raw)
    {
        return std::bit_cast<float>(static_cast<uint32_t>(raw));
    }
    static uint64_t fromFloat(float f) { return std::bit_cast<uint32_t>(f); }
    static double asDouble(uint64_t raw) { return std::bit_cast<double>(raw); }
    static uint64_t fromDouble(double d) { return std::bit_cast<uint64_t>(d); }

    /** Issue-time scoreboard helpers, inline because both dispatch
     *  paths call them on every instruction. The useX() calls
     *  accumulate the largest pending stall (and whether an FP result
     *  caused it); finishIssue() commits it (stallThisInsn_, reset per
     *  instruction) and returns the instruction's issue cycle. */
    void
    useReady(uint64_t ready, bool fp)
    {
        const uint64_t issue = cycle_ + 1;
        if (ready > issue && ready - issue > stallThisInsn_) {
            stallThisInsn_ = ready - issue;
            stallIsFp_ = fp;
        }
    }
    void useGpr(int r) { useReady(gprReady_[r], false); }
    void useFpr(int r) { useReady(fprReady_[r], true); }
    void useStatus() { useReady(statusReady_, true); }
    uint64_t
    finishIssue()
    {
        if (stallThisInsn_) {
            if (stallIsFp_)
                stats_.fpInterlocks += stallThisInsn_;
            else
                stats_.loadInterlocks += stallThisInsn_;
        }
        cycle_ += 1 + stallThisInsn_;
        return cycle_;
    }
    void
    setGprReady(int r, uint64_t when)
    {
        if (r == 0 && r0IsZero_)
            return;
        gprReady_[r] = when;
    }
    void setFprReady(int r, uint64_t when) { fprReady_[r] = when; }

    const isa::TargetInfo *target_;
    bool r0IsZero_ = false;  //!< target_->r0IsZero(), read per write
    MachineConfig config_;
    mem::Memory memory_;

    // One entry past r31: Uop::R0Sink, where block uops write DLXe r0
    // (which reads as zero). Nothing reads it.
    static constexpr size_t GprSlots = Uop::R0Sink + 1;

    uint32_t pc_ = 0;
    std::array<uint32_t, GprSlots> gpr_{};
    std::array<uint64_t, 32> fpr_{};
    uint32_t fpStatus_ = 0;
    bool halted_ = false;
    int exitStatus_ = 0;

    // Delay-slot bookkeeping.
    bool inDelaySlot_ = false;
    uint32_t delayedTarget_ = 0;

    // True while the next instruction sits in a branch/jump shadow
    // (taken or not) — a canonical nop there is a branch bubble.
    bool inCfShadow_ = false;

    // Scoreboard: absolute cycle each register becomes available.
    uint64_t cycle_ = 0;
    uint64_t stallThisInsn_ = 0;
    bool stallIsFp_ = false;
    std::array<uint64_t, GprSlots> gprReady_{};
    std::array<uint64_t, 32> fprReady_{};
    uint64_t statusReady_ = 0;

    // Microarchitecture-derived state (sim/uarch.hh): cycles until a
    // loaded register is ready, the position of the block uops' hazard
    // flags for that load delay, and the branch policy's cost model.
    uint64_t loadDelta_ = 2;
    unsigned hazardShift_ = 0;
    BranchModel branch_;

    // Immutable predecoded text section (shared or privately built).
    uint32_t textBase_ = 0;
    uint32_t textEnd_ = 0;
    std::shared_ptr<const DecodedText> text_;
    isa::DecodedInst scratch_;  //!< decode target for non-site words

    // The runaway guard is re-armed every LimitCheckInterval
    // instructions instead of comparing against maxInstructions in the
    // hot loop; limitCheckAt_ never exceeds maxInstructions, so the
    // limit still fires exactly.
    static constexpr uint64_t LimitCheckInterval = 4096;
    uint64_t limitCheckAt_ = 0;

    uint32_t heapPtr_ = 0;

    SimStats stats_;
    std::string output_;

    // Threaded-code engine (optional; null = pure step dispatch).
    std::shared_ptr<const BlockProgram> blocks_;
    TraceSink *traceSink_ = nullptr;
    uint64_t stepInstructions_ = 0;  //!< for blockInstructions()

    // Fault back-out (backOutBlockFault): the block being dispatched,
    // and its uop that may throw — a load, store, ldc or trap records
    // itself before touching memory or the trap service, &term marks
    // the terminator's outcome append, null the block's closing fetch
    // append. Members rather than loop locals, so the dispatch loop's
    // uop pointer and cycle stay in registers.
    const BlockProgram::Block *blockInFlight_ = nullptr;
    const Uop *inflight_ = nullptr;
};

} // namespace d16sim::sim

#endif // D16SIM_SIM_MACHINE_HH
