#include "sim/block_engine.hh"

#include <algorithm>

#include "isa/codec.hh"
#include "isa/operation.hh"
#include "isa/target.hh"
#include "sim/issue_slot.hh"
#include "sim/machine.hh"
#include "support/error.hh"

namespace d16sim::sim
{

using isa::DecodedInst;
using isa::Op;

namespace
{

/** Pre-bind one instruction (hazard flags are set per block by
 *  setHazardFlags). */
Uop
makeUop(const isa::TargetInfo &t, const DecodedInst &d, uint32_t pc)
{
    const uint32_t ib = static_cast<uint32_t>(t.insnBytes());
    Uop u;
    u.op = d.op;
    u.cond = d.cond;
    u.rd = static_cast<uint8_t>(d.rd);
    u.rs1 = static_cast<uint8_t>(d.rs1);
    u.rs2 = static_cast<uint8_t>(d.rs2);
    u.imm = d.imm;

    switch (d.op) {
      case Op::MvHI:
        // Fold the shift: MvI and MvHI collapse to one load-immediate.
        u.op = Op::MvI;
        u.imm = static_cast<int32_t>(static_cast<uint32_t>(d.imm) << 16);
        break;
      case Op::Ldc:
        u.imm = static_cast<int32_t>((pc & ~3u) +
                                     static_cast<uint32_t>(d.imm));
        u.aux = 4;
        u.rd = 0;
        break;
      case Op::Ld: case Op::Ldh: case Op::Ldhu:
      case Op::Ldb: case Op::Ldbu:
      case Op::St: case Op::Sth: case Op::Stb:
        u.aux = static_cast<uint32_t>(isa::memAccessSize(d.op));
        break;
      case Op::Br: case Op::Bz: case Op::Bnz:
      case Op::J: case Op::Jl:
        u.imm = static_cast<int32_t>(pc + static_cast<uint32_t>(d.imm));
        if (d.op == Op::Jl) {
            u.aux = pc + 2 * ib;
            u.rd = 1;
        }
        break;
      case Op::Jlr:
        u.aux = pc + 2 * ib;
        u.rd = 1;
        break;
      case Op::Trap:
        u.rs1 = 2;  // the service argument register (read and written)
        u.rd = 2;
        break;
      default:
        break;
    }
    return u;
}

/**
 * Hazard flags for `n` uops of one block in issue order, from their
 * issue slots (sim::issueSlot: a GPR-reading slot's sources 0 and 1
 * are the uop's rs1 and rs2, Trap's fixed r2 normalized onto rs1 by
 * makeUop): one set per load delay up to UarchConfig::MaxLoadDelay, so
 * one translation is exact under every config. The step scoreboard can
 * stall a GPR read only while the value's latest writer is a load at
 * most `delay` issues back; every other producer's t+1 is met by the
 * next issue. So, for each delay:
 *
 *  - a GPR source is checked iff, walking back at most `delay` uops,
 *    its nearest writer is a load or the walk reaches block entry;
 *  - a single-cycle producer keeps its t+1 ready write iff the load
 *    delay exceeds one and the uop before it may be a load of the same
 *    register (always at block entry). Up to a delay of two, only then
 *    can the load's ready time outlast the producer's, so every elided
 *    write leaves a stale ready time no later than step()'s, which no
 *    issue can observe as a stall.
 */
void
setHazardFlags(const IssueSlot *slots, Uop *seq, uint32_t n)
{
    const auto loads = [](const IssueSlot &s) {
        return s.lat == IssueSlot::LoadLatency;
    };
    for (uint32_t i = 0; i < n; ++i) {
        const IssueSlot &s = slots[i];
        const bool keepable =
            IssueSlot::isGpr(s.dst) && !loads(s) &&
            (i == 0 || (loads(slots[i - 1]) && slots[i - 1].dst == s.dst));
        for (uint32_t delay = 1;
             delay <= uint32_t{UarchConfig::MaxLoadDelay}; ++delay) {
            const auto needsCheck = [&](uint8_t src) {
                if (!IssueSlot::isGpr(src))
                    return false;
                for (uint32_t k = 1; k <= delay; ++k) {
                    if (k > i)
                        return true;
                    if (slots[i - k].dst == src)
                        return loads(slots[i - k]);
                }
                return false;
            };
            uint8_t f = 0;
            if (needsCheck(s.src0))
                f |= Uop::ChkRs1;
            if (needsCheck(s.src1))
                f |= Uop::ChkRs2;
            if (delay > 1 && keepable)
                f |= Uop::KeepReady;
            seq[i].flags |= static_cast<uint8_t>(
                f << Uop::flagShift(static_cast<int>(delay)));
        }
    }
}

} // namespace

BlockProgram::BlockProgram(const assem::Image &image,
                           const DecodedText &text,
                           const BlockTable &table)
{
    panicIf(!image.target, "image has no target");
    panicIf(text.base() != image.textBase,
            "predecoded table does not match image");
    textBase_ = image.textBase;
    textSize_ = image.textSize;
    shift_ = text.insnShift();
    mask_ = (1u << shift_) - 1;
    index_.assign(text.size(), -1);
    blocks_.reserve(table.spans.size());
    for (const BlockSpan &span : table.spans)
        translate(*image.target, text, span);
    chain();
}

void
BlockProgram::chain()
{
    // An edge chains iff it lands on a dispatchable block start; pc 0
    // (the halt sentinel) and NeedsStep blocks stay with the lookup.
    const auto chainTo = [this](uint32_t pc) -> int32_t {
        const int32_t id = pc == 0 ? -1 : blockAt(pc);
        return id >= 0 && !blocks_[id].needsStep ? id : -1;
    };
    for (Block &b : blocks_) {
        if (b.needsStep)
            continue;
        b.fallId = chainTo(b.fallThroughPc);
        if (!b.hasTerm)
            continue;
        switch (b.term.op) {
          case Op::Br: case Op::J: case Op::Jl:
          case Op::Bz: case Op::Bnz:
            b.takenId = chainTo(static_cast<uint32_t>(b.term.imm));
            break;
          default:
            break;  // register targets: looked up at run time
        }
    }
}

void
BlockProgram::translate(const isa::TargetInfo &t, const DecodedText &text,
                        const BlockSpan &span)
{
    const uint32_t ib = 1u << shift_;
    const uint32_t idx0 = (span.startPc - textBase_) >> shift_;
    panicIf(span.count == 0 || (span.startPc - textBase_) > textSize_ ||
                ((span.startPc - textBase_) & mask_) != 0 ||
                idx0 + span.count > text.size(),
            "block span outside the text section");

    Block b;
    b.startPc = span.startPc;
    b.count = span.count;
    b.fallThroughPc = span.startPc + span.count * ib;

    const auto finish = [&](bool needsStep) {
        b.needsStep = needsStep;
        if (needsStep)
            ++needsStep_;
        index_[idx0] = static_cast<int32_t>(blocks_.size());
        blocks_.push_back(b);
    };

    // Every site must hold a decoded instruction; a span that touches
    // an invalid slot (pool data mis-claimed as code) is stepped.
    for (uint32_t i = 0; i < span.count; ++i)
        if (!text.valid(idx0 + i))
            return finish(true);

    int cf = -1;
    for (uint32_t i = 0; i < span.count; ++i) {
        if (isa::isControlFlow(text.at(idx0 + i).op)) {
            cf = static_cast<int>(i);
            break;
        }
    }

    // Compiled blocks carry their terminator at count-2 with a
    // non-control-flow delay slot. Anything else — a transfer as the
    // last text instruction (no slot to fold), or a transfer sitting
    // in the slot itself — keeps step()'s exact edge-case handling.
    if (cf >= 0 && (cf != static_cast<int>(span.count) - 2 ||
                    isa::isControlFlow(text.at(idx0 + cf + 1).op)))
        return finish(true);

    // The block's issue order is its address order: body, then the
    // terminator and its slot.
    std::vector<Uop> seq;
    std::vector<IssueSlot> slots;
    seq.reserve(span.count);
    slots.reserve(span.count);
    for (uint32_t i = 0; i < span.count; ++i) {
        seq.push_back(makeUop(t, text.at(idx0 + i), span.startPc + i * ib));
        slots.push_back(issueSlot(t, text.at(idx0 + i)));
    }
    setHazardFlags(slots.data(), seq.data(), span.count);

    const uint32_t body = cf >= 0 ? span.count - 2 : span.count;
    b.uopBegin = static_cast<uint32_t>(uops_.size());
    b.uopCount = body;
    uops_.insert(uops_.end(), seq.begin(), seq.begin() + body);
    if (cf >= 0) {
        b.hasTerm = true;
        b.term = seq[body];
        b.slot = seq[body + 1];
        b.slotBubble = isa::isCanonicalNop(t, text.at(idx0 + body + 1));
    }
    finish(false);
}

// ----- Machine dispatch ------------------------------------------------

/** GPR hazard check for the sources of `u` flagged in `flags` (its
 *  hazard set for this machine's load delay). Mirrors useGpr +
 *  finishIssue's stall arithmetic for the loadInterlocks case (ties
 *  and maxima resolve identically: both sources attribute to the load
 *  interlock counter), including execute()'s store-data bypass when
 *  `forwardRs2`. The caller adds the base issue cycle. */
[[gnu::always_inline]] inline void
Machine::uopGprStall(const Uop &u, uint8_t flags, bool forwardRs2)
{
    const uint64_t issue = cycle_ + 1;
    const uint64_t ready1 = gprReady_[u.rs1];
    const uint64_t ready2 = gprReady_[u.rs2];
    uint64_t stall =
        (flags & Uop::ChkRs1) && ready1 > issue ? ready1 - issue : 0;
    const uint64_t data =
        (flags & Uop::ChkRs2) && ready2 > issue ? ready2 - issue : 0;
    if (data > stall) {
        stall = data;
        if (forwardRs2) {
            stall -= 1;
            stats_.fwdSavedStalls += 1;
        }
    }
    if (stall) {
        stats_.loadInterlocks += stall;
        cycle_ += stall;
    }
}

/** An integer ALU uop, register or immediate form (`b`). */
template <isa::Op O>
[[gnu::always_inline]] inline void
Machine::aluUop(const Uop &u, uint8_t flags, uint32_t b)
{
    if (flags & Uop::Chk)
        uopGprStall(u, flags);
    ++cycle_;
    writeGpr(u.rd, alu(O, gpr_[u.rs1], b));
}

/**
 * Execute one pre-bound body/slot uop (never a terminator). Identical
 * architectural and timing semantics to Machine::execute, minus the
 * work the translator already did: operand binding, hazard-check
 * narrowing (the ChkRs flags of the set at `Shift`), and the t+1
 * ready-time writes of single-cycle producers that no issue can
 * observe (all but the KeepReady ones). Returns true iff the uop
 * halted the machine; only Trap can, so every other case folds to a
 * constant once this is inlined into the dispatch loop.
 */
template <unsigned Shift, bool Traced>
[[gnu::always_inline]] inline bool
Machine::execUop(const Uop &u)
{
    const FpLatencies &fpu = config_.fpu;
    const uint8_t f = static_cast<uint8_t>(u.flags >> Shift);
    const uint32_t imm = static_cast<uint32_t>(u.imm);

    switch (u.op) {
      // One case per ALU op: the op is a constant of its case, so
      // alu() folds instead of dispatching a second time.
      case Op::Add: aluUop<Op::Add>(u, f, gpr_[u.rs2]); break;
      case Op::Sub: aluUop<Op::Sub>(u, f, gpr_[u.rs2]); break;
      case Op::And: aluUop<Op::And>(u, f, gpr_[u.rs2]); break;
      case Op::Or: aluUop<Op::Or>(u, f, gpr_[u.rs2]); break;
      case Op::Xor: aluUop<Op::Xor>(u, f, gpr_[u.rs2]); break;
      case Op::Shl: aluUop<Op::Shl>(u, f, gpr_[u.rs2]); break;
      case Op::Shr: aluUop<Op::Shr>(u, f, gpr_[u.rs2]); break;
      case Op::Shra: aluUop<Op::Shra>(u, f, gpr_[u.rs2]); break;

      case Op::Neg: case Op::Inv: case Op::Mv: {
        if (f & Uop::Chk)
            uopGprStall(u, f);
        ++cycle_;
        const uint32_t a = gpr_[u.rs1];
        writeGpr(u.rd, u.op == Op::Neg ? 0u - a :
                       u.op == Op::Inv ? ~a : a);
        break;
      }

      case Op::AddI: aluUop<Op::AddI>(u, f, imm); break;
      case Op::SubI: aluUop<Op::SubI>(u, f, imm); break;
      case Op::AndI: aluUop<Op::AndI>(u, f, imm); break;
      case Op::OrI: aluUop<Op::OrI>(u, f, imm); break;
      case Op::XorI: aluUop<Op::XorI>(u, f, imm); break;
      case Op::ShlI: aluUop<Op::ShlI>(u, f, imm); break;
      case Op::ShrI: aluUop<Op::ShrI>(u, f, imm); break;
      case Op::ShraI: aluUop<Op::ShraI>(u, f, imm); break;

      case Op::MvI:  // MvHI folded in at translation
        ++cycle_;
        writeGpr(u.rd, static_cast<uint32_t>(u.imm));
        break;

      case Op::Cmp:
        if (f & Uop::Chk)
            uopGprStall(u, f);
        ++cycle_;
        writeGpr(u.rd,
                 isa::evalCond(u.cond, gpr_[u.rs1], gpr_[u.rs2]) ? 1 : 0);
        break;

      case Op::CmpI:
        if (f & Uop::Chk)
            uopGprStall(u, f);
        ++cycle_;
        writeGpr(u.rd,
                 isa::evalCond(u.cond, gpr_[u.rs1],
                               static_cast<uint32_t>(u.imm)) ? 1 : 0);
        break;

      case Op::Ld: case Op::Ldh: case Op::Ldhu:
      case Op::Ldb: case Op::Ldbu: {
        if (f & Uop::Chk)
            uopGprStall(u, f);
        const uint64_t t = ++cycle_;
        const uint32_t ea = gpr_[u.rs1] + static_cast<uint32_t>(u.imm);
        const uint32_t v = loadValue(u.op, ea);
        stats_.loads += 1;
        if constexpr (Traced)
            traceSink_->data(ea, static_cast<int>(u.aux), false);
        writeGpr(u.rd, v);
        setGprReady(u.rd, t + loadDelta_);  // load delay slot(s)
        break;
      }

      case Op::St: case Op::Sth: case Op::Stb: {
        if (f & Uop::Chk)
            uopGprStall(u, f, config_.uarch.forward);
        ++cycle_;
        const uint32_t ea = gpr_[u.rs1] + static_cast<uint32_t>(u.imm);
        storeValue(u.op, ea, gpr_[u.rs2]);
        stats_.stores += 1;
        if constexpr (Traced)
            traceSink_->data(ea, static_cast<int>(u.aux), true);
        break;
      }

      case Op::Ldc: {
        const uint64_t t = ++cycle_;
        const uint32_t ea = static_cast<uint32_t>(u.imm);  // pre-bound
        const uint32_t v = memory_.read32(ea);
        stats_.loads += 1;
        if constexpr (Traced)
            traceSink_->data(ea, 4, false);
        writeGpr(0, v);
        setGprReady(0, t + loadDelta_);
        break;
      }

      case Op::FAddS: case Op::FSubS: case Op::FMulS: case Op::FDivS: {
        stats_.fpOps += 1;
        stallThisInsn_ = 0;
        useFpr(u.rs1);
        useFpr(u.rs2);
        const uint64_t t = finishIssue();
        const float a = asFloat(fpr_[u.rs1]);
        const float b = asFloat(fpr_[u.rs2]);
        float r = 0;
        int lat = fpu.addSub;
        switch (u.op) {
          case Op::FAddS: r = a + b; break;
          case Op::FSubS: r = a - b; break;
          case Op::FMulS: r = a * b; lat = fpu.mul; break;
          default: r = a / b; lat = fpu.divS; break;
        }
        fpr_[u.rd] = fromFloat(r);
        setFprReady(u.rd, t + lat);
        break;
      }

      case Op::FAddD: case Op::FSubD: case Op::FMulD: case Op::FDivD: {
        stats_.fpOps += 1;
        stallThisInsn_ = 0;
        useFpr(u.rs1);
        useFpr(u.rs2);
        const uint64_t t = finishIssue();
        const double a = asDouble(fpr_[u.rs1]);
        const double b = asDouble(fpr_[u.rs2]);
        double r = 0;
        int lat = fpu.addSub;
        switch (u.op) {
          case Op::FAddD: r = a + b; break;
          case Op::FSubD: r = a - b; break;
          case Op::FMulD: r = a * b; lat = fpu.mul; break;
          default: r = a / b; lat = fpu.divD; break;
        }
        fpr_[u.rd] = fromDouble(r);
        setFprReady(u.rd, t + lat);
        break;
      }

      case Op::FNegS: case Op::FNegD: case Op::FMv: {
        stats_.fpOps += 1;
        stallThisInsn_ = 0;
        useFpr(u.rs1);
        const uint64_t t = finishIssue();
        if (u.op == Op::FNegS)
            fpr_[u.rd] = fromFloat(-asFloat(fpr_[u.rs1]));
        else if (u.op == Op::FNegD)
            fpr_[u.rd] = fromDouble(-asDouble(fpr_[u.rs1]));
        else
            fpr_[u.rd] = fpr_[u.rs1];
        setFprReady(u.rd, t + (u.op == Op::FMv ? fpu.move : fpu.addSub));
        break;
      }

      case Op::FCmpS: case Op::FCmpD: {
        stats_.fpOps += 1;
        stallThisInsn_ = 0;
        useFpr(u.rs1);
        useFpr(u.rs2);
        const uint64_t t = finishIssue();
        const bool r =
            u.op == Op::FCmpS
                ? isa::evalCondFp(u.cond, asFloat(fpr_[u.rs1]),
                                  asFloat(fpr_[u.rs2]))
                : isa::evalCondFp(u.cond, asDouble(fpr_[u.rs1]),
                                  asDouble(fpr_[u.rs2]));
        fpStatus_ = r ? 1 : 0;
        statusReady_ = t + fpu.compare;
        break;
      }

      case Op::CvtSiSf: case Op::CvtSiDf: case Op::CvtSfDf:
      case Op::CvtDfSf: case Op::CvtSfSi: case Op::CvtDfSi: {
        stats_.fpOps += 1;
        stallThisInsn_ = 0;
        useFpr(u.rs1);
        const uint64_t t = finishIssue();
        fpr_[u.rd] = convert(u.op, fpr_[u.rs1]);
        setFprReady(u.rd, t + fpu.convert);
        break;
      }

      case Op::MifL: case Op::MifH: {
        stats_.fpOps += 1;
        stallThisInsn_ = 0;
        if (f & Uop::ChkRs1)
            useGpr(u.rs1);
        useFpr(u.rd);  // partial update reads the other half
        const uint64_t t = finishIssue();
        const uint64_t g = gpr_[u.rs1];
        if (u.op == Op::MifL)
            fpr_[u.rd] = (fpr_[u.rd] & 0xffffffff00000000ull) | g;
        else
            fpr_[u.rd] = (fpr_[u.rd] & 0xffffffffull) | (g << 32);
        setFprReady(u.rd, t + fpu.move);
        break;
      }

      case Op::MfiL: case Op::MfiH: {
        stats_.fpOps += 1;
        stallThisInsn_ = 0;
        useFpr(u.rs1);
        finishIssue();
        const uint64_t f = fpr_[u.rs1];
        writeGpr(u.rd, u.op == Op::MfiL
                           ? static_cast<uint32_t>(f)
                           : static_cast<uint32_t>(f >> 32));
        break;
      }

      case Op::Trap:
        stats_.traps += 1;
        if (f & Uop::Chk)
            uopGprStall(u, f);  // rs1 normalized to r2 at translation
        ++cycle_;
        doTrap(u.imm);
        if (f & Uop::KeepReady)
            setGprReady(u.rd, cycle_ + 1);
        return halted_;

      case Op::Rdsr:
        stallThisInsn_ = 0;
        useStatus();
        finishIssue();
        writeGpr(u.rd, fpStatus_);
        break;

      case Op::Nop:
        ++cycle_;
        break;

      default:
        panic("block engine: unexpected op in a compiled block");
    }
    if (f & Uop::KeepReady)
        setGprReady(u.rd, cycle_ + 1);
    return false;
}

void
TraceSink::flush()
{
    if (runCount_ == 0) {
        handOver(0);
        return;
    }
    const FetchRun open = runs_[runCount_ - 1];
    handOver(runCount_ - 1);
    runs_[runCount_++] = open;
}

void
TraceSink::handOver(uint32_t runs)
{
    fold_.feed({{runs_.data(), runs},
                {accesses_.data(), accessCount_},
                {outcomes_.data(), outcomeCount_}});
    runCount_ = accessCount_ = outcomeCount_ = 0;
}

/** The delay slot: one per terminated block, kept out of line so each
 *  dispatch loop inlines execUop once, for its body uops. */
template <unsigned Shift, bool Traced>
[[gnu::noinline]] bool
Machine::execSlot(const Uop &u)
{
    return execUop<Shift, Traced>(u);
}

bool
Machine::runBlocks()
{
    static_assert(UarchConfig::MaxLoadDelay == 2,
                  "one dispatch loop per load delay");
    constexpr unsigned D1 = Uop::flagShift(1);
    constexpr unsigned D2 = Uop::flagShift(2);
    if (traceSink_)
        return hazardShift_ == D1 ? dispatchBlocks<D1, true>()
                                  : dispatchBlocks<D2, true>();
    return hazardShift_ == D1 ? dispatchBlocks<D1, false>()
                              : dispatchBlocks<D2, false>();
}

/**
 * Dispatch compiled blocks from pc_ until the machine halts (true) or
 * the current pc needs step() — unclaimed/misaligned pc, a NeedsStep
 * block, or an instruction-limit crossing (false). Entered only with
 * no delay slot or shadow pending; leaves none pending (every
 * compiled block either ends before its terminator or consumes the
 * shadow with its own slot). One instance per (hazard flag set,
 * TraceSink attached): the flag shift is a constant and an untraced
 * loop carries no sink test.
 */
template <unsigned Shift, bool Traced>
bool
Machine::dispatchBlocks()
{
    const BlockProgram &bp = *blocks_;
    const uint32_t ib = static_cast<uint32_t>(target_->insnBytes());

    // The next block: the chained successor of the edge just taken, or
    // -1 to look pc_ up (on entry, and after register-target or
    // unchained edges).
    int32_t id = -1;
    while (true) {
        if (id < 0) {
            if (pc_ == 0) {
                // Halt sentinel: the startup return address.
                halted_ = true;
                exitStatus_ = static_cast<int>(gpr_[2]);
                return true;
            }
            id = bp.blockAt(pc_);
            if (id < 0 || bp.block(id).needsStep)
                return false;
        }
        const BlockProgram::Block &b = bp.block(id);

        const uint64_t n = b.count;
        if (stats_.instructions + n > limitCheckAt_) {
            // Crossing maxInstructions inside a block: hand the block
            // to step() so the limit fires at the precise instruction.
            if (stats_.instructions + n > config_.maxInstructions)
                return false;
            limitCheckAt_ = std::min(config_.maxInstructions,
                                     stats_.instructions +
                                         LimitCheckInterval);
        }
        stats_.instructions += n;
        blockInstructions_ += n;

        // How many of the block's n instructions have retired,
        // counting the one in flight, so both a mid-block halt trap
        // and a faulting uop (memory error -> FatalError) can back out
        // the unexecuted tail — step() counts the faulting instruction
        // and the block path must report identical stats. In the body
        // it follows from the uop pointer, which the fault path reads;
        // `executed` is set once the body is done.
        const Uop *const body = bp.uops(b);
        const Uop *const end = body + b.uopCount;
        const Uop *u = body;
        uint64_t executed = 0;
        try {

        for (; u != end; ++u) {
            if (execUop<Shift, Traced>(*u)) {
                // Halt trap mid-block: back out the unexecuted tail.
                executed = static_cast<uint64_t>(u - body) + 1;
                stats_.instructions -= n - executed;
                blockInstructions_ -= n - executed;
                // step() leaves pc_ just past a halting instruction.
                pc_ = b.startPc + static_cast<uint32_t>(executed) * ib;
                if constexpr (Traced)
                    traceSink_->fetch(
                        b.startPc, static_cast<uint32_t>(executed));
                return true;
            }
        }

        if (!b.hasTerm) {
            // Straight-line block: fall through to the next address
            // (which may be pool data — then the next iteration's
            // lookup fails and step() takes over, as in step mode).
            executed = n;
            pc_ = b.fallThroughPc;
            id = b.fallId;
            if constexpr (Traced)
                traceSink_->fetch(b.startPc, b.count);
            continue;
        }

        // Terminator: compute taken/target, then the folded delay
        // slot. takenBranches increments before the slot executes,
        // matching step()'s ordering.
        const Uop &cf = b.term;
        const uint32_t cfPc = b.startPc + b.uopCount * ib;
        executed = b.uopCount + 1;
        stats_.branches += 1;
        const uint8_t cff = static_cast<uint8_t>(cf.flags >> Shift);
        if (cff & Uop::Chk)
            uopGprStall(cf, cff);
        ++cycle_;
        bool taken = true;
        uint32_t target = static_cast<uint32_t>(cf.imm);
        switch (cf.op) {
          case Op::Br: case Op::J:
            resolveJump(cfPc);
            break;
          case Op::Jl:
            resolveJump(cfPc);
            writeGpr(1, cf.aux);  // pre-bound link value
            break;
          case Op::Jr: case Op::Jlr:
            resolveJump(cfPc);
            target = gpr_[cf.rs1];
            if (cf.op == Op::Jlr)
                writeGpr(1, cf.aux);
            break;
          case Op::Bz: case Op::Bnz:
            taken = (gpr_[cf.rs1] == 0) == (cf.op == Op::Bz);
            resolveCond(cfPc, taken);
            break;
          case Op::Jrz: case Op::Jrnz:
            taken = (gpr_[cf.rs2] == 0) == (cf.op == Op::Jrz);
            resolveCond(cfPc, taken);
            target = gpr_[cf.rs1];
            break;
          default:
            panic("block engine: bad terminator op");
        }
        if (cff & Uop::KeepReady)
            setGprReady(cf.rd, cycle_ + 1);  // the Jl/Jlr link
        if (taken)
            stats_.takenBranches += 1;

        executed = n;
        const bool slotHalted = execSlot<Shift, Traced>(b.slot);
        if (b.slotBubble)
            stats_.branchBubbles += 1;
        if constexpr (Traced)
            traceSink_->fetch(b.startPc, b.count);
        // On a delay-slot halt trap this matches step(), which applies
        // the pending redirect in its epilogue before noticing halted_.
        pc_ = taken ? target : b.fallThroughPc;
        if (slotHalted)
            return true;
        id = taken ? b.takenId : b.fallId;

        } catch (...) {
            // A faulting uop (memory error): restore the exact stats
            // and pc step() would report for the same fault — execute()
            // only advances pc_ in its epilogue, so step() faults with
            // pc_ still at the offending instruction.
            if (executed == 0)
                executed = static_cast<uint64_t>(u - body) + 1;
            stats_.instructions -= n - executed;
            blockInstructions_ -= n - executed;
            pc_ = b.startPc + static_cast<uint32_t>(executed - 1) * ib;
            throw;
        }
    }
}

} // namespace d16sim::sim
