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
    // terminator and its slot. On an r0-is-zero target a write of r0
    // goes to the machine's never-read R0Sink entry (an op writing no
    // GPR has a Sink slot too, and ignores its rd).
    std::vector<Uop> seq;
    std::vector<IssueSlot> slots;
    seq.reserve(span.count);
    slots.reserve(span.count);
    for (uint32_t i = 0; i < span.count; ++i) {
        seq.push_back(makeUop(t, text.at(idx0 + i), span.startPc + i * ib));
        slots.push_back(issueSlot(t, text.at(idx0 + i)));
        if (t.r0IsZero() && slots.back().dst == IssueSlot::Sink &&
            seq.back().rd == 0)
            seq.back().rd = Uop::R0Sink;
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
        // A bubble does nothing but issue: Op::Nop, which dispatch
        // retires inline. It keeps its hazard flags, since a D16
        // mv r0,r0 behind an ldc can stall on r0.
        if (b.slotBubble)
            b.slot.op = Op::Nop;
    }
    finish(false);
}

// ----- Machine dispatch ------------------------------------------------

/** GPR hazard check for the sources of `u` flagged in `flags` (its
 *  hazard set for this machine's load delay), against the dispatch
 *  loop's `cycle`. Mirrors useGpr + finishIssue's stall arithmetic for
 *  the loadInterlocks case (ties and maxima resolve identically: both
 *  sources attribute to the load interlock counter), including
 *  execute()'s store-data bypass when `forwardRs2`. The caller adds
 *  the base issue cycle. */
[[gnu::always_inline]] inline void
Machine::uopGprStall(const Uop &u, uint8_t flags, uint64_t &cycle,
                     bool forwardRs2)
{
    const uint64_t issue = cycle + 1;
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
        cycle += stall;
    }
}

/** An integer ALU uop, register or immediate form (`b`). */
template <isa::Op O>
[[gnu::always_inline]] inline void
Machine::aluUop(const Uop &u, uint8_t flags, uint64_t &cycle, uint32_t b)
{
    if (flags & Uop::Chk)
        uopGprStall(u, flags, cycle);
    ++cycle;
    gpr_[u.rd] = alu(O, gpr_[u.rs1], b);
}

/** A load or store uop of width `O`. It records itself (inflight_,
 *  cycle_) before it can fault, and the trace sink makes room (a
 *  possible flush call) before the access is computed, so no value of
 *  it lives across that call. */
template <isa::Op O, bool Traced>
[[gnu::always_inline]] inline void
Machine::memUop(const Uop &u, uint8_t flags, uint64_t &cycle)
{
    constexpr bool store = O == Op::St || O == Op::Sth || O == Op::Stb;
    if (flags & Uop::Chk)
        uopGprStall(u, flags, cycle, store && config_.uarch.forward);
    ++cycle;
    inflight_ = &u;
    cycle_ = cycle;
    if constexpr (Traced)
        traceSink_->reserveData();
    const uint32_t ea = gpr_[u.rs1] + static_cast<uint32_t>(u.imm);
    if constexpr (store) {
        storeValue(O, ea, gpr_[u.rs2]);
        stats_.stores += 1;
    } else {
        gpr_[u.rd] = loadValue(O, ea);
        gprReady_[u.rd] = cycle + loadDelta_;  // load delay slot(s)
        stats_.loads += 1;
    }
    if constexpr (Traced)
        traceSink_->appendData(ea, static_cast<int>(u.aux), store);
}

/**
 * Execute one pre-bound body/slot uop (never a terminator). Identical
 * architectural and timing semantics to Machine::execute, minus the
 * work the translator already did: operand binding, hazard-check
 * narrowing (the ChkRs flags of the set at `Shift`), the t+1
 * ready-time writes of single-cycle producers that no issue can
 * observe (all but the KeepReady ones), and the r0 test (a DLXe r0
 * write targets Uop::R0Sink). `cycle` is the dispatch loop's issue
 * cycle. Only the integer, memory and nop uops are inlined; the rest
 * go to execSlowUop() through cycle_, which keeps this switch small
 * enough that the loop's uop pointer stays in a register. A uop that
 * may throw records itself in inflight_ and writes the cycle back
 * first, for backOutBlockFault(). Returns true iff the uop halted the
 * machine; only a trap can.
 */
template <unsigned Shift, bool Traced>
[[gnu::always_inline]] inline bool
Machine::execUop(const Uop &u, uint64_t &cycle)
{
    const uint8_t f = static_cast<uint8_t>(u.flags >> Shift);
    const uint32_t imm = static_cast<uint32_t>(u.imm);

    switch (u.op) {
      // One case per ALU op: the op is a constant of its case, so
      // alu() folds instead of dispatching a second time.
      case Op::Add: aluUop<Op::Add>(u, f, cycle, gpr_[u.rs2]); break;
      case Op::Sub: aluUop<Op::Sub>(u, f, cycle, gpr_[u.rs2]); break;
      case Op::And: aluUop<Op::And>(u, f, cycle, gpr_[u.rs2]); break;
      case Op::Or: aluUop<Op::Or>(u, f, cycle, gpr_[u.rs2]); break;
      case Op::Xor: aluUop<Op::Xor>(u, f, cycle, gpr_[u.rs2]); break;
      case Op::Shl: aluUop<Op::Shl>(u, f, cycle, gpr_[u.rs2]); break;
      case Op::Shr: aluUop<Op::Shr>(u, f, cycle, gpr_[u.rs2]); break;
      case Op::Shra: aluUop<Op::Shra>(u, f, cycle, gpr_[u.rs2]); break;

      case Op::Neg: case Op::Inv: case Op::Mv: {
        if (f & Uop::Chk)
            uopGprStall(u, f, cycle);
        ++cycle;
        const uint32_t a = gpr_[u.rs1];
        gpr_[u.rd] = u.op == Op::Neg ? 0u - a : u.op == Op::Inv ? ~a : a;
        break;
      }

      case Op::AddI: aluUop<Op::AddI>(u, f, cycle, imm); break;
      case Op::SubI: aluUop<Op::SubI>(u, f, cycle, imm); break;
      case Op::AndI: aluUop<Op::AndI>(u, f, cycle, imm); break;
      case Op::OrI: aluUop<Op::OrI>(u, f, cycle, imm); break;
      case Op::XorI: aluUop<Op::XorI>(u, f, cycle, imm); break;
      case Op::ShlI: aluUop<Op::ShlI>(u, f, cycle, imm); break;
      case Op::ShrI: aluUop<Op::ShrI>(u, f, cycle, imm); break;
      case Op::ShraI: aluUop<Op::ShraI>(u, f, cycle, imm); break;

      case Op::MvI:  // MvHI folded in at translation
        ++cycle;
        gpr_[u.rd] = imm;
        break;

      case Op::Cmp:
        if (f & Uop::Chk)
            uopGprStall(u, f, cycle);
        ++cycle;
        gpr_[u.rd] = isa::evalCond(u.cond, gpr_[u.rs1], gpr_[u.rs2]) ? 1 : 0;
        break;

      case Op::CmpI:
        if (f & Uop::Chk)
            uopGprStall(u, f, cycle);
        ++cycle;
        gpr_[u.rd] = isa::evalCond(u.cond, gpr_[u.rs1], imm) ? 1 : 0;
        break;

      // One case per load and store width too, so the access folds
      // to its width. No memory uop keeps a t+1 ready time.
      case Op::Ld: memUop<Op::Ld, Traced>(u, f, cycle); return false;
      case Op::Ldh: memUop<Op::Ldh, Traced>(u, f, cycle); return false;
      case Op::Ldhu: memUop<Op::Ldhu, Traced>(u, f, cycle); return false;
      case Op::Ldb: memUop<Op::Ldb, Traced>(u, f, cycle); return false;
      case Op::Ldbu: memUop<Op::Ldbu, Traced>(u, f, cycle); return false;
      case Op::St: memUop<Op::St, Traced>(u, f, cycle); return false;
      case Op::Sth: memUop<Op::Sth, Traced>(u, f, cycle); return false;
      case Op::Stb: memUop<Op::Stb, Traced>(u, f, cycle); return false;

      case Op::Ldc: {
        ++cycle;
        inflight_ = &u;
        cycle_ = cycle;
        if constexpr (Traced)
            traceSink_->reserveData();
        const auto ea = static_cast<uint32_t>(u.imm);  // pre-bound
        gpr_[u.rd] = memory_.read32(ea);
        gprReady_[u.rd] = cycle + loadDelta_;
        stats_.loads += 1;
        if constexpr (Traced)
            traceSink_->appendData(ea, 4, false);
        return false;
      }

      case Op::Nop:
        ++cycle;
        break;

      default: {
        // FP, status and trap uops: out of line, on cycle_.
        cycle_ = cycle;
        const bool halted = execSlowUop(u);
        cycle = cycle_;
        return halted;
      }
    }
    if (f & Uop::KeepReady)
        gprReady_[u.rd] = cycle + 1;
    return false;
}

/** The uops execUop() keeps out of its inlined switch — FP, FP status
 *  and trap — run as execute() runs them (executeFpOrTrap), on cycle_.
 *  Exact with the full scoreboard: the hazard flags only narrow which
 *  checks can stall, and the t+1 ready writes they elide are never
 *  observable. Returns true iff a trap halted. */
[[gnu::noinline]] bool
Machine::execSlowUop(const Uop &u)
{
    inflight_ = &u;  // a trap service may fault
    isa::DecodedInst inst;
    inst.op = u.op;
    inst.cond = u.cond;
    inst.rd = u.rd;
    inst.rs1 = u.rs1;
    inst.rs2 = u.rs2;
    inst.imm = u.imm;
    stallThisInsn_ = 0;
    executeFpOrTrap(inst);
    return halted_;
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

/** A delay slot with real work (a nop slot retires inline in the
 *  dispatch loop), kept out of line so each dispatch loop inlines
 *  execUop once, for its body uops. Returns the issue cycle; a halt
 *  shows in halted_. */
template <unsigned Shift, bool Traced>
[[gnu::noinline]] uint64_t
Machine::execSlot(const Uop &u, uint64_t cycle)
{
    execUop<Shift, Traced>(u, cycle);
    return cycle;
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
 * A block's uop threw (a memory error or a failing trap service, as a
 * FatalError; or its trace sink's fold): restore the exact stats and pc
 * step() would report for the same fault — step() counts the faulting
 * instruction, and execute() only advances pc_ in its epilogue, so
 * step() faults with pc_ still at the offending instruction. Reads
 * members only (blockInFlight_, inflight_); the throwing uop already
 * wrote the cycle back.
 */
void
Machine::backOutBlockFault()
{
    const BlockProgram::Block &b = *blockInFlight_;
    uint64_t executed = b.count;  // null: the block's closing fetch
    if (inflight_ == &b.term)
        executed = b.uopCount + 1;
    else if (inflight_ && inflight_ != &b.slot)
        executed = static_cast<uint64_t>(inflight_ - blocks_->uops(b)) + 1;
    stats_.instructions -= b.count - executed;
    pc_ = b.startPc +
          static_cast<uint32_t>(executed - 1) *
              static_cast<uint32_t>(target_->insnBytes());
}

/**
 * Dispatch compiled blocks from pc_ until the machine halts (true) or
 * the current pc needs step() — unclaimed/misaligned pc, a NeedsStep
 * block, or an instruction-limit crossing (false). Entered only with
 * no delay slot or shadow pending; leaves none pending (every
 * compiled block either ends before its terminator or consumes the
 * shadow with its own slot). One instance per (hazard flag set,
 * TraceSink attached): the flag shift is a constant and an untraced
 * loop carries no sink test. The issue cycle lives in a local for the
 * whole loop and goes back to cycle_ at every exit.
 */
template <unsigned Shift, bool Traced>
bool
Machine::dispatchBlocks()
{
    const BlockProgram &bp = *blocks_;
    const uint32_t ib = static_cast<uint32_t>(target_->insnBytes());
    // The policy's cost of an unconditional transfer is a constant of
    // the machine (BranchModel::jump).
    const auto jumpStall = static_cast<uint64_t>(std::max(0, branch_.jump()));
    uint64_t cycle = cycle_;

    // The next block: the chained successor of the edge just taken, or
    // -1 to look pc_ up (on entry, and after register-target or
    // unchained edges).
    int32_t id = -1;
    try {
    while (true) {
        if (id < 0) {
            if (pc_ == 0) {
                // Halt sentinel: the startup return address.
                halted_ = true;
                exitStatus_ = static_cast<int>(gpr_[2]);
                cycle_ = cycle;
                return true;
            }
            id = bp.blockAt(pc_);
            if (id < 0 || bp.block(id).needsStep) {
                cycle_ = cycle;
                return false;
            }
        }
        const Uop *u;
        const Uop *end;
        {
            const BlockProgram::Block &b = bp.block(id);
            const uint64_t n = b.count;
            if (stats_.instructions + n > limitCheckAt_) {
                // Crossing maxInstructions inside a block: hand the
                // block to step() so the limit fires at the precise
                // instruction.
                if (stats_.instructions + n > config_.maxInstructions) {
                    cycle_ = cycle;
                    return false;
                }
                limitCheckAt_ = std::min(config_.maxInstructions,
                                         stats_.instructions +
                                             LimitCheckInterval);
            }
            // Batched per block; a mid-block halt trap and a fault
            // (backOutBlockFault) back out the unexecuted tail, since
            // step() counts exactly the instructions up to the halting
            // or faulting one.
            stats_.instructions += n;
            blockInFlight_ = &b;
            u = bp.uops(b);
            end = u + b.uopCount;
        }
        for (; u != end; ++u) {
            if (execUop<Shift, Traced>(*u, cycle)) {
                // Halt trap mid-block (the trap wrote the cycle back):
                // back out the unexecuted tail, after the fetch append
                // so a throwing fold backs it out once.
                const BlockProgram::Block &b = *blockInFlight_;
                const auto executed =
                    static_cast<uint32_t>(u - bp.uops(b)) + 1;
                if constexpr (Traced)
                    traceSink_->fetch(b.startPc, executed);
                stats_.instructions -= b.count - executed;
                // step() leaves pc_ just past a halting instruction.
                pc_ = b.startPc + executed * ib;
                return true;
            }
        }
        // The block comes back from blockInFlight_ rather than staying
        // live across the uop loop, which keeps a register free there.
        const BlockProgram::Block &b = *blockInFlight_;

        if (!b.hasTerm) {
            // Straight-line block: fall through to the next address
            // (which may be pool data — then the next iteration's
            // lookup fails and step() takes over, as in step mode).
            pc_ = b.fallThroughPc;
            id = b.fallId;
            if constexpr (Traced) {
                inflight_ = nullptr;
                cycle_ = cycle;
                traceSink_->fetch(b.startPc, b.count);
            }
            continue;
        }

        // Terminator: compute taken/target and apply the branch policy
        // inline (execute()'s resolveCond/resolveJump), then the folded
        // delay slot. takenBranches
        // increments before the slot executes, matching step()'s
        // ordering.
        const Uop &cf = b.term;
        const uint32_t cfPc = b.startPc + b.uopCount * ib;
        stats_.branches += 1;
        const uint8_t cff = static_cast<uint8_t>(cf.flags >> Shift);
        if (cff & Uop::Chk)
            uopGprStall(cf, cff, cycle);
        ++cycle;
        bool taken = true;
        bool conditional = false;
        uint32_t target = static_cast<uint32_t>(cf.imm);
        switch (cf.op) {
          case Op::Br: case Op::J:
            break;
          case Op::Jl:
            gpr_[1] = cf.aux;  // pre-bound link value
            break;
          case Op::Jr: case Op::Jlr:
            target = gpr_[cf.rs1];
            if (cf.op == Op::Jlr)
                gpr_[1] = cf.aux;
            break;
          case Op::Bz: case Op::Bnz:
            taken = (gpr_[cf.rs1] == 0) == (cf.op == Op::Bz);
            conditional = true;
            break;
          case Op::Jrz: case Op::Jrnz:
            taken = (gpr_[cf.rs2] == 0) == (cf.op == Op::Jrz);
            conditional = true;
            target = gpr_[cf.rs1];
            break;
          default:
            inflight_ = &cf;
            panic("block engine: bad terminator op");
        }
        if (conditional) {
            stats_.condBranches += 1;
            if constexpr (Traced) {
                inflight_ = &cf;
                cycle_ = cycle;
                traceSink_->outcome(cfPc, taken);
            }
            bool mispredicted = false;
            const int stall = branch_.conditional(cfPc, taken, mispredicted);
            if (stall > 0)
                stats_.branchStalls += static_cast<uint64_t>(stall);
            if (mispredicted)
                stats_.mispredicts += 1;
        } else if (jumpStall) {
            stats_.branchStalls += jumpStall;
        }
        if (cff & Uop::KeepReady)
            gprReady_[cf.rd] = cycle + 1;  // the Jl/Jlr link
        if (taken)
            stats_.takenBranches += 1;

        // A nop slot is Op::Nop (see translate()): its hazard check
        // and one issue cycle, retired inline.
        bool slotHalted = false;
        if (b.slot.op == Op::Nop) {
            const uint8_t sf = static_cast<uint8_t>(b.slot.flags >> Shift);
            if (sf & Uop::Chk)
                uopGprStall(b.slot, sf, cycle);
            ++cycle;
        } else {
            cycle = execSlot<Shift, Traced>(b.slot, cycle);
            slotHalted = halted_;
        }
        if (b.slotBubble)
            stats_.branchBubbles += 1;
        if constexpr (Traced) {
            inflight_ = nullptr;
            cycle_ = cycle;
            traceSink_->fetch(b.startPc, b.count);
        }
        // On a delay-slot halt trap this matches step(), which applies
        // the pending redirect in its epilogue before noticing halted_.
        pc_ = taken ? target : b.fallThroughPc;
        if (slotHalted) {
            cycle_ = cycle;
            return true;
        }
        id = taken ? b.takenId : b.fallId;
    }
    } catch (...) {
        backOutBlockFault();
        throw;
    }
}

} // namespace d16sim::sim
