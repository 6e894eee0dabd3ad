#include "sim/machine.hh"

#include <algorithm>
#include <cstdio>

#include "isa/codec.hh"
#include "sim/trap.hh"
#include "support/bits.hh"
#include "support/strings.hh"

namespace d16sim::sim
{

using isa::Cond;
using isa::DecodedInst;
using isa::Op;
using isa::OpClass;

Machine::Machine(const assem::Image &image, MachineConfig config,
                 std::shared_ptr<const DecodedText> predecoded)
    : target_(image.target),
      config_(config),
      memory_(config.memBytes)
{
    panicIf(!target_, "image has no target");
    r0IsZero_ = target_->r0IsZero();
    memory_.loadImage(image);
    pc_ = image.entry;
    textBase_ = image.textBase;
    textEnd_ = image.textBase + image.textSize;
    text_ = predecoded ? std::move(predecoded)
                       : std::make_shared<const DecodedText>(image);
    panicIf(text_->base() != textBase_,
            "predecoded table does not match image");
    limitCheckAt_ = std::min(config_.maxInstructions, LimitCheckInterval);

    loadDelta_ = 1 + static_cast<uint64_t>(config_.uarch.loadDelay());
    hazardShift_ = Uop::flagShift(config_.uarch.loadDelay());
    branch_ = BranchModel(config_.uarch, text_->insnShift());

    // ABI environment the startup stub would otherwise establish:
    // stack at the top of memory, gp at the data segment, return into
    // the halt sentinel (address 0).
    gpr_[target_->spReg()] = memory_.size();
    gpr_[target_->gpReg()] = image.dataBase;
    gpr_[target_->raReg()] = 0;
    heapPtr_ = static_cast<uint32_t>(
        roundUp(image.dataBase + image.dataSize, 8));
}

float
Machine::fregS(int r) const
{
    return asFloat(fpr_[r]);
}

double
Machine::fregD(int r) const
{
    return asDouble(fpr_[r]);
}

const DecodedInst &
Machine::decoded(uint32_t pc)
{
    // Hot path: one shift, one bounds check, one table load. A pc
    // below textBase_ wraps to a huge index and lands in the slow path.
    const uint32_t idx = (pc - textBase_) >> text_->insnShift();
    if (idx < text_->size() && text_->valid(idx))
        return text_->at(idx);

    if (pc < textBase_ || pc >= textEnd_)
        fatal("pc ", hexString(pc), " outside text section");
    // Executing a word that is not an emitted instruction (in-text pool
    // data): decode the raw memory word as before the predecode table.
    const uint32_t word = target_->insnBytes() == 2 ? memory_.read16(pc)
                                                    : memory_.read32(pc);
    scratch_ = isa::decode(*target_, word);
    return scratch_;
}

int
Machine::run()
{
    // The guard on the delay-slot/shadow flags keeps a pending
    // transfer (from a step()-executed branch) in step()'s hands until
    // it resolves.
    if (blocks_) {
        while (!halted_) {
            if (!inDelaySlot_ && !inCfShadow_ && runBlocks())
                break;
            if (!step())
                break;
        }
        return exitStatus_;
    }
    while (step()) {
    }
    return exitStatus_;
}

bool
Machine::step()
{
    if (halted_)
        return false;
    if (pc_ == 0) {
        // Halt sentinel: the startup return address.
        halted_ = true;
        exitStatus_ = static_cast<int>(gpr_[2]);
        return false;
    }
    if (stats_.instructions >= limitCheckAt_) {
        if (stats_.instructions >= config_.maxInstructions)
            fatal("instruction limit exceeded (runaway program?)");
        limitCheckAt_ = std::min(config_.maxInstructions,
                                 stats_.instructions + LimitCheckInterval);
    }

    const DecodedInst &inst = decoded(pc_);
    if (traceSink_)
        traceSink_->fetch(pc_, 1);

    stats_.instructions += 1;
    stepInstructions_ += 1;
    const bool shadow = inCfShadow_;
    inCfShadow_ = false;  // re-armed by execute() for branches/jumps
    stallThisInsn_ = 0;
    execute(inst);
    if (shadow && isa::isCanonicalNop(*target_, inst))
        stats_.branchBubbles += 1;

    return !halted_;
}

void
Machine::execute(const DecodedInst &inst)
{
    const Op op = inst.op;
    const int ib = target_->insnBytes();
    const uint32_t pc = pc_;
    bool taken = false;
    uint32_t target = 0;

    // Scoreboard bookkeeping happens alongside execution; useX() calls
    // must precede the commit of this instruction's issue time
    // (finishIssue()).

    auto dataRead = [&](uint32_t addr, int size) {
        stats_.loads += 1;
        if (traceSink_)
            traceSink_->data(addr, size, false);
    };
    auto dataWrite = [&](uint32_t addr, int size) {
        stats_.stores += 1;
        if (traceSink_)
            traceSink_->data(addr, size, true);
    };

    switch (op) {
      case Op::Add: case Op::Sub: case Op::And: case Op::Or:
      case Op::Xor: case Op::Shl: case Op::Shr: case Op::Shra: {
        useGpr(inst.rs1);
        useGpr(inst.rs2);
        const uint64_t t = finishIssue();
        writeGpr(inst.rd, alu(op, gpr_[inst.rs1], gpr_[inst.rs2]));
        setGprReady(inst.rd, t + 1);
        break;
      }

      case Op::Neg: case Op::Inv: case Op::Mv: {
        useGpr(inst.rs1);
        const uint64_t t = finishIssue();
        const uint32_t a = gpr_[inst.rs1];
        writeGpr(inst.rd, op == Op::Neg ? 0u - a :
                          op == Op::Inv ? ~a : a);
        setGprReady(inst.rd, t + 1);
        break;
      }

      case Op::AddI: case Op::SubI: case Op::AndI: case Op::OrI:
      case Op::XorI: case Op::ShlI: case Op::ShrI: case Op::ShraI: {
        useGpr(inst.rs1);
        const uint64_t t = finishIssue();
        writeGpr(inst.rd, alu(op, gpr_[inst.rs1],
                             static_cast<uint32_t>(inst.imm)));
        setGprReady(inst.rd, t + 1);
        break;
      }

      case Op::MvI: case Op::MvHI: {
        const uint64_t t = finishIssue();
        writeGpr(inst.rd, op == Op::MvI
                              ? static_cast<uint32_t>(inst.imm)
                              : static_cast<uint32_t>(inst.imm) << 16);
        setGprReady(inst.rd, t + 1);
        break;
      }

      case Op::Cmp: {
        useGpr(inst.rs1);
        useGpr(inst.rs2);
        const uint64_t t = finishIssue();
        writeGpr(inst.rd,
                 isa::evalCond(inst.cond, gpr_[inst.rs1], gpr_[inst.rs2])
                     ? 1 : 0);
        setGprReady(inst.rd, t + 1);
        break;
      }

      case Op::CmpI: {
        useGpr(inst.rs1);
        const uint64_t t = finishIssue();
        writeGpr(inst.rd,
                 isa::evalCond(inst.cond, gpr_[inst.rs1],
                               static_cast<uint32_t>(inst.imm))
                     ? 1 : 0);
        setGprReady(inst.rd, t + 1);
        break;
      }

      case Op::Ld: case Op::Ldh: case Op::Ldhu:
      case Op::Ldb: case Op::Ldbu: {
        useGpr(inst.rs1);
        const uint64_t t = finishIssue();
        const uint32_t ea = gpr_[inst.rs1] + static_cast<uint32_t>(inst.imm);
        const uint32_t v = loadValue(op, ea);
        dataRead(ea, isa::memAccessSize(op));
        writeGpr(inst.rd, v);
        setGprReady(inst.rd, t + loadDelta_);  // load delay slot(s)
        break;
      }

      case Op::St: case Op::Sth: case Op::Stb: {
        useGpr(inst.rs1);
        if (config_.uarch.forward) {
            // MEM-stage bypass: the data operand is consumed a stage
            // later than the address, so one cycle of any stall it
            // alone causes is forwarded away.
            const uint64_t before = stallThisInsn_;
            useGpr(inst.rs2);
            if (stallThisInsn_ > before) {
                stallThisInsn_ -= 1;
                stats_.fwdSavedStalls += 1;
            }
        } else {
            useGpr(inst.rs2);
        }
        finishIssue();
        const uint32_t ea = gpr_[inst.rs1] + static_cast<uint32_t>(inst.imm);
        storeValue(op, ea, gpr_[inst.rs2]);
        dataWrite(ea, isa::memAccessSize(op));
        break;
      }

      case Op::Ldc: {
        const uint64_t t = finishIssue();
        const uint32_t ea = (pc & ~3u) + static_cast<uint32_t>(inst.imm);
        const uint32_t v = memory_.read32(ea);
        dataRead(ea, 4);
        writeGpr(0, v);
        setGprReady(0, t + loadDelta_);
        break;
      }

      case Op::Br: case Op::Bz: case Op::Bnz: {
        stats_.branches += 1;
        inCfShadow_ = true;
        if (op != Op::Br)
            useGpr(inst.rs1);
        finishIssue();
        const bool cond =
            op == Op::Br ? true
            : op == Op::Bz ? gpr_[inst.rs1] == 0
                           : gpr_[inst.rs1] != 0;
        if (op == Op::Br)
            resolveJump();
        else
            resolveCond(pc, cond);
        if (cond) {
            taken = true;
            target = pc + static_cast<uint32_t>(inst.imm);
        }
        break;
      }

      case Op::J: case Op::Jl: {
        stats_.branches += 1;
        inCfShadow_ = true;
        const uint64_t t = finishIssue();
        resolveJump();
        taken = true;
        target = pc + static_cast<uint32_t>(inst.imm);
        if (op == Op::Jl) {
            writeGpr(1, pc + 2 * ib);
            setGprReady(1, t + 1);
        }
        break;
      }

      case Op::Jr: case Op::Jlr: {
        stats_.branches += 1;
        inCfShadow_ = true;
        useGpr(inst.rs1);
        const uint64_t t = finishIssue();
        resolveJump();
        taken = true;
        target = gpr_[inst.rs1];
        if (op == Op::Jlr) {
            writeGpr(1, pc + 2 * ib);
            setGprReady(1, t + 1);
        }
        break;
      }

      case Op::Jrz: case Op::Jrnz: {
        stats_.branches += 1;
        inCfShadow_ = true;
        useGpr(inst.rs1);
        useGpr(inst.rs2);
        finishIssue();
        const bool cond = op == Op::Jrz ? gpr_[inst.rs2] == 0
                                        : gpr_[inst.rs2] != 0;
        resolveCond(pc, cond);
        if (cond) {
            taken = true;
            target = gpr_[inst.rs1];
        }
        break;
      }

      case Op::Nop:
        finishIssue();
        break;

      default:
        executeFpOrTrap(inst);
    }

    // Delay-slot sequencing: a taken transfer takes effect after the
    // next sequential instruction executes.
    if (inDelaySlot_) {
        // The assembler never schedules a transfer into a delay slot,
        // but a program that jumps into pool data (or clobbers its
        // return address) can execute one anyway; that is the
        // program's fault, not an internal invariant.
        if (taken)
            fatal("control transfer in a delay slot at pc ",
                  hexString(pc));
        pc_ = delayedTarget_;
        inDelaySlot_ = false;
    } else if (taken) {
        stats_.takenBranches += 1;
        delayedTarget_ = target;
        inDelaySlot_ = true;
        pc_ = pc + ib;
        if (target == 0 && pc + ib >= textEnd_) {
            // Returning to the halt sentinel from the last instruction:
            // there is no delay-slot instruction to execute.
            pc_ = 0;
            inDelaySlot_ = false;
        }
    } else {
        pc_ = pc + ib;
    }
}

/** The FP, FP-status and trap ops, on the member scoreboard: the tail
 *  of execute(), and the block engine's out-of-line uops. */
void
Machine::executeFpOrTrap(const DecodedInst &inst)
{
    const Op op = inst.op;
    const FpLatencies &fpu = config_.fpu;

    switch (op) {
      case Op::FAddS: case Op::FSubS: case Op::FMulS: case Op::FDivS: {
        stats_.fpOps += 1;
        useFpr(inst.rs1);
        useFpr(inst.rs2);
        const uint64_t t = finishIssue();
        const float a = asFloat(fpr_[inst.rs1]);
        const float b = asFloat(fpr_[inst.rs2]);
        float r = 0;
        int lat = fpu.addSub;
        switch (op) {
          case Op::FAddS: r = a + b; break;
          case Op::FSubS: r = a - b; break;
          case Op::FMulS: r = a * b; lat = fpu.mul; break;
          default: r = a / b; lat = fpu.divS; break;
        }
        fpr_[inst.rd] = fromFloat(r);
        setFprReady(inst.rd, t + lat);
        break;
      }

      case Op::FAddD: case Op::FSubD: case Op::FMulD: case Op::FDivD: {
        stats_.fpOps += 1;
        useFpr(inst.rs1);
        useFpr(inst.rs2);
        const uint64_t t = finishIssue();
        const double a = asDouble(fpr_[inst.rs1]);
        const double b = asDouble(fpr_[inst.rs2]);
        double r = 0;
        int lat = fpu.addSub;
        switch (op) {
          case Op::FAddD: r = a + b; break;
          case Op::FSubD: r = a - b; break;
          case Op::FMulD: r = a * b; lat = fpu.mul; break;
          default: r = a / b; lat = fpu.divD; break;
        }
        fpr_[inst.rd] = fromDouble(r);
        setFprReady(inst.rd, t + lat);
        break;
      }

      case Op::FNegS: case Op::FNegD: case Op::FMv: {
        stats_.fpOps += 1;
        useFpr(inst.rs1);
        const uint64_t t = finishIssue();
        if (op == Op::FNegS)
            fpr_[inst.rd] = fromFloat(-asFloat(fpr_[inst.rs1]));
        else if (op == Op::FNegD)
            fpr_[inst.rd] = fromDouble(-asDouble(fpr_[inst.rs1]));
        else
            fpr_[inst.rd] = fpr_[inst.rs1];
        setFprReady(inst.rd,
                    t + (op == Op::FMv ? fpu.move : fpu.addSub));
        break;
      }

      case Op::FCmpS: case Op::FCmpD: {
        stats_.fpOps += 1;
        useFpr(inst.rs1);
        useFpr(inst.rs2);
        const uint64_t t = finishIssue();
        const bool r =
            op == Op::FCmpS
                ? isa::evalCondFp(inst.cond, asFloat(fpr_[inst.rs1]),
                                  asFloat(fpr_[inst.rs2]))
                : isa::evalCondFp(inst.cond, asDouble(fpr_[inst.rs1]),
                                  asDouble(fpr_[inst.rs2]));
        fpStatus_ = r ? 1 : 0;
        statusReady_ = t + fpu.compare;
        break;
      }

      case Op::CvtSiSf: case Op::CvtSiDf: case Op::CvtSfDf:
      case Op::CvtDfSf: case Op::CvtSfSi: case Op::CvtDfSi: {
        stats_.fpOps += 1;
        useFpr(inst.rs1);
        const uint64_t t = finishIssue();
        fpr_[inst.rd] = convert(op, fpr_[inst.rs1]);
        setFprReady(inst.rd, t + fpu.convert);
        break;
      }

      case Op::MifL: case Op::MifH: {
        stats_.fpOps += 1;
        useGpr(inst.rs1);
        useFpr(inst.rd);  // partial update reads the other half
        const uint64_t t = finishIssue();
        const uint64_t g = gpr_[inst.rs1];
        if (op == Op::MifL)
            fpr_[inst.rd] = (fpr_[inst.rd] & 0xffffffff00000000ull) | g;
        else
            fpr_[inst.rd] =
                (fpr_[inst.rd] & 0xffffffffull) | (g << 32);
        setFprReady(inst.rd, t + fpu.move);
        break;
      }

      case Op::MfiL: case Op::MfiH: {
        stats_.fpOps += 1;
        useFpr(inst.rs1);
        const uint64_t t = finishIssue();
        const uint64_t f = fpr_[inst.rs1];
        writeGpr(inst.rd, op == Op::MfiL
                              ? static_cast<uint32_t>(f)
                              : static_cast<uint32_t>(f >> 32));
        setGprReady(inst.rd, t + 1);
        break;
      }

      case Op::Trap: {
        stats_.traps += 1;
        useGpr(2);
        const uint64_t t = finishIssue();
        doTrap(inst.imm);
        setGprReady(2, t + 1);
        break;
      }

      case Op::Rdsr: {
        useStatus();
        const uint64_t t = finishIssue();
        writeGpr(inst.rd, fpStatus_);
        setGprReady(inst.rd, t + 1);
        break;
      }

      default:
        panic("unexecutable op ", opName(op));
    }
}

void
Machine::doTrap(int code)
{
    char buf[64];
    switch (code) {
      case TrapPrintInt:
        std::snprintf(buf, sizeof(buf), "%d",
                      static_cast<int32_t>(gpr_[2]));
        output_ += buf;
        break;
      case TrapPrintUint:
        std::snprintf(buf, sizeof(buf), "%u", gpr_[2]);
        output_ += buf;
        break;
      case TrapPrintChar:
        output_.push_back(static_cast<char>(gpr_[2]));
        break;
      case TrapPrintStr:
        output_ += memory_.readString(gpr_[2]);
        break;
      case TrapPrintF64:
        std::snprintf(buf, sizeof(buf), "%.4f", asDouble(fpr_[2]));
        output_ += buf;
        break;
      case TrapHalt:
        halted_ = true;
        exitStatus_ = static_cast<int>(gpr_[2]);
        break;
      case TrapAlloc: {
        const uint32_t bytes = gpr_[2];
        const uint32_t base = heapPtr_;
        heapPtr_ = static_cast<uint32_t>(roundUp(heapPtr_ + bytes, 8));
        if (heapPtr_ > gpr_[target_->spReg()])
            fatal("heap/stack collision in guest program");
        writeGpr(2, base);
        break;
      }
      default:
        fatal("unknown trap code ", code);
    }
}

} // namespace d16sim::sim
