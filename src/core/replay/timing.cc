#include <array>

#include "core/replay/replay.hh"
#include "isa/codec.hh"
#include "support/error.hh"

namespace d16sim::core::replay
{

namespace
{

using isa::Op;
using Slot = TimingTable::Slot;

/** The slot of one decoded instruction: execute()'s useGpr / useFpr /
 *  useStatus calls in order, then its setGprReady / setFprReady (or
 *  status) write. */
Slot
slotOf(const isa::DecodedInst &inst, const isa::TargetInfo &target,
       const sim::FpLatencies &fpu)
{
    constexpr uint8_t F = TimingTable::FprBase;
    Slot s;
    auto gprDst = [&](int r, uint8_t lat) {
        // Writes of r0 are discarded where it reads as zero.
        s.dst = r == 0 && target.r0IsZero() ? TimingTable::Sink
                                             : static_cast<uint8_t>(r);
        s.lat = lat;
    };
    auto fprDst = [&](int r, int lat) {
        s.dst = static_cast<uint8_t>(F + r);
        s.lat = static_cast<uint8_t>(lat);
    };

    switch (inst.op) {
      case Op::Add: case Op::Sub: case Op::And: case Op::Or:
      case Op::Xor: case Op::Shl: case Op::Shr: case Op::Shra:
      case Op::Cmp:
        s.src0 = inst.rs1;
        s.src1 = inst.rs2;
        gprDst(inst.rd, 1);
        break;
      case Op::Neg: case Op::Inv: case Op::Mv:
      case Op::AddI: case Op::SubI: case Op::AndI: case Op::OrI:
      case Op::XorI: case Op::ShlI: case Op::ShrI: case Op::ShraI:
      case Op::CmpI:
        s.src0 = inst.rs1;
        gprDst(inst.rd, 1);
        break;
      case Op::MvI: case Op::MvHI:
        gprDst(inst.rd, 1);
        break;
      case Op::Ld: case Op::Ldh: case Op::Ldhu: case Op::Ldb: case Op::Ldbu:
        s.src0 = inst.rs1;
        gprDst(inst.rd, TimingTable::LoadLatency);
        break;
      case Op::St: case Op::Sth: case Op::Stb:
        s.src0 = inst.rs1;
        s.src1 = inst.rs2;
        s.lat = TimingTable::StoreData;
        break;
      case Op::Ldc:
        gprDst(0, TimingTable::LoadLatency);
        break;
      case Op::Bz: case Op::Bnz: case Op::Jr:
        s.src0 = inst.rs1;
        break;
      case Op::Jlr:
        s.src0 = inst.rs1;
        gprDst(1, 1);
        break;
      case Op::Jl:
        gprDst(1, 1);
        break;
      case Op::Jrz: case Op::Jrnz:
        s.src0 = inst.rs1;
        s.src1 = inst.rs2;
        break;
      case Op::FAddS: case Op::FSubS: case Op::FAddD: case Op::FSubD:
        s.src0 = static_cast<uint8_t>(F + inst.rs1);
        s.src1 = static_cast<uint8_t>(F + inst.rs2);
        fprDst(inst.rd, fpu.addSub);
        break;
      case Op::FMulS: case Op::FMulD:
        s.src0 = static_cast<uint8_t>(F + inst.rs1);
        s.src1 = static_cast<uint8_t>(F + inst.rs2);
        fprDst(inst.rd, fpu.mul);
        break;
      case Op::FDivS: case Op::FDivD:
        s.src0 = static_cast<uint8_t>(F + inst.rs1);
        s.src1 = static_cast<uint8_t>(F + inst.rs2);
        fprDst(inst.rd, inst.op == Op::FDivS ? fpu.divS : fpu.divD);
        break;
      case Op::FNegS: case Op::FNegD: case Op::FMv:
        s.src0 = static_cast<uint8_t>(F + inst.rs1);
        fprDst(inst.rd, inst.op == Op::FMv ? fpu.move : fpu.addSub);
        break;
      case Op::FCmpS: case Op::FCmpD:
        s.src0 = static_cast<uint8_t>(F + inst.rs1);
        s.src1 = static_cast<uint8_t>(F + inst.rs2);
        s.dst = TimingTable::Status;
        s.lat = static_cast<uint8_t>(fpu.compare);
        break;
      case Op::CvtSiSf: case Op::CvtSiDf: case Op::CvtSfDf:
      case Op::CvtDfSf: case Op::CvtSfSi: case Op::CvtDfSi:
        s.src0 = static_cast<uint8_t>(F + inst.rs1);
        fprDst(inst.rd, fpu.convert);
        break;
      case Op::MifL: case Op::MifH:
        s.src0 = inst.rs1;
        s.src1 = static_cast<uint8_t>(F + inst.rd);  // the kept half
        fprDst(inst.rd, fpu.move);
        break;
      case Op::MfiL: case Op::MfiH:
        s.src0 = static_cast<uint8_t>(F + inst.rs1);
        gprDst(inst.rd, 1);
        break;
      case Op::Trap:
        s.src0 = 2;
        gprDst(2, 1);
        break;
      case Op::Rdsr:
        s.src0 = TimingTable::Status;
        gprDst(inst.rd, 1);
        break;
      default:  // Br, J, Nop: issue only; anything else never executes
        break;
    }
    return s;
}

/**
 * The scoreboard walk: Machine::useGpr/useFpr/useStatus and
 * finishIssue over the fetch runs. A source stalls the issue when its
 * ready time is past it; the larger stall wins and names the counter
 * (a tie keeps the earlier source). With `Forward`, a store's data
 * operand arrives a stage late, so a stall it alone raises is one
 * cycle shorter.
 */
template <bool Forward>
TimingReplayStats
walk(const Trace &trace, const TimingTable &table, uint64_t loadDelta)
{
    std::array<uint64_t, TimingTable::Entries> ready{};
    const Slot *slots = table.slots().data();
    const uint32_t base = table.base();
    const unsigned shift = table.insnShift();
    uint64_t cycle = 0;
    TimingReplayStats out;
    for (const FetchRun &r : trace.runs) {
        const Slot *s = slots + ((r.startPc - base) >> shift);
        for (const Slot *e = s + r.count; s != e; ++s) {
            const uint64_t issue = cycle + 1;
            uint64_t stall = 0;
            bool fp = false;
            const uint64_t a = ready[s->src0];
            if (a > issue) {
                stall = a - issue;
                fp = s->src0 >= TimingTable::FprBase;
            }
            const uint64_t b = ready[s->src1];
            if (b > issue && b - issue > stall) {
                stall = b - issue;
                fp = s->src1 >= TimingTable::FprBase;
                if (Forward && s->lat == TimingTable::StoreData) {
                    stall -= 1;
                    out.fwdSavedStalls += 1;
                }
            }
            (fp ? out.fpInterlocks : out.loadInterlocks) += stall;
            cycle = issue + stall;
            ready[s->dst] =
                cycle + (s->lat == TimingTable::LoadLatency ? loadDelta
                                                            : s->lat);
        }
    }
    return out;
}

} // namespace

TimingTable::TimingTable(const assem::Image &image,
                         const sim::DecodedText &text,
                         const sim::FpLatencies &fpu)
{
    panicIf(!image.target, "image has no target");
    panicIf(text.base() != image.textBase,
            "predecoded table does not match image");
    for (int lat : {fpu.addSub, fpu.mul, fpu.divS, fpu.divD, fpu.convert,
                    fpu.compare, fpu.move})
        panicIf(lat < 1 || lat >= StoreData, "FP latency ", lat,
                " out of range");
    const isa::TargetInfo &target = *image.target;
    base_ = image.textBase;
    end_ = image.textBase + image.textSize;
    shift_ = text.insnShift();

    slots_.resize(text.size());
    const uint32_t ib = static_cast<uint32_t>(target.insnBytes());
    for (uint32_t i = 0; i < text.size(); ++i) {
        if (text.valid(i)) {
            slots_[i] = slotOf(text.at(i), target, fpu);
            continue;
        }
        // A pool word, decoded from the image the way the machine
        // decodes it from memory (which holds the image while no store
        // touches the text: timingReplayable).
        const uint32_t off = i << shift_;
        uint32_t word = 0;
        for (uint32_t k = 0; k < ib && off + k < image.bytes.size(); ++k)
            word |= static_cast<uint32_t>(image.bytes[off + k]) << (8 * k);
        try {
            slots_[i] = slotOf(isa::decode(target, word), target, fpu);
        } catch (const Error &) {
            slots_[i] = Slot{};
        }
    }
}

bool
timingReplayable(const Trace &trace, const TimingTable &table)
{
    const uint32_t ib = trace.insnBytes;
    if (ib != (1u << table.insnShift()))
        return false;
    const uint64_t slots = table.slots().size();
    for (const FetchRun &r : trace.runs) {
        if (r.startPc < table.base() || (r.startPc - table.base()) & (ib - 1))
            return false;
        if (((r.startPc - table.base()) >> table.insnShift()) +
                uint64_t{r.count} > slots)
            return false;
    }
    for (const DataAccess &a : trace.accesses)
        if (a.write && uint64_t{a.addr} + a.size > table.base() &&
            a.addr < table.end())
            return false;
    return true;
}

TimingReplayStats
replayTiming(const Trace &trace, const TimingTable &table,
             const sim::UarchConfig &uarch)
{
    if (!timingReplayable(trace, table))
        fatal("replay: trace writes its text section or leaves it; "
              "capture slice '", uarch.captureKey(), "' directly");
    const uint64_t loadDelta = 1 + static_cast<uint64_t>(uarch.loadDelay());
    TimingReplayStats out = uarch.forward
                                ? walk<true>(trace, table, loadDelta)
                                : walk<false>(trace, table, loadDelta);
    out.slice = uarch.captureConfig();
    return out;
}

} // namespace d16sim::core::replay
