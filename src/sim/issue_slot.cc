#include "sim/issue_slot.hh"

#include <algorithm>

#include "support/error.hh"

namespace d16sim::sim
{

using isa::Op;

IssueSlot
issueSlot(const isa::TargetInfo &target, const isa::DecodedInst &inst,
          const FpLatencies &fpu)
{
    constexpr uint8_t F = IssueSlot::FprBase;
    const bool r0z = target.r0IsZero();
    IssueSlot s;
    // Reads of DLXe r0 are always ready; writes of it are discarded.
    auto gpr = [&](int r) {
        return r == 0 && r0z ? IssueSlot::None : static_cast<uint8_t>(r);
    };
    auto gprDst = [&](int r, uint8_t lat) {
        s.dst = r == 0 && r0z ? IssueSlot::Sink : static_cast<uint8_t>(r);
        s.lat = lat;
    };
    auto fpr = [&](int r) { return static_cast<uint8_t>(F + r); };
    auto fprDst = [&](int r, int lat) {
        s.dst = fpr(r);
        s.lat = static_cast<uint8_t>(lat);
    };

    switch (inst.op) {
      case Op::Add: case Op::Sub: case Op::And: case Op::Or:
      case Op::Xor: case Op::Shl: case Op::Shr: case Op::Shra:
      case Op::Cmp:
        s.src0 = gpr(inst.rs1);
        s.src1 = gpr(inst.rs2);
        gprDst(inst.rd, 1);
        break;
      case Op::Neg: case Op::Inv: case Op::Mv:
      case Op::AddI: case Op::SubI: case Op::AndI: case Op::OrI:
      case Op::XorI: case Op::ShlI: case Op::ShrI: case Op::ShraI:
      case Op::CmpI:
        s.src0 = gpr(inst.rs1);
        gprDst(inst.rd, 1);
        break;
      case Op::MvI: case Op::MvHI:
        gprDst(inst.rd, 1);
        break;
      case Op::Ld: case Op::Ldh: case Op::Ldhu: case Op::Ldb: case Op::Ldbu:
        s.src0 = gpr(inst.rs1);
        gprDst(inst.rd, IssueSlot::LoadLatency);
        break;
      case Op::St: case Op::Sth: case Op::Stb:
        s.src0 = gpr(inst.rs1);
        s.src1 = gpr(inst.rs2);
        s.lat = IssueSlot::StoreData;
        break;
      case Op::Ldc:
        gprDst(0, IssueSlot::LoadLatency);
        break;
      case Op::Bz: case Op::Bnz: case Op::Jr:
        s.src0 = gpr(inst.rs1);
        break;
      case Op::Jlr:
        s.src0 = gpr(inst.rs1);
        gprDst(1, 1);
        break;
      case Op::Jl:
        gprDst(1, 1);
        break;
      case Op::Jrz: case Op::Jrnz:
        s.src0 = gpr(inst.rs1);
        s.src1 = gpr(inst.rs2);
        break;
      case Op::FAddS: case Op::FSubS: case Op::FAddD: case Op::FSubD:
        s.src0 = fpr(inst.rs1);
        s.src1 = fpr(inst.rs2);
        fprDst(inst.rd, fpu.addSub);
        break;
      case Op::FMulS: case Op::FMulD:
        s.src0 = fpr(inst.rs1);
        s.src1 = fpr(inst.rs2);
        fprDst(inst.rd, fpu.mul);
        break;
      case Op::FDivS: case Op::FDivD:
        s.src0 = fpr(inst.rs1);
        s.src1 = fpr(inst.rs2);
        fprDst(inst.rd, inst.op == Op::FDivS ? fpu.divS : fpu.divD);
        break;
      case Op::FNegS: case Op::FNegD: case Op::FMv:
        s.src0 = fpr(inst.rs1);
        fprDst(inst.rd, inst.op == Op::FMv ? fpu.move : fpu.addSub);
        break;
      case Op::FCmpS: case Op::FCmpD:
        s.src0 = fpr(inst.rs1);
        s.src1 = fpr(inst.rs2);
        s.dst = IssueSlot::Status;
        s.lat = static_cast<uint8_t>(fpu.compare);
        break;
      case Op::CvtSiSf: case Op::CvtSiDf: case Op::CvtSfDf:
      case Op::CvtDfSf: case Op::CvtSfSi: case Op::CvtDfSi:
        s.src0 = fpr(inst.rs1);
        fprDst(inst.rd, fpu.convert);
        break;
      case Op::MifL: case Op::MifH:
        s.src0 = gpr(inst.rs1);
        s.src1 = fpr(inst.rd);  // the partial update reads the kept half
        fprDst(inst.rd, fpu.move);
        break;
      case Op::MfiL: case Op::MfiH:
        s.src0 = fpr(inst.rs1);
        gprDst(inst.rd, 1);
        break;
      case Op::Trap:  // the service argument register, read and written
        s.src0 = gpr(2);
        gprDst(2, 1);
        break;
      case Op::Rdsr:
        s.src0 = IssueSlot::Status;
        gprDst(inst.rd, 1);
        break;
      default:  // Br, J, Nop: issue only
        break;
    }
    return s;
}

int
maxFpLatency(const FpLatencies &fpu)
{
    int m = 1;
    for (int lat : {fpu.addSub, fpu.mul, fpu.divS, fpu.divD, fpu.convert,
                    fpu.compare, fpu.move}) {
        panicIf(lat < 1 || lat >= IssueSlot::StoreData, "FP latency ", lat,
                " out of range");
        m = std::max(m, lat);
    }
    return m;
}

} // namespace d16sim::sim
