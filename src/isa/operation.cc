#include "isa/operation.hh"

#include <unordered_map>

#include "support/error.hh"

namespace d16sim::isa
{

namespace
{

struct OpInfo
{
    std::string_view name;
    OpClass cls;
};

constexpr OpInfo opTable[numOps] = {
    {"add", OpClass::IntAlu},
    {"sub", OpClass::IntAlu},
    {"and", OpClass::IntAlu},
    {"or", OpClass::IntAlu},
    {"xor", OpClass::IntAlu},
    {"shl", OpClass::IntAlu},
    {"shr", OpClass::IntAlu},
    {"shra", OpClass::IntAlu},
    {"neg", OpClass::IntAlu},
    {"inv", OpClass::IntAlu},
    {"mv", OpClass::IntAlu},
    {"addi", OpClass::IntAluImm},
    {"subi", OpClass::IntAluImm},
    {"shli", OpClass::IntAluImm},
    {"shri", OpClass::IntAluImm},
    {"shrai", OpClass::IntAluImm},
    {"andi", OpClass::IntAluImm},
    {"ori", OpClass::IntAluImm},
    {"xori", OpClass::IntAluImm},
    {"mvi", OpClass::IntAluImm},
    {"mvhi", OpClass::IntAluImm},
    {"cmp", OpClass::IntAlu},
    {"cmpi", OpClass::IntAluImm},
    {"ld", OpClass::Load},
    {"ldh", OpClass::Load},
    {"ldhu", OpClass::Load},
    {"ldb", OpClass::Load},
    {"ldbu", OpClass::Load},
    {"st", OpClass::Store},
    {"sth", OpClass::Store},
    {"stb", OpClass::Store},
    {"ldc", OpClass::LoadConst},
    {"br", OpClass::Branch},
    {"bz", OpClass::Branch},
    {"bnz", OpClass::Branch},
    {"j", OpClass::Jump},
    {"jl", OpClass::Jump},
    {"jr", OpClass::Jump},
    {"jlr", OpClass::Jump},
    {"jrz", OpClass::Jump},
    {"jrnz", OpClass::Jump},
    {"add.sf", OpClass::FpAlu},
    {"add.df", OpClass::FpAlu},
    {"sub.sf", OpClass::FpAlu},
    {"sub.df", OpClass::FpAlu},
    {"mul.sf", OpClass::FpAlu},
    {"mul.df", OpClass::FpAlu},
    {"div.sf", OpClass::FpAlu},
    {"div.df", OpClass::FpAlu},
    {"neg.sf", OpClass::FpAlu},
    {"neg.df", OpClass::FpAlu},
    {"fmv", OpClass::FpMove},
    {"cmp.sf", OpClass::FpAlu},
    {"cmp.df", OpClass::FpAlu},
    {"si2sf", OpClass::FpConvert},
    {"si2df", OpClass::FpConvert},
    {"sf2df", OpClass::FpConvert},
    {"df2sf", OpClass::FpConvert},
    {"sf2si", OpClass::FpConvert},
    {"df2si", OpClass::FpConvert},
    {"mif.l", OpClass::FpMove},
    {"mif.h", OpClass::FpMove},
    {"mfi.l", OpClass::FpMove},
    {"mfi.h", OpClass::FpMove},
    {"trap", OpClass::Misc},
    {"rdsr", OpClass::Misc},
    {"nop", OpClass::Misc},
};

} // namespace

std::string_view
opName(Op op)
{
    panicIf(op >= Op::NumOps, "bad op");
    return opTable[static_cast<int>(op)].name;
}

bool
parseOp(std::string_view name, Op &out)
{
    static const auto *byName = [] {
        auto *m = new std::unordered_map<std::string_view, Op>();
        for (int i = 0; i < numOps; ++i)
            m->emplace(opTable[i].name, static_cast<Op>(i));
        return m;
    }();
    auto it = byName->find(name);
    if (it == byName->end())
        return false;
    out = it->second;
    return true;
}

OpClass
opClass(Op op)
{
    panicIf(op >= Op::NumOps, "bad op");
    return opTable[static_cast<int>(op)].cls;
}

bool
isD16Only(Op op)
{
    return op == Op::Ldc;
}

bool
isDLXeOnly(Op op)
{
    switch (op) {
      case Op::AndI: case Op::OrI: case Op::XorI:
      case Op::MvHI: case Op::CmpI:
      case Op::J: case Op::Jl:
        return true;
      default:
        return false;
    }
}

bool
isStore(Op op)
{
    return op == Op::St || op == Op::Sth || op == Op::Stb;
}

int
memAccessSize(Op op)
{
    switch (op) {
      case Op::Ld: case Op::St: case Op::Ldc:
        return 4;
      case Op::Ldh: case Op::Ldhu: case Op::Sth:
        return 2;
      case Op::Ldb: case Op::Ldbu: case Op::Stb:
        return 1;
      default:
        panic("memAccessSize on non-memory op ", opName(op));
    }
}

bool
isControlFlow(Op op)
{
    const OpClass c = opClass(op);
    return c == OpClass::Branch || c == OpClass::Jump;
}

bool
hasCond(Op op)
{
    return op == Op::Cmp || op == Op::CmpI ||
           op == Op::FCmpS || op == Op::FCmpD;
}

} // namespace d16sim::isa
