#include "isa/cond.hh"

#include "support/error.hh"

namespace d16sim::isa
{

namespace
{

constexpr std::string_view condNames[numConds] = {
    "lt", "ltu", "le", "leu", "eq", "ne", "gt", "gtu", "ge", "geu",
};

} // namespace

std::string_view
condName(Cond c)
{
    return condNames[static_cast<uint8_t>(c)];
}

bool
parseCond(std::string_view name, Cond &out)
{
    for (int i = 0; i < numConds; ++i) {
        if (condNames[i] == name) {
            out = static_cast<Cond>(i);
            return true;
        }
    }
    return false;
}

Cond
swapCond(Cond c)
{
    switch (c) {
      case Cond::Lt: return Cond::Gt;
      case Cond::Ltu: return Cond::Gtu;
      case Cond::Le: return Cond::Ge;
      case Cond::Leu: return Cond::Geu;
      case Cond::Eq: return Cond::Eq;
      case Cond::Ne: return Cond::Ne;
      case Cond::Gt: return Cond::Lt;
      case Cond::Gtu: return Cond::Ltu;
      case Cond::Ge: return Cond::Le;
      case Cond::Geu: return Cond::Leu;
    }
    panic("bad cond");
}

Cond
negateCond(Cond c)
{
    switch (c) {
      case Cond::Lt: return Cond::Ge;
      case Cond::Ltu: return Cond::Geu;
      case Cond::Le: return Cond::Gt;
      case Cond::Leu: return Cond::Gtu;
      case Cond::Eq: return Cond::Ne;
      case Cond::Ne: return Cond::Eq;
      case Cond::Gt: return Cond::Le;
      case Cond::Gtu: return Cond::Leu;
      case Cond::Ge: return Cond::Lt;
      case Cond::Geu: return Cond::Ltu;
    }
    panic("bad cond");
}

bool
evalCondFp(Cond c, double a, double b)
{
    switch (c) {
      case Cond::Lt: case Cond::Ltu: return a < b;
      case Cond::Le: case Cond::Leu: return a <= b;
      case Cond::Eq: return a == b;
      case Cond::Ne: return a != b;
      case Cond::Gt: case Cond::Gtu: return a > b;
      case Cond::Ge: case Cond::Geu: return a >= b;
    }
    panic("bad cond");
}

} // namespace d16sim::isa
