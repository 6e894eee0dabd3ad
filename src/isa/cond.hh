/**
 * @file
 * Comparison condition codes shared by D16 and DLXe.
 *
 * D16 integer compares support only the first six conditions
 * (lt, ltu, le, leu, eq, ne) and always write r0; DLXe supports all ten
 * with any GPR destination and an immediate comparand (paper Table 1).
 * Floating-point compares support lt, le, eq only on both machines; the
 * remaining relations are obtained by operand swap and/or branch-sense
 * inversion.
 */

#ifndef D16SIM_ISA_COND_HH
#define D16SIM_ISA_COND_HH

#include <cstdint>
#include <string_view>

#include "support/error.hh"

namespace d16sim::isa
{

enum class Cond : uint8_t
{
    Lt,   //!< signed less-than
    Ltu,  //!< unsigned less-than
    Le,   //!< signed less-or-equal
    Leu,  //!< unsigned less-or-equal
    Eq,   //!< equal
    Ne,   //!< not equal
    Gt,   //!< signed greater-than (DLXe only)
    Gtu,  //!< unsigned greater-than (DLXe only)
    Ge,   //!< signed greater-or-equal (DLXe only)
    Geu,  //!< unsigned greater-or-equal (DLXe only)
};

constexpr int numConds = 10;

/** Mnemonic suffix ("lt", "geu", ...). */
std::string_view condName(Cond c);

/** Parse a condition suffix; returns false if unknown. */
bool parseCond(std::string_view name, Cond &out);

/** True for the six conditions D16 integer compares can encode. */
constexpr bool
d16HasCond(Cond c)
{
    return static_cast<uint8_t>(c) <= static_cast<uint8_t>(Cond::Ne);
}

/** The condition testing the same relation with operands swapped. */
Cond swapCond(Cond c);

/** The complementary condition (true ↔ false). */
Cond negateCond(Cond c);

/** Evaluate an integer condition (inline: both dispatch paths of the
 *  simulator evaluate one per compare). */
inline bool
evalCond(Cond c, uint32_t a, uint32_t b)
{
    const int32_t sa = static_cast<int32_t>(a);
    const int32_t sb = static_cast<int32_t>(b);
    switch (c) {
      case Cond::Lt: return sa < sb;
      case Cond::Ltu: return a < b;
      case Cond::Le: return sa <= sb;
      case Cond::Leu: return a <= b;
      case Cond::Eq: return a == b;
      case Cond::Ne: return a != b;
      case Cond::Gt: return sa > sb;
      case Cond::Gtu: return a > b;
      case Cond::Ge: return sa >= sb;
      case Cond::Geu: return a >= b;
    }
    panic("bad cond");
}

/** Evaluate a floating-point condition (lt/le/eq/ne/gt/ge meaningful). */
bool evalCondFp(Cond c, double a, double b);

} // namespace d16sim::isa

#endif // D16SIM_ISA_COND_HH
