/**
 * @file
 * Differential property tests.
 *
 * A deterministic program generator produces MiniC programs mixing
 * arithmetic, control flow, arrays, and calls; every program must
 * produce identical output on all five machine variants (the paper's
 * "identical function, different encoding" premise), at every
 * optimization level. Cache and fetch-buffer invariants are also
 * property-checked across parameter sweeps.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/toolchain.hh"
#include "mem/cache.hh"

namespace
{

using namespace d16sim;
using namespace d16sim::core;
using mc::CompileOptions;

/** Tiny deterministic generator (xorshift) for program synthesis. */
struct Gen
{
    uint32_t state;
    explicit Gen(uint32_t seed) : state(seed * 2654435761u + 1) {}

    uint32_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        return state;
    }

    int range(int lo, int hi) { return lo + next() % (hi - lo + 1); }

    std::string
    var(int count)
    {
        return "v" + std::to_string(range(0, count - 1));
    }
};

/** Generate a deterministic MiniC program from a seed. */
std::string
generateProgram(uint32_t seed)
{
    Gen g(seed);
    std::ostringstream os;
    const int nVars = g.range(4, 8);

    os << "int arr[16];\n";
    os << "int helper(int a, int b) { return a * 3 - b + (a & b); }\n";
    os << "int main() {\n";
    for (int i = 0; i < nVars; ++i)
        os << "  int v" << i << " = " << g.range(-50, 200) << ";\n";
    os << "  int i;\n";
    os << "  for (i = 0; i < 16; i++) arr[i] = i * "
       << g.range(1, 9) << " - " << g.range(0, 30) << ";\n";

    const int nStmts = g.range(6, 14);
    for (int s = 0; s < nStmts; ++s) {
        switch (g.range(0, 5)) {
          case 0:
            os << "  " << g.var(nVars) << " += " << g.var(nVars)
               << " * " << g.range(2, 12) << ";\n";
            break;
          case 1:
            os << "  if (" << g.var(nVars) << " > " << g.range(-10, 60)
               << ") " << g.var(nVars) << " -= " << g.var(nVars)
               << "; else " << g.var(nVars) << " ^= "
               << g.range(1, 25500) << ";\n";
            break;
          case 2:
            os << "  for (i = 0; i < " << g.range(2, 9) << "; i++) "
               << g.var(nVars) << " += arr[i] >> "
               << g.range(0, 3) << ";\n";
            break;
          case 3:
            os << "  " << g.var(nVars) << " = helper(" << g.var(nVars)
               << ", " << g.var(nVars) << ");\n";
            break;
          case 4:
            os << "  " << g.var(nVars) << " = " << g.var(nVars)
               << (g.range(0, 1) ? " / " : " % ") << g.range(2, 13)
               << ";\n";
            break;
          default:
            os << "  arr[" << g.range(0, 15) << "] ^= "
               << g.var(nVars) << ";\n";
            break;
        }
    }
    os << "  int acc = 0;\n";
    for (int i = 0; i < nVars; ++i)
        os << "  acc = acc * 31 + v" << i << ";\n";
    os << "  for (i = 0; i < 16; i++) acc = acc * 7 + arr[i];\n";
    os << "  print_int(acc);\n  return 0;\n}\n";
    return os.str();
}

class GeneratedPrograms : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(GeneratedPrograms, AllVariantsAgree)
{
    const std::string src = generateProgram(GetParam());
    SCOPED_TRACE(src);
    std::string reference;
    for (const auto &opts :
         {CompileOptions::d16(), CompileOptions::dlxe(16, false),
          CompileOptions::dlxe(16, true), CompileOptions::dlxe(32, false),
          CompileOptions::dlxe(32, true)}) {
        const auto m = buildAndRun(src, opts);
        if (reference.empty())
            reference = m.output;
        else
            EXPECT_EQ(m.output, reference) << opts.name();
    }
    EXPECT_FALSE(reference.empty());
}

TEST_P(GeneratedPrograms, OptLevelsAgree)
{
    const std::string src = generateProgram(GetParam() ^ 0xabcd1234u);
    std::string reference;
    for (int level = 0; level <= 2; ++level) {
        CompileOptions opts = CompileOptions::d16();
        opts.optLevel = level;
        const auto m = buildAndRun(src, opts);
        if (reference.empty())
            reference = m.output;
        else
            EXPECT_EQ(m.output, reference) << "O" << level;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedPrograms,
                         ::testing::Range(1u, 25u));

// ---------------------------------------------------------------------
// Shift-count semantics
// ---------------------------------------------------------------------

TEST(ShiftProperty, FoldedMatchesRuntime)
{
    // Shift counts are masked to five bits.  A literal count is
    // folded by the front end and optimizer; the same count routed
    // through an opaque call reaches the machine's shifter.  Both
    // paths must agree for every count, including counts >= 32 and
    // negative counts.  The generated program prints one '1' per
    // agreeing triple (shl, sar, unsigned shr).
    Gen g(0x5eed5u);
    std::ostringstream os;
    os << "int id(int x) { return x; }\n";
    os << "int main() {\n";
    std::string expected;
    const int counts[] = {0, 1, 5, 31, 32, 33, 63, 64, 100, -1, -31,
                          -32, -100};
    for (const int k : counts) {
        const int v = g.range(-5000, 5000) * 131071;
        os << "  print_int((" << v << " << " << k << ") == (" << v
           << " << id(" << k << ")));\n";
        os << "  print_int((" << v << " >> " << k << ") == (" << v
           << " >> id(" << k << ")));\n";
        os << "  print_int(((unsigned)" << v << " >> " << k
           << ") == ((unsigned)" << v << " >> id(" << k << ")));\n";
        expected += "111";
    }
    os << "  return 0;\n}\n";

    for (const auto &opts :
         {CompileOptions::d16(), CompileOptions::dlxe(32, true)}) {
        for (int level = 0; level <= 2; ++level) {
            CompileOptions o = opts;
            o.optLevel = level;
            const auto m = buildAndRun(os.str(), o);
            EXPECT_EQ(m.output, expected)
                << opts.name() << " O" << level;
        }
    }
}

// ---------------------------------------------------------------------
// Cache model invariants
// ---------------------------------------------------------------------

class CacheSweep : public ::testing::TestWithParam<int>
{};

TEST_P(CacheSweep, AccountingInvariants)
{
    Gen g(static_cast<uint32_t>(GetParam()) * 7919u);
    mem::CacheConfig cfg;
    cfg.sizeBytes = 1u << g.range(10, 14);
    cfg.blockBytes = 1u << g.range(3, 6);
    cfg.subBlockBytes = std::min(cfg.blockBytes, 8u);
    cfg.assoc = 1u << g.range(0, 2);
    mem::Cache cache(cfg);

    for (int i = 0; i < 20000; ++i) {
        const uint32_t addr = (g.next() % (1u << 16)) & ~3u;
        cache.access(addr, 4, g.range(0, 3) == 0);
    }
    const auto &st = cache.stats();
    EXPECT_EQ(st.accesses(), 20000u);
    EXPECT_LE(st.readMisses, st.reads);
    EXPECT_LE(st.writeMisses, st.writes);
    // Words in >= one sub-block per allocate-miss.
    EXPECT_GE(st.wordsIn,
              st.misses() * (cfg.subBlockBytes / 4) / 2);
    // Write-backs cannot exceed what was ever brought in + written.
    EXPECT_LE(st.wordsOut, st.wordsIn + st.writes);
}

TEST_P(CacheSweep, FlushThenColdMissesEverything)
{
    mem::CacheConfig cfg;
    cfg.sizeBytes = 2048;
    cfg.blockBytes = 32;
    cfg.subBlockBytes = 8;
    mem::Cache cache(cfg);
    Gen g(static_cast<uint32_t>(GetParam()) + 17u);
    std::vector<uint32_t> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back((g.next() % 4096u) & ~31u);
    for (uint32_t a : addrs)
        cache.read(a, 4);
    cache.flush();
    const uint64_t missesBefore = cache.stats().readMisses;
    // Unique block addresses all miss after a flush.
    std::set<uint32_t> blocks;
    for (uint32_t a : addrs)
        blocks.insert(a / cfg.blockBytes);
    for (uint32_t b : blocks)
        cache.read(b * cfg.blockBytes, 4);
    EXPECT_EQ(cache.stats().readMisses - missesBefore, blocks.size());
}

INSTANTIATE_TEST_SUITE_P(Sweeps, CacheSweep, ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// Fetch buffer invariants
// ---------------------------------------------------------------------

TEST(FetchBufferProperty, WiderBusNeverMoreRequests)
{
    // Random fetch streams in hand-built chunks, with loops (runs that
    // jump back) and runs that continue the previous one sequentially,
    // also across a chunk boundary.
    for (uint32_t ib : {2u, 4u}) {
        for (uint32_t seed = 1; seed <= 40; ++seed) {
            Gen g(seed * 31u + ib);
            FetchBufferProbe fb4(4, ib), fb8(8, ib), fb16(16, ib);
            uint64_t fetched = 0;
            uint32_t nextPc = 0x1000;
            for (int c = g.range(1, 4); c > 0; --c) {
                std::vector<sim::FetchRun> runs;
                for (int r = g.range(1, 8); r > 0; --r) {
                    const uint32_t start =
                        g.range(0, 2) == 0
                            ? nextPc
                            : 0x1000 + ib * static_cast<uint32_t>(
                                                g.range(0, 200));
                    const auto count = static_cast<uint32_t>(g.range(1, 12));
                    runs.push_back({start, count});
                    fetched += count;
                    nextPc = start + count * ib;
                }
                const sim::TraceChunk chunk{runs, {}, {}};
                for (FetchBufferProbe *fb : {&fb4, &fb8, &fb16})
                    fb->feed(chunk);
            }
            const std::string where = "ib " + std::to_string(ib) +
                                      " seed " + std::to_string(seed);
            EXPECT_LE(fb8.requests(), fb4.requests()) << where;
            EXPECT_LE(fb16.requests(), fb8.requests()) << where;
            // No more requests than fetches; at least one.
            EXPECT_LE(fb4.requests(), fetched) << where;
            EXPECT_GT(fb16.requests(), 0u) << where;
        }
    }
}

} // namespace
