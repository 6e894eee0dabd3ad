/**
 * @file
 * Cache-model tests against hand-traced reference behaviour:
 * sub-block (sector) semantics, wrap-around prefetch, write-allocate
 * write-back policy, LRU replacement, and traffic accounting.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/memory.hh"
#include "support/error.hh"

namespace
{

using namespace d16sim;
using namespace d16sim::mem;

CacheConfig
smallConfig()
{
    CacheConfig c;
    c.sizeBytes = 256;
    c.blockBytes = 32;
    c.subBlockBytes = 8;
    c.assoc = 1;
    return c;
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallConfig());
    EXPECT_FALSE(c.read(0x100, 4));
    EXPECT_TRUE(c.read(0x100, 4));
    EXPECT_EQ(c.stats().reads, 2u);
    EXPECT_EQ(c.stats().readMisses, 1u);
    EXPECT_DOUBLE_EQ(c.stats().readMissRate(), 0.5);
}

TEST(Cache, ReadMissFillsWholeBlockViaPrefetch)
{
    Cache c(smallConfig());
    EXPECT_FALSE(c.read(0x100, 4));
    // The wrap-around prefetch filled all four 8-byte sub-blocks.
    EXPECT_TRUE(c.read(0x108, 4));
    EXPECT_TRUE(c.read(0x110, 4));
    EXPECT_TRUE(c.read(0x118, 4));
    EXPECT_EQ(c.stats().wordsIn, 8u);  // 32 bytes = 8 words
}

TEST(Cache, WriteMissFillsOnlyItsSubBlock)
{
    Cache c(smallConfig());
    EXPECT_FALSE(c.write(0x100, 4));
    // Same sub-block: hit.
    EXPECT_TRUE(c.read(0x104, 4));
    // Different sub-block of the same block: sub-block miss (tag hit).
    EXPECT_FALSE(c.read(0x108, 4));
    EXPECT_EQ(c.stats().readMisses, 1u);
    EXPECT_EQ(c.stats().writeMisses, 1u);
    // Write fill: 2 words; then read miss fills the remaining three
    // sub-blocks (one demand + prefetch of the other two invalid).
    EXPECT_EQ(c.stats().wordsIn, 2u + 6u);
}

TEST(Cache, SubBlockMissAfterWriteCountsAsMiss)
{
    Cache c(smallConfig());
    c.write(0x100, 4);
    c.read(0x118, 4);  // sub-block miss within a resident block
    EXPECT_EQ(c.stats().misses(), 2u);
}

TEST(Cache, DirectMappedConflict)
{
    // 256-byte direct-mapped with 32-byte blocks: addresses 256 apart
    // conflict.
    Cache c(smallConfig());
    EXPECT_FALSE(c.read(0x000, 4));
    EXPECT_FALSE(c.read(0x100, 4));  // evicts 0x000
    EXPECT_FALSE(c.read(0x000, 4));  // miss again
    EXPECT_EQ(c.stats().readMisses, 3u);
}

TEST(Cache, TwoWayLruAvoidsConflict)
{
    CacheConfig cfg = smallConfig();
    cfg.assoc = 2;
    Cache c(cfg);
    EXPECT_FALSE(c.read(0x000, 4));
    EXPECT_FALSE(c.read(0x100, 4));  // other way
    EXPECT_TRUE(c.read(0x000, 4));   // both resident
    EXPECT_TRUE(c.read(0x100, 4));
    EXPECT_FALSE(c.read(0x200, 4));  // evicts LRU = 0x000
    EXPECT_FALSE(c.read(0x000, 4));  // evicts LRU = 0x100
    EXPECT_FALSE(c.read(0x100, 4));
}

TEST(Cache, LruVictimSelection)
{
    CacheConfig cfg = smallConfig();
    cfg.assoc = 2;
    Cache c(cfg);
    c.read(0x000, 4);
    c.read(0x100, 4);
    c.read(0x000, 4);   // 0x100 is now LRU
    c.read(0x200, 4);   // evicts 0x100
    EXPECT_TRUE(c.read(0x000, 4));
    EXPECT_FALSE(c.read(0x100, 4));
}

TEST(Cache, DirtyEvictionWritesBack)
{
    Cache c(smallConfig());
    c.write(0x100, 4);            // dirty sub-block (2 words in)
    c.read(0x200, 4);             // conflicts: evicts dirty block
    EXPECT_EQ(c.stats().wordsOut, 2u);  // one dirty 8-byte sub-block
}

TEST(Cache, CleanEvictionWritesNothing)
{
    Cache c(smallConfig());
    c.read(0x100, 4);
    c.read(0x200, 4);  // evicts clean block
    EXPECT_EQ(c.stats().wordsOut, 0u);
}

TEST(Cache, WriteHitMakesDirtyOnlyThatSubBlock)
{
    Cache c(smallConfig());
    c.read(0x100, 4);   // whole block resident
    c.write(0x108, 4);  // dirty second sub-block (hit)
    EXPECT_EQ(c.stats().writeMisses, 0u);
    c.read(0x200, 4);   // evict
    EXPECT_EQ(c.stats().wordsOut, 2u);
}

TEST(Cache, FlushWritesBackDirty)
{
    Cache c(smallConfig());
    c.write(0x100, 4);
    c.write(0x118, 4);
    c.flush();
    EXPECT_EQ(c.stats().wordsOut, 4u);  // two dirty sub-blocks
    EXPECT_FALSE(c.read(0x100, 4));     // invalidated
}

TEST(Cache, WriteThroughCountsWordTraffic)
{
    CacheConfig cfg = smallConfig();
    cfg.writeBack = false;
    Cache c(cfg);
    c.read(0x100, 4);    // fill block
    c.write(0x100, 4);   // hit: 1 word through
    c.write(0x104, 4);   // hit: 1 word through
    EXPECT_EQ(c.stats().wordsOut, 2u);
    c.flush();
    EXPECT_EQ(c.stats().wordsOut, 2u);  // nothing dirty
}

TEST(Cache, NoWriteAllocate)
{
    CacheConfig cfg = smallConfig();
    cfg.writeAllocate = false;
    cfg.writeBack = false;
    Cache c(cfg);
    EXPECT_FALSE(c.write(0x100, 4));
    // Still not resident.
    EXPECT_FALSE(c.read(0x100, 4));
    EXPECT_EQ(c.stats().wordsOut, 1u);
    EXPECT_EQ(c.stats().wordsIn, 8u);  // only the read miss filled
}

TEST(Cache, NoPrefetchMode)
{
    CacheConfig cfg = smallConfig();
    cfg.prefetchWrapAround = false;
    Cache c(cfg);
    EXPECT_FALSE(c.read(0x100, 4));
    EXPECT_FALSE(c.read(0x108, 4));  // not prefetched
    EXPECT_EQ(c.stats().wordsIn, 4u);
}

TEST(Cache, GeometryValidation)
{
    CacheConfig bad = smallConfig();
    bad.sizeBytes = 3000;
    EXPECT_THROW(Cache{bad}, FatalError);
    bad = smallConfig();
    bad.subBlockBytes = 2;
    EXPECT_THROW(Cache{bad}, FatalError);
    bad = smallConfig();
    bad.blockBytes = 512;  // bigger than the cache
    EXPECT_THROW(Cache{bad}, FatalError);
    bad = smallConfig();
    bad.subBlockBytes = 64;  // bigger than block
    EXPECT_THROW(Cache{bad}, FatalError);
    // A frame's sector state is a 64-bit mask: 128 sub-blocks per
    // block is rejected, 64 is the largest accepted.
    bad = smallConfig();
    bad.sizeBytes = 4096;
    bad.blockBytes = 512;
    bad.subBlockBytes = 4;
    EXPECT_THROW(Cache{bad}, FatalError);
    bad.subBlockBytes = 8;
    EXPECT_NO_THROW(Cache{bad});
}

TEST(Cache, AccessValidation)
{
    Cache c(smallConfig());
    EXPECT_THROW(c.read(0x100, 16), PanicError);  // exceeds sub-block
    EXPECT_THROW(c.read(0x106, 4), PanicError);   // spans sub-blocks
}

/** Sequential-scan miss rate equals blockBytes/stride geometry. */
class CacheScan : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(CacheScan, SequentialMissRateMatchesGeometry)
{
    const auto [blockBytes, subBytes] = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = 4096;
    cfg.blockBytes = blockBytes;
    cfg.subBlockBytes = subBytes;
    Cache c(cfg);
    const int n = 2048;  // words, half the cache: no capacity misses
    for (int i = 0; i < n; ++i)
        c.read(static_cast<uint32_t>(4 * i), 4);
    // One miss per block thanks to wrap-around prefetch.
    EXPECT_EQ(c.stats().readMisses,
              static_cast<uint64_t>(n * 4 / blockBytes));
    EXPECT_EQ(c.stats().wordsIn, static_cast<uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheScan,
    ::testing::Values(std::tuple{8, 4}, std::tuple{8, 8},
                      std::tuple{16, 8}, std::tuple{32, 4},
                      std::tuple{32, 8}, std::tuple{32, 32},
                      std::tuple{64, 8}, std::tuple{64, 64}));

/** Bigger caches never miss more on a loop trace (LRU inclusion holds
 *  per associativity when sets nest; checked for a simple loop). */
TEST(Cache, MissRateMonotoneInSizeForLoopTrace)
{
    uint64_t prevMisses = ~0ull;
    for (uint32_t size : {1024u, 2048u, 4096u, 8192u, 16384u}) {
        CacheConfig cfg;
        cfg.sizeBytes = size;
        cfg.blockBytes = 32;
        cfg.subBlockBytes = 8;
        Cache c(cfg);
        // Loop over a 6 KB instruction-like footprint, 40 passes.
        for (int pass = 0; pass < 40; ++pass)
            for (uint32_t a = 0; a < 6144; a += 4)
                c.read(0x1000 + a, 4);
        EXPECT_LE(c.stats().readMisses, prevMisses) << size;
        prevMisses = c.stats().readMisses;
    }
}

TEST(Memory, ReadWriteRoundTrip)
{
    Memory m(4096);
    m.write32(0x100, 0xdeadbeef);
    EXPECT_EQ(m.read32(0x100), 0xdeadbeefu);
    EXPECT_EQ(m.read16(0x100), 0xbeefu);
    EXPECT_EQ(m.read16(0x102), 0xdeadu);
    EXPECT_EQ(m.read8(0x103), 0xdeu);
    m.write16(0x200, 0x1234);
    m.write8(0x202, 0x56);
    EXPECT_EQ(m.read32(0x200), 0x00561234u);
}

TEST(Memory, AlignmentAndBoundsEnforced)
{
    Memory m(4096);
    EXPECT_THROW(m.read32(2), FatalError);
    EXPECT_THROW(m.read16(1), FatalError);
    EXPECT_THROW(m.read32(4096), FatalError);
    EXPECT_THROW(m.write32(4094, 0), FatalError);
    EXPECT_NO_THROW(m.read8(4095));
}

TEST(Memory, ReadString)
{
    Memory m(4096);
    const char *s = "hello";
    for (int i = 0; i < 6; ++i)
        m.write8(0x300 + i, static_cast<uint8_t>(s[i]));
    EXPECT_EQ(m.readString(0x300), "hello");
}

} // namespace
