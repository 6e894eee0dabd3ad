/**
 * @file
 * Randomized differential test for the sub-blocked cache model.
 *
 * A naive reference model — per-frame tag plus per-sub-block valid and
 * dirty bits, written as the most literal possible transcription of
 * the policy in mem/cache.hh (read-miss wrap-around prefetch, no
 * prefetch on writes, optional write-allocate, write-back or
 * write-through, LRU within a set) — is driven in lockstep with
 * mem::Cache over ~1k seeded random access streams spanning the
 * paper's configuration vocabulary. Every access must agree on
 * hit/miss, and every stream must end with identical traffic
 * classification (reads/writes/read-misses/write-misses/words-in/
 * words-out), including after a flush.
 *
 * A second leg holds replay::replayCaches() — whose I-side serves
 * direct-mapped prefetching configurations with the inclusive
 * multi-size evaluator and the rest with mem::Cache::readSeq — to the
 * same reference driven one fetch at a time, over seeded random
 * fetch-run streams at both instruction widths.
 *
 * A third leg does the same for the D-side, whose direct-mapped
 * write-back write-allocate prefetching configurations go through the
 * direct-mapped sector evaluator and the rest through mem::Cache:
 * seeded random read/write streams, fed whole through replayCaches()
 * and in chunks of several sizes through a replay::CacheFold.
 */

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/replay/replay.hh"
#include "mem/cache.hh"

using namespace d16sim;

namespace
{

/** The most literal possible sector cache: no derived index math
 *  shared with the implementation under test beyond the set mapping
 *  the config dictates. */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const mem::CacheConfig &cfg) : cfg_(cfg)
    {
        numSets_ = cfg.sizeBytes / (cfg.blockBytes * cfg.assoc);
        subPerBlock_ = cfg.blockBytes / cfg.subBlockBytes;
        sets_.assign(numSets_, std::vector<Frame>(
                                   cfg.assoc, Frame(subPerBlock_)));
    }

    bool
    access(uint32_t addr, int size, bool isWrite)
    {
        if (isWrite)
            ++stats_.writes;
        else
            ++stats_.reads;

        const uint32_t block = addr / cfg_.blockBytes;
        const uint32_t set = block % numSets_;
        const uint32_t tag = block / numSets_;
        const uint32_t sub =
            (addr % cfg_.blockBytes) / cfg_.subBlockBytes;
        ++clock_;

        Frame *frame = nullptr;
        for (Frame &f : sets_[set])
            if (f.live && f.tag == tag)
                frame = &f;

        if (frame && frame->valid[sub]) {
            frame->lastUse = clock_;
            if (isWrite) {
                if (cfg_.writeBack)
                    frame->dirty[sub] = true;
                else
                    stats_.wordsOut += words(size);
            }
            return true;
        }

        if (isWrite)
            ++stats_.writeMisses;
        else
            ++stats_.readMisses;

        const bool tagWasResident = frame != nullptr;
        if (!frame) {
            // LRU victim (an empty frame counts as oldest).
            frame = &sets_[set][0];
            for (Frame &f : sets_[set]) {
                if (!f.live) {
                    frame = &f;
                    break;
                }
                if (f.lastUse < frame->lastUse)
                    frame = &f;
            }
            writeBackAndInvalidate(*frame);
            frame->live = true;
            frame->tag = tag;
        }
        frame->lastUse = clock_;

        if (isWrite && !cfg_.writeAllocate) {
            stats_.wordsOut += words(size);
            if (!tagWasResident)
                frame->live = false;  // nothing was allocated after all
            return false;
        }

        // Demand fill, then wrap-around prefetch of the rest of the
        // block on read misses only.
        frame->valid[sub] = true;
        frame->dirty[sub] = false;
        stats_.wordsIn += cfg_.subBlockBytes / 4;
        if (!isWrite && cfg_.prefetchWrapAround) {
            for (uint32_t s = 0; s < subPerBlock_; ++s) {
                if (!frame->valid[s]) {
                    frame->valid[s] = true;
                    frame->dirty[s] = false;
                    stats_.wordsIn += cfg_.subBlockBytes / 4;
                }
            }
        }
        if (isWrite) {
            if (cfg_.writeBack)
                frame->dirty[sub] = true;
            else
                stats_.wordsOut += words(size);
        }
        return false;
    }

    void
    flush()
    {
        for (auto &set : sets_)
            for (Frame &f : set)
                writeBackAndInvalidate(f);
    }

    const mem::CacheStats &stats() const { return stats_; }

  private:
    struct Frame
    {
        explicit Frame(uint32_t subs) : valid(subs), dirty(subs) {}
        bool live = false;
        uint32_t tag = 0;
        uint64_t lastUse = 0;
        std::vector<bool> valid;
        std::vector<bool> dirty;
    };

    static uint64_t words(int size) { return (size + 3) / 4; }

    void
    writeBackAndInvalidate(Frame &f)
    {
        if (!f.live)
            return;
        if (cfg_.writeBack)
            for (uint32_t s = 0; s < subPerBlock_; ++s)
                if (f.dirty[s])
                    stats_.wordsOut += cfg_.subBlockBytes / 4;
        f.live = false;
        std::fill(f.valid.begin(), f.valid.end(), false);
        std::fill(f.dirty.begin(), f.dirty.end(), false);
    }

    mem::CacheConfig cfg_;
    uint32_t numSets_ = 0;
    uint32_t subPerBlock_ = 0;
    uint64_t clock_ = 0;
    std::vector<std::vector<Frame>> sets_;
    mem::CacheStats stats_;
};

void
expectStatsEqual(const mem::CacheStats &got, const mem::CacheStats &ref,
                 const std::string &where)
{
    EXPECT_EQ(got.reads, ref.reads) << where;
    EXPECT_EQ(got.writes, ref.writes) << where;
    EXPECT_EQ(got.readMisses, ref.readMisses) << where;
    EXPECT_EQ(got.writeMisses, ref.writeMisses) << where;
    EXPECT_EQ(got.wordsIn, ref.wordsIn) << where;
    EXPECT_EQ(got.wordsOut, ref.wordsOut) << where;
}

/** A configuration as a failure message names it. */
std::string
describe(const mem::CacheConfig &c)
{
    return std::to_string(c.sizeBytes) + ":" + std::to_string(c.blockBytes) +
           ":" + std::to_string(c.subBlockBytes) + ":" +
           std::to_string(c.assoc) +
           (c.prefetchWrapAround ? "" : " no-prefetch") +
           (c.writeBack ? "" : " write-through") +
           (c.writeAllocate ? "" : " write-around");
}

/** Configurations spanning the paper's vocabulary plus the write
 *  policies the model supports. */
std::vector<mem::CacheConfig>
configs()
{
    std::vector<mem::CacheConfig> out;
    for (uint32_t size : {256u, 1024u, 4096u}) {
        for (uint32_t block : {16u, 32u, 64u}) {
            for (uint32_t sub : {4u, 8u, block}) {
                for (uint32_t assoc : {1u, 2u, 4u}) {
                    if (block * assoc > size)
                        continue;
                    mem::CacheConfig cfg;
                    cfg.sizeBytes = size;
                    cfg.blockBytes = block;
                    cfg.subBlockBytes = sub;
                    cfg.assoc = assoc;
                    out.push_back(cfg);
                }
            }
        }
    }
    return out;
}

} // namespace

TEST(CacheDifferential, RandomStreamsMatchReferenceModel)
{
    const std::vector<mem::CacheConfig> cfgs = configs();
    const int streams = 1024;
    const int accessesPerStream = 512;
    uint64_t totalAccesses = 0;

    for (int stream = 0; stream < streams; ++stream) {
        std::mt19937 rng(0xd16c0de + stream);
        mem::CacheConfig cfg = cfgs[stream % cfgs.size()];
        // Exercise the policy knobs too: prefetch off every 3rd
        // stream, write-through every 5th, write-around every 7th.
        cfg.prefetchWrapAround = stream % 3 != 0;
        cfg.writeBack = stream % 5 != 0;
        cfg.writeAllocate = stream % 7 != 0;

        mem::Cache cache(cfg);
        ReferenceCache ref(cfg);

        // A small address space (a few multiples of the cache size)
        // keeps conflict and capacity behavior hot.
        const uint32_t span = cfg.sizeBytes * (1 + stream % 4);
        std::uniform_int_distribution<uint32_t> addrDist(0, span - 1);
        std::uniform_int_distribution<int> sizeDist(0, 2);
        std::uniform_int_distribution<int> writeDist(0, 99);

        for (int i = 0; i < accessesPerStream; ++i) {
            const int size = 1 << sizeDist(rng);  // 1, 2, or 4 bytes
            const uint32_t addr = addrDist(rng) & ~(size - 1u);
            const bool isWrite = writeDist(rng) < 30;
            const bool hit = cache.access(addr, size, isWrite);
            const bool refHit = ref.access(addr, size, isWrite);
            ASSERT_EQ(hit, refHit)
                << "stream " << stream << " access " << i << " addr 0x"
                << std::hex << addr << std::dec << " size " << size
                << (isWrite ? " write" : " read");
            ++totalAccesses;
        }
        expectStatsEqual(cache.stats(), ref.stats(),
                         "stream " + std::to_string(stream));

        cache.flush();
        ref.flush();
        expectStatsEqual(cache.stats(), ref.stats(),
                         "stream " + std::to_string(stream) +
                             " after flush");
        if (::testing::Test::HasFatalFailure())
            break;
    }
    EXPECT_EQ(totalAccesses,
              static_cast<uint64_t>(streams) * accessesPerStream);
}

namespace
{

/** `count` random fetch runs: sequential stretches joined by jumps,
 *  half of them short (loops and nearby calls, so blocks are reused)
 *  and half anywhere in a 64 KiB text (conflicts across every size up
 *  to 16 KiB). */
std::vector<core::replay::FetchRun>
randomFetchRuns(std::mt19937 &rng, uint32_t insnBytes, int count)
{
    std::uniform_int_distribution<uint32_t> lenDist(1, 48);
    std::uniform_int_distribution<uint32_t> farDist(0, 0xffff);
    std::uniform_int_distribution<int> nearDist(-96, 32);
    std::bernoulli_distribution far(0.5);
    std::vector<core::replay::FetchRun> runs;
    uint32_t pc = 0x1000;
    for (int i = 0; i < count; ++i) {
        const uint32_t len = lenDist(rng);
        runs.push_back({pc, len});
        const uint32_t next = pc + len * insnBytes;
        pc = far(rng) ? farDist(rng)
                      : next + static_cast<uint32_t>(nearDist(rng)) *
                                   insnBytes;
        pc &= 0xffff & ~(insnBytes - 1);
    }
    return runs;
}

/** The I-configs one replayCaches() call evaluates: the paper's 20
 *  (1K-16K x 8-64 B blocks, sub-block min(block, 8)), their
 *  sub-block-4 variants, a 64-sub-block geometry, and configurations
 *  the inclusive evaluator must leave to the generic model
 *  (set-associative, prefetch off). */
std::vector<mem::CacheConfig>
fetchConfigs()
{
    std::vector<mem::CacheConfig> out;
    for (uint32_t sub : {8u, 4u}) {
        for (uint32_t kb : {1u, 2u, 4u, 8u, 16u}) {
            for (uint32_t block : {8u, 16u, 32u, 64u}) {
                mem::CacheConfig cfg;
                cfg.sizeBytes = kb * 1024;
                cfg.blockBytes = block;
                cfg.subBlockBytes = std::min(block, sub);
                out.push_back(cfg);
            }
        }
    }
    mem::CacheConfig wide;
    wide.sizeBytes = 16384;
    wide.blockBytes = 256;
    wide.subBlockBytes = 4;
    out.push_back(wide);
    wide.assoc = 2;
    out.push_back(wide);
    for (uint32_t assoc : {2u, 4u}) {
        mem::CacheConfig cfg;
        cfg.sizeBytes = 2048;
        cfg.blockBytes = 16;
        cfg.subBlockBytes = 4;
        cfg.assoc = assoc;
        out.push_back(cfg);
    }
    for (uint32_t block : {16u, 32u}) {
        mem::CacheConfig cfg;
        cfg.sizeBytes = 4096;
        cfg.blockBytes = block;
        cfg.prefetchWrapAround = false;
        out.push_back(cfg);
    }
    return out;
}

} // namespace

TEST(CacheDifferential, ReplayedFetchRunsMatchReferenceModel)
{
    const std::vector<mem::CacheConfig> cfgs = fetchConfigs();
    int checked = 0;
    for (uint32_t insnBytes : {2u, 4u}) {
        for (int stream = 0; stream < 8; ++stream) {
            std::mt19937 rng(0xfe7c4 + stream * 2 + insnBytes);
            core::replay::Trace trace;
            trace.insnBytes = insnBytes;
            trace.runs = randomFetchRuns(rng, insnBytes, 3000);

            std::vector<core::replay::CacheEval> evals(cfgs.size());
            for (size_t i = 0; i < cfgs.size(); ++i)
                evals[i].icache = cfgs[i];
            core::replay::replayCaches(trace, evals);

            for (size_t i = 0; i < cfgs.size(); ++i) {
                ReferenceCache ref(cfgs[i]);
                for (const core::replay::FetchRun &r : trace.runs)
                    for (uint32_t j = 0; j < r.count; ++j)
                        ref.access(r.startPc + j * insnBytes,
                                   static_cast<int>(insnBytes), false);
                expectStatsEqual(evals[i].icacheStats, ref.stats(),
                                 "insnBytes " + std::to_string(insnBytes) +
                                     " stream " + std::to_string(stream) +
                                     " config " + describe(cfgs[i]));
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 2 * 8 * static_cast<int>(cfgs.size()));
}

namespace
{

/** `count` random data references of 1, 2 or 4 naturally aligned
 *  bytes, 30% writes: half near the previous one (stack and array
 *  walks, so blocks are reused and left partly valid and partly
 *  dirty) and half anywhere in 64 KiB (conflicts across every size up
 *  to 16 KiB). */
std::vector<core::replay::DataAccess>
randomAccesses(std::mt19937 &rng, int count)
{
    std::uniform_int_distribution<uint32_t> farDist(0, 0xffff);
    std::uniform_int_distribution<int> nearDist(-64, 64);
    std::uniform_int_distribution<int> sizeDist(0, 2);
    std::bernoulli_distribution far(0.5), write(0.3);
    std::vector<core::replay::DataAccess> out;
    uint32_t addr = 0x8000;
    for (int i = 0; i < count; ++i) {
        addr = far(rng) ? farDist(rng)
                        : addr + static_cast<uint32_t>(nearDist(rng));
        const uint8_t size = static_cast<uint8_t>(1 << sizeDist(rng));
        addr &= 0xffff & ~(size - 1u);
        out.push_back({addr, size, write(rng)});
    }
    return out;
}

/** The D-configs one CacheFold evaluates: fetchConfigs()'s (the
 *  paper's 20, their sub-block-4 variants, a 64-sub-block geometry,
 *  set-associative and prefetch-off ones) plus the write policies the
 *  direct-mapped evaluator must leave to mem::Cache. */
std::vector<mem::CacheConfig>
dataConfigs()
{
    std::vector<mem::CacheConfig> out = fetchConfigs();
    mem::CacheConfig cfg;
    cfg.sizeBytes = 4096;
    cfg.blockBytes = 32;
    cfg.writeBack = false;
    out.push_back(cfg);
    cfg.writeAllocate = false;
    out.push_back(cfg);
    cfg.writeBack = true;
    out.push_back(cfg);
    return out;
}

} // namespace

TEST(CacheDifferential, ReplayedDataStreamsMatchReferenceModel)
{
    const std::vector<mem::CacheConfig> cfgs = dataConfigs();
    // 0 feeds the whole stream through replayCaches(); the rest split
    // it into chunks of that many accesses for one CacheFold.
    const std::vector<size_t> chunkSizes = {0, 4096, 97, 1};
    int checked = 0;
    for (int stream = 0; stream < 6; ++stream) {
        std::mt19937 rng(0xda7a + stream);
        core::replay::Trace trace;
        trace.insnBytes = 4;
        trace.accesses = randomAccesses(rng, 6000);

        std::vector<mem::CacheStats> want;
        for (const mem::CacheConfig &cfg : cfgs) {
            ReferenceCache ref(cfg);
            for (const core::replay::DataAccess &a : trace.accesses)
                ref.access(a.addr, a.size, a.write);
            want.push_back(ref.stats());
        }

        for (const size_t chunk : chunkSizes) {
            std::vector<core::replay::CacheEval> evals(cfgs.size());
            for (size_t i = 0; i < cfgs.size(); ++i)
                evals[i].dcache = cfgs[i];
            if (chunk == 0) {
                core::replay::replayCaches(trace, evals);
            } else {
                core::replay::CacheFold fold(evals, trace.insnBytes);
                const std::span<const core::replay::DataAccess> all(
                    trace.accesses);
                for (size_t at = 0; at < all.size(); at += chunk) {
                    sim::TraceChunk c;
                    c.accesses =
                        all.subspan(at, std::min(chunk, all.size() - at));
                    fold.feed(c);
                }
                fold.finish();
            }
            for (size_t i = 0; i < cfgs.size(); ++i) {
                expectStatsEqual(evals[i].dcacheStats, want[i],
                                 "stream " + std::to_string(stream) +
                                     " chunk " + std::to_string(chunk) +
                                     " config " + describe(cfgs[i]));
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 6 * 4 * static_cast<int>(cfgs.size()));
}
