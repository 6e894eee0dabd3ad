/**
 * @file
 * Sub-blocked cache model (the dinero-equivalent of paper §4.1).
 *
 * Matches the paper's configuration vocabulary: direct-mapped (or
 * set-associative) caches organized as blocks of 8..64 bytes with 4- or
 * 8-byte sub-blocks, wrap-around prefetch of the remainder of the block
 * on read misses, no prefetch on writes, write-allocate, write-back.
 *
 * Each frame holds one tag plus per-sub-block valid and dirty bits
 * (a "sector cache"), kept as 64-bit masks, so a block has at most 64
 * sub-blocks: a read that hits the tag but misses its sub-block counts
 * as a miss and fills the invalid sub-blocks of the block; a write
 * miss fetches only the written sub-block.
 *
 * Traffic is counted in 32-bit words: wordsIn (memory -> cache fills
 * and prefetches) and wordsOut (dirty write-backs), the quantities
 * behind the paper's Figure 19 "Words/Cycle" curves.
 */

#ifndef D16SIM_MEM_CACHE_HH
#define D16SIM_MEM_CACHE_HH

#include <cstdint>
#include <vector>

namespace d16sim::mem
{

struct CacheConfig
{
    uint32_t sizeBytes = 4096;
    uint32_t blockBytes = 32;
    uint32_t subBlockBytes = 8;
    uint32_t assoc = 1;                  //!< 1 = direct-mapped
    bool prefetchWrapAround = true;      //!< fill rest of block on read miss
    bool writeAllocate = true;
    bool writeBack = true;
};

struct CacheStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t readMisses = 0;
    uint64_t writeMisses = 0;
    uint64_t wordsIn = 0;   //!< words fetched from memory
    uint64_t wordsOut = 0;  //!< words written back to memory

    uint64_t accesses() const { return reads + writes; }
    uint64_t misses() const { return readMisses + writeMisses; }

    double
    missRate() const
    {
        return accesses() ? static_cast<double>(misses()) /
                                static_cast<double>(accesses())
                          : 0.0;
    }

    double
    readMissRate() const
    {
        return reads ? static_cast<double>(readMisses) /
                           static_cast<double>(reads)
                     : 0.0;
    }

    double
    writeMissRate() const
    {
        return writes ? static_cast<double>(writeMisses) /
                            static_cast<double>(writes)
                      : 0.0;
    }

    uint64_t wordsTransferred() const { return wordsIn + wordsOut; }
};

/**
 * The shift/mask form of a CacheConfig's geometry. of() holds the
 * model's structural checks — every dimension a power of two,
 * sub-blocks of 4..blockBytes bytes, at most 64 sub-blocks per block
 * (the width of a frame's sector masks), at least one set — and is
 * FatalError on a geometry that fails them. Every evaluator of a
 * CacheConfig (Cache, and the trace-replay fast path) derives its
 * indexing here, so they accept exactly the same configurations.
 */
struct CacheGeometry
{
    uint32_t numSets = 0;
    uint32_t subPerBlock = 0;
    uint32_t wordsPerSub = 0;
    uint32_t blockShift = 0;  //!< log2(blockBytes)
    uint32_t subShift = 0;    //!< log2(subBlockBytes)
    uint32_t setShift = 0;    //!< log2(numSets)
    uint32_t setMask = 0;     //!< numSets - 1
    uint32_t blockMask = 0;   //!< blockBytes - 1
    uint64_t fullMask = 0;    //!< one bit per sub-block

    static CacheGeometry of(const CacheConfig &config);
};

class Cache
{
  public:
    explicit Cache(CacheConfig config);

    /**
     * Simulate one access. `size` bytes at `addr` (the access must not
     * span a sub-block, which natural alignment guarantees).
     * @return true on hit.
     */
    bool access(uint32_t addr, int size, bool isWrite);

    /** Read access convenience. */
    bool read(uint32_t addr, int size) { return access(addr, size, false); }
    /** Write access convenience. */
    bool write(uint32_t addr, int size) { return access(addr, size, true); }

    /**
     * `count` sequential reads of `size` bytes each, starting at
     * `addr` and advancing by `size` — exactly equivalent to calling
     * read() `count` times, but only the first reference to a
     * sub-block goes through access(). The rest are guaranteed hits
     * (nothing can evict between them) and are folded into the
     * counters: to the end of the sub-block, or to the end of the
     * whole block once every sub-block of the frame is valid (as
     * wrap-around prefetch leaves it after a read miss). This is the
     * generic trace-replay path for instruction streams.
     */
    void readSeq(uint32_t addr, int size, uint32_t count);

    /** Flush: write back all dirty sub-blocks and invalidate. */
    void flush();

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }

  private:
    struct Frame
    {
        uint32_t tag = 0;
        uint64_t valid = 0;  //!< one bit per sub-block; 0 = empty frame
        uint64_t dirty = 0;  //!< subset of valid
        uint64_t lastUse = 0;
    };

    Frame *find(uint32_t set, uint32_t tag);
    Frame &findVictim(uint32_t set);
    void evict(Frame &frame);

    CacheConfig config_;
    CacheGeometry geom_;
    uint64_t useClock_ = 0;
    std::vector<Frame> frames_;  //!< numSets x assoc
    CacheStats stats_;
};

} // namespace d16sim::mem

#endif // D16SIM_MEM_CACHE_HH
