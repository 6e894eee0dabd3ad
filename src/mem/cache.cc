#include "mem/cache.hh"

#include <bit>

#include "support/bits.hh"
#include "support/error.hh"

namespace d16sim::mem
{

CacheGeometry
CacheGeometry::of(const CacheConfig &c)
{
    if (!isPowerOfTwo(c.sizeBytes) || !isPowerOfTwo(c.blockBytes) ||
        !isPowerOfTwo(c.subBlockBytes) || !isPowerOfTwo(c.assoc)) {
        fatal("cache geometry must be powers of two");
    }
    if (c.subBlockBytes < 4 || c.subBlockBytes > c.blockBytes)
        fatal("sub-block size must be in [4, blockBytes]");
    if (c.blockBytes / c.subBlockBytes > 64)
        fatal("at most 64 sub-blocks per block");
    if (c.blockBytes * c.assoc > c.sizeBytes)
        fatal("cache smaller than one set");
    CacheGeometry g;
    g.numSets = c.sizeBytes / (c.blockBytes * c.assoc);
    g.subPerBlock = c.blockBytes / c.subBlockBytes;
    g.wordsPerSub = c.subBlockBytes / 4;
    panicIf(!isPowerOfTwo(g.numSets), "set count must be a power of two");
    g.blockShift = floorLog2(c.blockBytes);
    g.subShift = floorLog2(c.subBlockBytes);
    g.setShift = floorLog2(g.numSets);
    g.setMask = g.numSets - 1;
    g.blockMask = c.blockBytes - 1;
    g.fullMask = g.subPerBlock == 64 ? ~uint64_t{0}
                                     : (uint64_t{1} << g.subPerBlock) - 1;
    return g;
}

Cache::Cache(CacheConfig config)
    : config_(config), geom_(CacheGeometry::of(config_))
{
    frames_.resize(geom_.numSets * config_.assoc);
}

Cache::Frame *
Cache::find(uint32_t set, uint32_t tag)
{
    for (uint32_t w = 0; w < config_.assoc; ++w) {
        Frame &f = frames_[set * config_.assoc + w];
        if (f.valid && f.tag == tag)
            return &f;
    }
    return nullptr;
}

Cache::Frame &
Cache::findVictim(uint32_t set)
{
    Frame *victim = &frames_[set * config_.assoc];
    for (uint32_t w = 0; w < config_.assoc; ++w) {
        Frame &f = frames_[set * config_.assoc + w];
        if (!f.valid)
            return f;
        if (f.lastUse < victim->lastUse)
            victim = &f;
    }
    return *victim;
}

void
Cache::evict(Frame &frame)
{
    if (config_.writeBack)
        stats_.wordsOut += static_cast<uint64_t>(std::popcount(frame.dirty)) *
                           geom_.wordsPerSub;
    frame.valid = 0;
    frame.dirty = 0;
}

bool
Cache::access(uint32_t addr, int size, bool isWrite)
{
    panicIf(size <= 0 || static_cast<uint32_t>(size) > config_.subBlockBytes,
            "access size ", size, " exceeds sub-block");
    panicIf((addr >> geom_.subShift) !=
                ((addr + static_cast<uint32_t>(size) - 1) >> geom_.subShift),
            "access spans a sub-block boundary");

    if (isWrite)
        stats_.writes += 1;
    else
        stats_.reads += 1;

    const uint32_t blockAddr = addr >> geom_.blockShift;
    const uint32_t set = blockAddr & geom_.setMask;
    const uint32_t tag = blockAddr >> geom_.setShift;
    const uint64_t bit = uint64_t{1}
                         << ((addr & geom_.blockMask) >> geom_.subShift);

    Frame *hitFrame = find(set, tag);

    ++useClock_;

    if (hitFrame && (hitFrame->valid & bit)) {
        // Full hit.
        hitFrame->lastUse = useClock_;
        if (isWrite) {
            if (config_.writeBack) {
                hitFrame->dirty |= bit;
            } else {
                stats_.wordsOut += (size + 3) / 4;
            }
        }
        return true;
    }

    // Miss (tag miss, or sub-block miss within a resident block).
    if (isWrite)
        stats_.writeMisses += 1;
    else
        stats_.readMisses += 1;

    Frame *frame = hitFrame;
    if (!frame) {
        frame = &findVictim(set);
        evict(*frame);
        frame->tag = tag;
    }
    frame->lastUse = useClock_;

    if (isWrite && !config_.writeAllocate) {
        // Write-around: send the words to memory, no fill (a frame
        // just evicted for it stays empty).
        stats_.wordsOut += (size + 3) / 4;
        return false;
    }

    // Demand fill of the missed sub-block, then on reads the
    // wrap-around prefetch of the block's remaining invalid
    // sub-blocks. No prefetch on writes. Invalid sub-blocks are never
    // dirty, so the fill leaves the dirty mask alone.
    const uint64_t fill =
        !isWrite && config_.prefetchWrapAround
            ? geom_.fullMask & ~frame->valid
            : bit;
    frame->valid |= fill;
    stats_.wordsIn +=
        static_cast<uint64_t>(std::popcount(fill)) * geom_.wordsPerSub;

    if (isWrite) {
        if (config_.writeBack)
            frame->dirty |= bit;
        else
            stats_.wordsOut += (size + 3) / 4;
    }
    return false;
}

void
Cache::readSeq(uint32_t addr, int size, uint32_t count)
{
    const uint32_t stride = static_cast<uint32_t>(size);
    while (count) {
        access(addr, size, false);
        // The first reference made its sub-block resident (a read miss
        // demand-fills it), and nothing intervenes before the next
        // ones. They are guaranteed full hits up to the end of the
        // sub-block, or of the whole block when the frame is fully
        // valid; fold their counter updates. The stride equals the
        // access size, so the i-th reference lands at addr + i*size.
        const uint32_t blockAddr = addr >> geom_.blockShift;
        Frame *frame =
            find(blockAddr & geom_.setMask, blockAddr >> geom_.setShift);
        panicIf(!frame, "readSeq lost the frame it just filled");
        const uint32_t span = frame->valid == geom_.fullMask
                                  ? config_.blockBytes
                                  : config_.subBlockBytes;
        uint32_t k = (span - (addr & (span - 1))) / stride;
        if (k > count)
            k = count;
        stats_.reads += k - 1;
        useClock_ += k - 1;
        frame->lastUse = useClock_;
        addr += k * stride;
        count -= k;
    }
}

void
Cache::flush()
{
    for (Frame &f : frames_)
        evict(f);
}

} // namespace d16sim::mem
