#include "core/replay/replay.hh"

#include <algorithm>
#include <map>

#include "support/error.hh"

namespace d16sim::core::replay
{

namespace
{

/**
 * The inclusive multi-size I-side evaluator, for direct-mapped
 * I-configs with wrap-around prefetch that share one block size
 * (`members` indexes `evals`).
 *
 * An instruction stream only reads, and a read miss with wrap-around
 * prefetch fills the whole block, so every resident block is fully
 * valid: a reference hits iff its block is resident, a miss brings in
 * blockBytes/4 words, and nothing is ever dirty. Each frame of a
 * direct-mapped cache then holds the most recently referenced block of
 * its set, and doubling the size splits every set in two, so a smaller
 * cache's contents are a subset of a larger one's (inclusion: Mattson
 * et al. 1970; Hill & Smith 1989). One walk over the block numbers of
 * each fetch run probes the sizes smallest-first and stops at the
 * first hit — every larger size hits too and its frame is unchanged;
 * each size that missed takes the block. Results equal running each
 * configuration through mem::Cache::readSeq.
 */
void
replayInclusive(const Trace &trace, std::vector<CacheEval> &evals,
                std::vector<size_t> members)
{
    std::stable_sort(members.begin(), members.end(),
                     [&](size_t a, size_t b) {
                         return evals[a].icache.sizeBytes <
                                evals[b].icache.sizeBytes;
                     });
    // One frame array per size, each holding the resident block number
    // (not just the tag); ~0 is no block number, so it marks empty.
    struct Level
    {
        std::vector<uint32_t> blocks;
        uint32_t setMask = 0;
        uint64_t misses = 0;
    };
    std::vector<Level> levels(members.size());
    uint32_t blockShift = 0;  // the same for every member
    for (size_t i = 0; i < members.size(); ++i) {
        const mem::CacheGeometry g =
            mem::CacheGeometry::of(evals[members[i]].icache);
        levels[i].blocks.assign(g.numSets, ~uint32_t{0});
        levels[i].setMask = g.setMask;
        blockShift = g.blockShift;
    }

    const uint32_t ib = trace.insnBytes;
    for (const FetchRun &r : trace.runs) {
        if (!r.count)
            continue;
        panicIf(r.startPc & (ib - 1), "fetch run at pc ", r.startPc,
                " is not instruction-aligned");
        const uint32_t first = r.startPc >> blockShift;
        const uint32_t last = (r.startPc + (r.count - 1) * ib) >> blockShift;
        for (uint32_t b = first; b <= last; ++b) {
            for (Level &l : levels) {
                uint32_t &frame = l.blocks[b & l.setMask];
                if (frame == b)
                    break;
                frame = b;
                ++l.misses;
            }
        }
    }

    const uint64_t fetches = trace.fetchCount();
    for (size_t i = 0; i < members.size(); ++i) {
        CacheEval &e = evals[members[i]];
        e.icacheStats = mem::CacheStats{};
        e.icacheStats.reads = fetches;
        e.icacheStats.readMisses = levels[i].misses;
        e.icacheStats.wordsIn = levels[i].misses * (e.icache.blockBytes / 4);
    }
}

} // namespace

void
replayCaches(const Trace &trace, std::vector<CacheEval> &evals)
{
    // I-configs the inclusive evaluator serves, by block size; the
    // rest (set-associative or prefetch-off) and every D-cache run the
    // generic model. A D-side write miss allocates a single sub-block
    // and leaves it dirty, so the inclusion argument does not hold
    // there.
    std::map<uint32_t, std::vector<size_t>> inclusive;
    std::vector<size_t> generic;
    std::vector<mem::Cache> icaches, dcaches;
    dcaches.reserve(evals.size());
    for (size_t i = 0; i < evals.size(); ++i) {
        const mem::CacheConfig &ic = evals[i].icache;
        if (ic.assoc == 1 && ic.prefetchWrapAround) {
            inclusive[ic.blockBytes].push_back(i);
        } else {
            generic.push_back(i);
            icaches.emplace_back(ic);
        }
        dcaches.emplace_back(evals[i].dcache);
    }

    for (auto &[blockBytes, members] : inclusive)
        replayInclusive(trace, evals, std::move(members));

    // The caches are independent, so each takes its own pass over the
    // stream it models (and a call with no configurations of a side
    // walks nothing). The fetch side is run-length encoded: each run
    // feeds a generic icache through the sequential-read fast path in
    // one call.
    const int ib = static_cast<int>(trace.insnBytes);
    for (mem::Cache &c : icaches)
        for (const FetchRun &r : trace.runs)
            c.readSeq(r.startPc, ib, r.count);

    for (mem::Cache &c : dcaches)
        for (const DataAccess &a : trace.accesses)
            c.access(a.addr, a.size, a.write);

    for (size_t i = 0; i < generic.size(); ++i)
        evals[generic[i]].icacheStats = icaches[i].stats();
    for (size_t i = 0; i < evals.size(); ++i)
        evals[i].dcacheStats = dcaches[i].stats();
}

std::pair<mem::CacheStats, mem::CacheStats>
replayCache(const Trace &trace, const mem::CacheConfig &icache,
            const mem::CacheConfig &dcache)
{
    std::vector<CacheEval> evals(1);
    evals[0].icache = icache;
    evals[0].dcache = dcache;
    replayCaches(trace, evals);
    return {evals[0].icacheStats, evals[0].dcacheStats};
}

uint64_t
replayFetchRequests(const Trace &trace, uint32_t busBytes)
{
    // Mirrors FetchBufferProbe: a request whenever the fetch leaves the
    // currently buffered aligned block. Within a run the pc advances
    // monotonically by insnBytes (which divides busBytes), so the run
    // crosses exactly lastBlock - firstBlock boundaries, plus one
    // request up front if it starts outside the buffered block.
    uint64_t requests = 0;
    bool valid = false;
    uint32_t current = 0;
    for (const FetchRun &r : trace.runs) {
        const uint32_t first = r.startPc / busBytes;
        const uint32_t last =
            (r.startPc + (r.count - 1) * trace.insnBytes) / busBytes;
        requests += (last - first) + ((!valid || first != current) ? 1 : 0);
        valid = true;
        current = last;
    }
    return requests;
}

namespace
{

/** FatalError unless `uarch` shares the capture slice `timed` (the
 *  slice whose scoreboard counters the caller holds). */
void
checkSlice(const sim::UarchConfig &timed, const sim::UarchConfig &uarch)
{
    if (!(timed.captureConfig() == uarch.captureConfig()))
        fatal("replay: trace timed at uarch '", timed.captureKey(),
              "' cannot replay capture slice '", uarch.captureKey(), "'");
}

/** The branch-policy statistics for `uarch`. Their inputs — the
 *  taken-branch count and the outcome stream — are the same at every
 *  capture slice. */
BranchReplayStats
branchStats(const Trace &trace, const sim::UarchConfig &uarch)
{
    using sim::BranchPolicy;

    sim::BranchModel model(uarch, trace.insnBytes == 2 ? 1 : 2);
    BranchReplayStats out;
    if (uarch.branch == BranchPolicy::DelaySlot) {
        // The delay-slot policy charges every taken transfer alike
        // (conditional or not, including the halting jr), and
        // takenBranches counts exactly those.
        out.branchStalls = trace.base.stats.takenBranches *
                           static_cast<uint64_t>(model.jump());
        return out;
    }

    // The predictors run the machine's model over the outcome stream
    // in execution order; their unconditional transfers cost nothing.
    for (const BranchOutcome &o : trace.outcomes) {
        bool mispredicted = false;
        out.branchStalls += static_cast<uint64_t>(
            model.conditional(o.pc, o.taken, mispredicted));
        out.mispredicts += mispredicted ? 1 : 0;
    }
    return out;
}

} // namespace

BranchReplayStats
branchStatsFor(const Trace &trace, const sim::UarchConfig &uarch)
{
    checkSlice(trace.capturedUarch, uarch);
    return branchStats(trace, uarch);
}

RunMeasurement
replayRun(const Trace &trace, const sim::UarchConfig &uarch,
          const TimingReplayStats *retimed)
{
    checkSlice(retimed ? retimed->slice : trace.capturedUarch, uarch);
    RunMeasurement run = trace.base;
    if (retimed) {
        run.stats.loadInterlocks = retimed->loadInterlocks;
        run.stats.fpInterlocks = retimed->fpInterlocks;
        run.stats.fwdSavedStalls = retimed->fwdSavedStalls;
    }
    const BranchReplayStats bs = branchStats(trace, uarch);
    run.stats.branchStalls = bs.branchStalls;
    run.stats.mispredicts = bs.mispredicts;
    return run;
}

} // namespace d16sim::core::replay
