#include "core/replay/replay.hh"

#include <algorithm>
#include <bit>
#include <map>

#include "support/error.hh"

namespace d16sim::core::replay
{

/*
 * The inclusive multi-size I-side evaluator serves the direct-mapped
 * I-configs with wrap-around prefetch, grouped by block size.
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
 *
 * The rest of the I-configs (set-associative or prefetch-off) run the
 * generic model.
 *
 * The direct-mapped D-side evaluator serves the direct-mapped,
 * write-back, write-allocate D-configs with wrap-around prefetch,
 * grouped by block geometry (block and sub-block size). It is
 * mem::Cache::access specialized to one way: at associativity 1 the
 * victim is always the set's only frame, so mem::Cache's lastUse and
 * useClock_ are written but never read, and dropping them changes no
 * counter. A frame keeps the resident block number (the set bits
 * included, so it doubles as the tag) and the valid and dirty
 * sub-block masks; a miss on another block writes the dirty
 * sub-blocks back and empties the frame, a read miss then fills every
 * invalid sub-block, a write miss fills and dirties just its own.
 * There is no inclusion shortcut here: a read miss in a small cache
 * prefetches the whole block while the same read can hit a partly
 * valid block in a larger one (left by a write miss), so every size
 * is probed. Reads and writes are the same for every size and are
 * counted once per group; traffic is kept in sub-blocks and scaled to
 * words at finish().
 */
CacheFold::CacheFold(std::vector<CacheEval> &evals, uint32_t insnBytes)
    : evals_(evals), insnBytes_(insnBytes)
{
    std::map<uint32_t, std::vector<size_t>> bySize;
    std::map<std::pair<uint32_t, uint32_t>, std::vector<size_t>> byBlock;
    for (size_t i = 0; i < evals.size(); ++i) {
        const mem::CacheConfig &ic = evals[i].icache;
        if (ic.assoc == 1 && ic.prefetchWrapAround) {
            bySize[ic.blockBytes].push_back(i);
        } else {
            generic_.push_back(i);
            icaches_.emplace_back(ic);
        }
        const mem::CacheConfig &dc = evals[i].dcache;
        if (dc.assoc == 1 && dc.prefetchWrapAround && dc.writeAllocate &&
            dc.writeBack) {
            byBlock[{dc.blockBytes, dc.subBlockBytes}].push_back(i);
        } else {
            genericData_.push_back(i);
            dcaches_.emplace_back(dc);
        }
    }
    for (auto &[blockBytes, members] : bySize) {
        Inclusive group;
        std::stable_sort(members.begin(), members.end(),
                         [&](size_t a, size_t b) {
                             return evals[a].icache.sizeBytes <
                                    evals[b].icache.sizeBytes;
                         });
        for (size_t m : members) {
            const mem::CacheGeometry g =
                mem::CacheGeometry::of(evals[m].icache);
            Level level;
            level.blocks.assign(g.numSets, ~uint32_t{0});
            level.setMask = g.setMask;
            group.levels.push_back(std::move(level));
            group.blockShift = g.blockShift;
        }
        group.members = std::move(members);
        inclusive_.push_back(std::move(group));
    }
    for (auto &[block, members] : byBlock) {
        Direct group;
        for (size_t m : members) {
            group.geom = mem::CacheGeometry::of(evals[m].dcache);
            Sector sector;
            sector.frames.resize(group.geom.numSets);
            sector.setMask = group.geom.setMask;
            group.sizes.push_back(std::move(sector));
        }
        group.members = std::move(members);
        direct_.push_back(std::move(group));
    }
}

void
CacheFold::walk(Inclusive &group, std::span<const FetchRun> runs,
                uint32_t insnBytes)
{
    // After a visit every size holds the block, and only this group's
    // walk touches its frames, so visiting the same block again next
    // hits everywhere and changes nothing: a run that starts in the
    // block the last one ended in skips that block.
    uint32_t last = group.last;
    for (const FetchRun &r : runs) {
        if (!r.count)
            continue;
        const uint32_t first = r.startPc >> group.blockShift;
        const uint32_t end =
            (r.startPc + (r.count - 1) * insnBytes) >> group.blockShift;
        for (uint32_t b = first + (first == last); b <= end; ++b) {
            for (Level &l : group.levels) {
                uint32_t &frame = l.blocks[b & l.setMask];
                if (frame == b)
                    break;
                frame = b;
                ++l.misses;
            }
        }
        last = end;
    }
    group.last = last;
}

void
CacheFold::probe(Direct &group, std::span<const DataAccess> accesses)
{
    const mem::CacheGeometry &g = group.geom;
    uint64_t writes = 0;
    for (const DataAccess &a : accesses) {
        panicIf(a.size == 0 || (a.addr >> g.subShift) !=
                                   ((a.addr + a.size - 1u) >> g.subShift),
                "access of ", int{a.size}, " bytes at ", a.addr,
                " spans a sub-block");
        writes += a.write;
        const uint32_t b = a.addr >> g.blockShift;
        const uint64_t bit = uint64_t{1}
                             << ((a.addr & g.blockMask) >> g.subShift);
        for (Sector &s : group.sizes) {
            Frame &f = s.frames[b & s.setMask];
            if (f.block == b && (f.valid & bit)) {
                if (a.write)
                    f.dirty |= bit;
                continue;
            }
            if (f.block != b) {
                s.subsOut += static_cast<uint64_t>(std::popcount(f.dirty));
                f = Frame{b, 0, 0};
            }
            // A write miss fills its sub-block and dirties it; a read
            // miss fills every invalid sub-block of the block.
            const uint64_t fill = a.write ? bit : g.fullMask & ~f.valid;
            f.valid |= fill;
            s.subsIn += static_cast<uint64_t>(std::popcount(fill));
            if (a.write) {
                f.dirty |= bit;
                ++s.writeMisses;
            } else {
                ++s.readMisses;
            }
        }
    }
    group.accesses += accesses.size();
    group.writes += writes;
}

void
CacheFold::feed(const sim::TraceChunk &chunk)
{
    // The caches are independent, so each group or generic cache takes
    // its own pass over the chunk's stream it models. The fetch side
    // is run-length encoded: each run feeds a generic icache through
    // the sequential-read fast path in one call.
    const uint32_t ib = insnBytes_;
    // One alignment check per chunk, over the nonempty runs' start
    // pcs or'ed together: a check per run slowed a one-size walk ~20%.
    uint32_t pcs = 0;
    for (const FetchRun &r : chunk.runs) {
        fetches_ += r.count;
        pcs |= r.count ? r.startPc : 0;
    }
    panicIf(!inclusive_.empty() && (pcs & (ib - 1)),
            "a fetch run is not instruction-aligned");
    for (Inclusive &group : inclusive_)
        walk(group, chunk.runs, ib);
    for (mem::Cache &c : icaches_)
        for (const FetchRun &r : chunk.runs)
            c.readSeq(r.startPc, static_cast<int>(ib), r.count);

    for (Direct &group : direct_)
        probe(group, chunk.accesses);
    for (mem::Cache &c : dcaches_)
        for (const DataAccess &a : chunk.accesses)
            c.access(a.addr, a.size, a.write);
}

void
CacheFold::finish()
{
    for (const Inclusive &group : inclusive_) {
        for (size_t i = 0; i < group.members.size(); ++i) {
            CacheEval &e = evals_[group.members[i]];
            e.icacheStats = mem::CacheStats{};
            e.icacheStats.reads = fetches_;
            e.icacheStats.readMisses = group.levels[i].misses;
            e.icacheStats.wordsIn =
                group.levels[i].misses * (e.icache.blockBytes / 4);
        }
    }
    for (size_t i = 0; i < generic_.size(); ++i)
        evals_[generic_[i]].icacheStats = icaches_[i].stats();
    for (const Direct &group : direct_) {
        for (size_t i = 0; i < group.members.size(); ++i) {
            const Sector &s = group.sizes[i];
            evals_[group.members[i]].dcacheStats = {
                .reads = group.accesses - group.writes,
                .writes = group.writes,
                .readMisses = s.readMisses,
                .writeMisses = s.writeMisses,
                .wordsIn = s.subsIn * group.geom.wordsPerSub,
                .wordsOut = s.subsOut * group.geom.wordsPerSub,
            };
        }
    }
    for (size_t i = 0; i < genericData_.size(); ++i)
        evals_[genericData_[i]].dcacheStats = dcaches_[i].stats();
}

void
replayCaches(const Trace &trace, std::vector<CacheEval> &evals)
{
    CacheFold fold(evals, trace.insnBytes);
    fold.feed(trace.chunk());
    fold.finish();
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

void
FetchBufferFold::feed(const sim::TraceChunk &chunk)
{
    // Mirrors FetchBufferProbe: a request whenever the fetch leaves the
    // currently buffered aligned block. Within a run the pc advances
    // monotonically by insnBytes (which divides busBytes), so the run
    // crosses exactly lastBlock - firstBlock boundaries, plus one
    // request up front if it starts outside the buffered block.
    for (const FetchRun &r : chunk.runs) {
        const uint32_t first = r.startPc >> busShift_;
        const uint32_t last =
            (r.startPc + (r.count - 1) * insnBytes_) >> busShift_;
        requests_ += (last - first) +
                     ((!valid_ || first != current_) ? 1 : 0);
        valid_ = true;
        current_ = last;
    }
}

uint64_t
replayFetchRequests(const Trace &trace, uint32_t busBytes)
{
    FetchBufferFold fold(busBytes, trace.insnBytes);
    fold.feed(trace.chunk());
    return fold.finish();
}

BranchFold::BranchFold(uint32_t insnBytes)
    : insnShift_(insnBytes == 2 ? 1 : 2)
{}

void
BranchFold::add(const sim::UarchConfig &uarch)
{
    walks_ = walks_ || uarch.branch != sim::BranchPolicy::DelaySlot;
    if (uarch.branch != sim::BranchPolicy::Bimodal)
        return;
    for (const Bimodal &b : bimodal_)
        if (b.bhtLog2 == uarch.bhtLog2)
            return;
    bimodal_.push_back({uarch.bhtLog2, sim::BranchModel(uarch, insnShift_)});
}

void
BranchFold::feed(const sim::TraceChunk &chunk)
{
    if (!walks_)
        return;
    for (const BranchOutcome &o : chunk.outcomes)
        takenConditionals_ += o.taken;
    for (const BranchOutcome &o : chunk.outcomes)
        for (Bimodal &b : bimodal_)
            b.mispredicts += b.model.bimodal(o.pc, o.taken);
}

BranchReplayStats
BranchFold::finish(const sim::UarchConfig &uarch,
                   uint64_t takenBranches) const
{
    BranchReplayStats out;
    if (uarch.branch == sim::BranchPolicy::DelaySlot) {
        // The delay-slot policy charges every taken transfer alike
        // (conditional or not, including the halting jr), and
        // takenBranches counts exactly those.
        out.branchStalls =
            takenBranches * static_cast<uint64_t>(uarch.takenExtra());
        return out;
    }
    // The predictors charge only mispredicted conditionals; their
    // unconditional transfers cost nothing. Static not-taken
    // mispredicts exactly the taken ones.
    panicIf(!walks_, "replay: predictor '", uarch.key(), "' is not walked");
    out.mispredicts = takenConditionals_;
    if (uarch.branch == sim::BranchPolicy::Bimodal) {
        const auto it = std::find_if(
            bimodal_.begin(), bimodal_.end(),
            [&](const Bimodal &b) { return b.bhtLog2 == uarch.bhtLog2; });
        panicIf(it == bimodal_.end(), "replay: predictor '", uarch.key(),
                "' is not walked");
        out.mispredicts = it->mispredicts;
    }
    out.branchStalls =
        out.mispredicts * static_cast<uint64_t>(uarch.mispredictPenalty());
    return out;
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

/** The branch-policy statistics for `uarch` from a whole trace. Their
 *  inputs — the taken-branch count and the outcome stream — are the
 *  same at every capture slice. */
BranchReplayStats
branchStats(const Trace &trace, const sim::UarchConfig &uarch)
{
    BranchFold fold(trace.insnBytes);
    fold.add(uarch);
    fold.feed(trace.chunk());
    return fold.finish(uarch, trace.base.stats.takenBranches);
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
