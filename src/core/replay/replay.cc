#include "core/replay/replay.hh"

#include "support/error.hh"

namespace d16sim::core::replay
{

void
replayCaches(const Trace &trace, std::vector<CacheEval> &evals)
{
    if (evals.empty())
        return;

    std::vector<mem::Cache> icaches, dcaches;
    icaches.reserve(evals.size());
    dcaches.reserve(evals.size());
    for (const CacheEval &e : evals) {
        icaches.emplace_back(e.icache);
        dcaches.emplace_back(e.dcache);
    }

    // The fetch side is run-length encoded, so each run feeds every
    // icache through the sequential-read fast path in one call.
    const int ib = static_cast<int>(trace.insnBytes);
    for (const FetchRun &r : trace.runs)
        for (mem::Cache &c : icaches)
            c.readSeq(r.startPc, ib, r.count);

    for (const DataAccess &a : trace.accesses) {
        if (a.write)
            for (mem::Cache &c : dcaches)
                c.write(a.addr, a.size);
        else
            for (mem::Cache &c : dcaches)
                c.read(a.addr, a.size);
    }

    for (size_t i = 0; i < evals.size(); ++i) {
        evals[i].icacheStats = icaches[i].stats();
        evals[i].dcacheStats = dcaches[i].stats();
    }
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

BranchReplayStats
branchStatsFor(const Trace &trace, const sim::UarchConfig &uarch)
{
    using sim::BranchPolicy;

    if (!(trace.capturedUarch.captureConfig() == uarch.captureConfig()))
        fatal("replay: trace captured at uarch '",
              trace.capturedUarch.captureKey(),
              "' cannot replay branch stats for capture slice '",
              uarch.captureKey(), "'");

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

} // namespace d16sim::core::replay
