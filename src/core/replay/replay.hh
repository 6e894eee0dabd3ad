/**
 * @file
 * Replay — evaluate memory configurations from a recorded Trace.
 *
 * One functional execution, many costed evaluations (the structure the
 * paper's §4 figures share): the evaluators below stream a Trace's
 * fetch and data streams through any number of mem::Cache pairs — and
 * through the cacheless fetch-buffer model — producing CacheStats /
 * IRequests bit-identical to attaching the corresponding probe to a
 * live simulation, at a fraction of the cost (no decode, no execute,
 * no scoreboard).
 *
 * replayCaches() evaluates any number of split-cache configurations
 * in one call. On the I-side, direct-mapped configurations with
 * wrap-around prefetch (the paper's whole 5-size x 4-block matrix) go
 * through an inclusive multi-size evaluator: one walk of the fetch
 * runs per block size, one tag check per block visit shared by every
 * size. Set-associative or prefetch-off I-configs and every D-cache
 * run the generic mem::Cache. The sweep engine hands each build
 * node's cache siblings to one call (sweep::replayJobs).
 */

#ifndef D16SIM_CORE_REPLAY_REPLAY_HH
#define D16SIM_CORE_REPLAY_REPLAY_HH

#include <utility>
#include <vector>

#include "core/replay/trace.hh"
#include "mem/cache.hh"

namespace d16sim::core::replay
{

/** One split-cache configuration to evaluate; stats are filled in by
 *  replayCaches(). */
struct CacheEval
{
    mem::CacheConfig icache;
    mem::CacheConfig dcache;
    mem::CacheStats icacheStats;
    mem::CacheStats dcacheStats;
};

/**
 * Evaluate every configuration in `evals` over the trace. Results are
 * exactly what a CacheProbe with the same configuration would have
 * measured on the traced run, whichever evaluator serves it, and each
 * configuration is held to mem::CacheGeometry's checks (FatalError).
 */
void replayCaches(const Trace &trace, std::vector<CacheEval> &evals);

/** Single-configuration convenience: returns (icache, dcache) stats. */
std::pair<mem::CacheStats, mem::CacheStats>
replayCache(const Trace &trace, const mem::CacheConfig &icache,
            const mem::CacheConfig &dcache);

/**
 * The cacheless fetch-buffer model (§4): number of memory requests a
 * `busBytes`-wide fetch path issues over the recorded fetch stream.
 * Exactly FetchBufferProbe::requests() for the traced run.
 */
uint64_t replayFetchRequests(const Trace &trace, uint32_t busBytes);

/** Branch-policy statistics recomputed from a trace (see
 *  branchStatsFor). */
struct BranchReplayStats
{
    uint64_t branchStalls = 0;
    uint64_t mispredicts = 0;
};

/**
 * Recompute the branch-policy statistics the machine would report for
 * `uarch` from a recorded trace — branch penalties are additive
 * accounting over the taken-branch count (delay-slot policy) or the
 * branch-outcome stream (predictor policies), so every branch-policy
 * sibling of one capture replays exactly, through the machine's own
 * sim::BranchModel. FatalError if the trace's capture slice
 * (forwarding/depth) does not match `uarch`'s.
 */
BranchReplayStats branchStatsFor(const Trace &trace,
                                 const sim::UarchConfig &uarch);

} // namespace d16sim::core::replay

#endif // D16SIM_CORE_REPLAY_REPLAY_HH
