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
 * replayCaches() is the single-pass form: each recorded reference is
 * fed to every configuration in turn, so evaluating the paper's whole
 * 5-size x 4-block matrix touches the trace once.
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
 * Evaluate every configuration in `evals` over the trace in a single
 * pass: each fetch goes to every I-cache, each data access to every
 * D-cache, in recorded order. Results are exactly what a CacheProbe
 * with the same configuration would have measured on the traced run.
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
