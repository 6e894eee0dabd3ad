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
 *
 * The pipeline's own counters replay too. Branch penalties are
 * additive accounting over the branch-outcome stream
 * (branchStatsFor), and the issue-time scoreboard reads nothing but
 * each instruction's op and register numbers, so the interlock
 * counters of any forwarding/depth slice are a function of the
 * dynamic pc sequence — the trace's fetch runs. replayTiming() walks
 * them through a per-image TimingTable; the sweep engine captures
 * each image once, on the default machine, and retimes every other
 * slice from that trace.
 */

#ifndef D16SIM_CORE_REPLAY_REPLAY_HH
#define D16SIM_CORE_REPLAY_REPLAY_HH

#include <utility>
#include <vector>

#include "core/replay/trace.hh"
#include "mem/cache.hh"
#include "sim/machine.hh"

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

/**
 * The issue-time scoreboard's view of an image's text section: one
 * sim::issueSlot() per instruction word, built once per image and
 * shared by every slice's replayTiming(). Emitted instructions come
 * from the predecoded table, every other word (in-text pools) is
 * decoded from the image, as the machine decodes it from memory; a
 * word that does not decode gets an empty slot (a capture that reached
 * one would have failed).
 */
class TimingTable
{
  public:
    using Slot = sim::IssueSlot;

    TimingTable(const assem::Image &image, const sim::DecodedText &text,
                const sim::FpLatencies &fpu = {});

    uint32_t base() const { return base_; }
    uint32_t end() const { return end_; }
    unsigned insnShift() const { return shift_; }
    const std::vector<Slot> &slots() const { return slots_; }

  private:
    uint32_t base_ = 0;
    uint32_t end_ = 0;
    unsigned shift_ = 2;
    std::vector<Slot> slots_;
};

/** The scoreboard counters of one capture slice, recomputed from a
 *  trace by replayTiming(). */
struct TimingReplayStats
{
    sim::UarchConfig slice;  //!< the capture slice they hold for
    uint64_t loadInterlocks = 0;
    uint64_t fpInterlocks = 0;
    uint64_t fwdSavedStalls = 0;
};

/**
 * True when replayTiming() is exact for `trace` on `table`'s image:
 * every fetch run is instruction-aligned inside the text section, and
 * no data write lands in it. (A store into the text section can change
 * what a later fetch of a pool word decodes to in the live machine,
 * which the table, decoded from the image, would not see.)
 */
bool timingReplayable(const Trace &trace, const TimingTable &table);

/**
 * Recompute loadInterlocks, fpInterlocks and fwdSavedStalls for
 * `uarch`'s capture slice from a trace of the same image captured at
 * any slice — exactly what a capture at that slice records. FatalError
 * unless timingReplayable(trace, table).
 */
TimingReplayStats replayTiming(const Trace &trace, const TimingTable &table,
                               const sim::UarchConfig &uarch);

/**
 * The measurement a run on `uarch` reports, from a trace: the capture's
 * run, with the branch-policy statistics recomputed for `uarch` and,
 * given `retimed` (replayTiming() of the same trace), its scoreboard
 * counters in place of the capture's. FatalError if `uarch`'s capture
 * slice differs from the trace's (or from `retimed`'s).
 */
RunMeasurement replayRun(const Trace &trace, const sim::UarchConfig &uarch,
                         const TimingReplayStats *retimed = nullptr);

} // namespace d16sim::core::replay

#endif // D16SIM_CORE_REPLAY_REPLAY_HH
