/**
 * @file
 * Replay — evaluate memory configurations and machine slices from a
 * capture's reference streams.
 *
 * One functional execution, many costed evaluations (the structure the
 * paper's §4 figures share): the evaluators below stream the fetch and
 * data streams through any number of mem::Cache pairs — and through
 * the cacheless fetch-buffer model — producing CacheStats / IRequests
 * bit-identical to evaluating the direct folds (core::CacheProbe,
 * core::FetchBufferProbe) on a live simulation, at a fraction of the
 * cost (no decode, no execute, no scoreboard).
 *
 * Every evaluator is a fold (sim::TraceFold): it keeps its state
 * across chunks, takes the streams one chunk at a time through feed(),
 * and yields its result at finish(). A capture's sim::TraceSink feeds
 * the folds while the machine runs, so the sweep engine never holds a
 * whole trace unless it stores one; a recorded Trace feeds them as one
 * chunk (Trace::chunk()). Results do not depend on where the chunks
 * break: a sink never splits a fetch run, and each fold carries across
 * a chunk boundary everything the next run needs. The whole-trace
 * functions (replayCaches, replayFetchRequests, branchStatsFor,
 * replayTiming, replayRun) feed one fold the trace in one chunk.
 *
 * CacheFold evaluates any number of split-cache configurations at
 * once. On the I-side, direct-mapped configurations with wrap-around
 * prefetch (the paper's whole 5-size x 4-block matrix) go through an
 * inclusive multi-size evaluator: one walk of the fetch runs per block
 * size, one tag check per block visit shared by every size. On the
 * D-side, direct-mapped write-back write-allocate configurations with
 * wrap-around prefetch (again the paper's whole matrix) go through a
 * direct-mapped sector evaluator: one pass over the data accesses per
 * block geometry, each reference decoded once and probed in every
 * size's frames. Every other configuration (set-associative,
 * prefetch-off, write-through or write-around) runs the generic
 * mem::Cache.
 *
 * The pipeline's own counters replay too. Branch penalties are
 * additive accounting over the branch-outcome stream (BranchFold),
 * and the issue-time scoreboard reads nothing but each instruction's
 * op and register numbers, so the interlock counters of any
 * forwarding/depth slice are a function of the dynamic pc sequence —
 * the fetch runs. One TimingFold retimes every slice from them
 * through a per-image TimingTable, a lane per distinct scoreboard,
 * applying each run's memoized effect wherever a lane enters it with
 * nothing in flight; the sweep engine captures each image once, on
 * the default machine, and retimes every other slice from that stream.
 */

#ifndef D16SIM_CORE_REPLAY_REPLAY_HH
#define D16SIM_CORE_REPLAY_REPLAY_HH

#include <array>
#include <span>
#include <utility>
#include <vector>

#include "core/replay/trace.hh"
#include "mem/cache.hh"
#include "sim/machine.hh"

namespace d16sim::core::replay
{

/** One split-cache configuration to evaluate; stats are filled in by
 *  CacheFold::finish(). */
struct CacheEval
{
    mem::CacheConfig icache;
    mem::CacheConfig dcache;
    mem::CacheStats icacheStats;
    mem::CacheStats dcacheStats;
};

/**
 * Evaluates every configuration in `evals` (referenced, not copied)
 * over the streams. Results are exactly what a CacheProbe with the
 * same configuration would have measured on the traced run, whichever
 * evaluator serves it, and each configuration is held to
 * mem::CacheGeometry's checks (FatalError, at construction).
 */
class CacheFold : public sim::TraceFold
{
  public:
    CacheFold(std::vector<CacheEval> &evals, uint32_t insnBytes);

    void feed(const sim::TraceChunk &chunk) override;

    /** Write every configuration's stats into its CacheEval. */
    void finish();

  private:
    /** One size of an inclusive group: the resident block number per
     *  frame (~0 marks an empty frame). */
    struct Level
    {
        std::vector<uint32_t> blocks;
        uint32_t setMask = 0;
        uint64_t misses = 0;
    };
    /** The direct-mapped wrap-around I-configs of one block size,
     *  smallest first (`members` indexes the evals). */
    struct Inclusive
    {
        uint32_t blockShift = 0;
        uint32_t last = ~uint32_t{0};  //!< the block visited last
        std::vector<size_t> members;
        std::vector<Level> levels;
    };

    /** One direct-mapped sector frame: the resident block number
     *  (~0 marks an empty frame) and its sub-block masks. */
    struct Frame
    {
        uint32_t block = ~uint32_t{0};
        uint64_t valid = 0;
        uint64_t dirty = 0;  //!< subset of valid
    };
    /** One size of a direct-mapped D-side group: its frames and the
     *  counters that differ by size. Traffic is kept in sub-blocks. */
    struct Sector
    {
        std::vector<Frame> frames;
        uint32_t setMask = 0;
        uint64_t readMisses = 0, writeMisses = 0;
        uint64_t subsIn = 0, subsOut = 0;
    };
    /** The direct-mapped, write-back, write-allocate, wrap-around
     *  D-configs of one block geometry (`members` indexes the evals,
     *  one Sector each). */
    struct Direct
    {
        mem::CacheGeometry geom;  //!< block fields shared by the sizes
        uint64_t accesses = 0, writes = 0;
        std::vector<size_t> members;
        std::vector<Sector> sizes;
    };

    /** One group's pass over a chunk's stream. The passes are 64-byte
     *  aligned, so code growth elsewhere cannot shift their speed. */
    __attribute__((aligned(64))) static void
    walk(Inclusive &group, std::span<const FetchRun> runs,
         uint32_t insnBytes);
    __attribute__((aligned(64))) static void
    probe(Direct &group, std::span<const DataAccess> accesses);

    std::vector<CacheEval> &evals_;
    uint32_t insnBytes_;
    uint64_t fetches_ = 0;
    std::vector<Inclusive> inclusive_;
    std::vector<size_t> generic_;  //!< evals the generic icaches serve
    std::vector<mem::Cache> icaches_;
    std::vector<Direct> direct_;
    std::vector<size_t> genericData_;  //!< evals the generic dcaches serve
    std::vector<mem::Cache> dcaches_;
};

/** CacheFold over a whole trace. */
void replayCaches(const Trace &trace, std::vector<CacheEval> &evals);

/** Single-configuration convenience: returns (icache, dcache) stats. */
std::pair<mem::CacheStats, mem::CacheStats>
replayCache(const Trace &trace, const mem::CacheConfig &icache,
            const mem::CacheConfig &dcache);

/**
 * The cacheless fetch-buffer model (§4): the number of memory requests
 * a `busBytes`-wide fetch path issues over the fetch stream. Exactly
 * FetchBufferProbe::requests() for the traced run, and FatalError on
 * the bus widths that probe rejects.
 */
class FetchBufferFold : public sim::TraceFold
{
  public:
    FetchBufferFold(uint32_t busBytes, uint32_t insnBytes)
        : busShift_(fetchBusShift(busBytes)), insnBytes_(insnBytes)
    {}

    void feed(const sim::TraceChunk &chunk) override;

    uint64_t finish() const { return requests_; }

  private:
    unsigned busShift_;
    uint32_t insnBytes_;
    bool valid_ = false;
    uint32_t current_ = 0;
    uint64_t requests_ = 0;
};

/** FetchBufferFold over a whole trace. */
uint64_t replayFetchRequests(const Trace &trace, uint32_t busBytes);

/** Branch-policy statistics recomputed from a trace (see
 *  branchStatsFor). */
struct BranchReplayStats
{
    uint64_t branchStalls = 0;
    uint64_t mispredicts = 0;
};

/**
 * The predictor walks: the mispredict counts of any number of branch
 * policies over one branch-outcome stream. The counts are the same at
 * every capture slice, so one fold serves the penalty of every depth.
 * The delay-slot policy walks nothing (it charges every taken transfer
 * alike), static not-taken mispredicts exactly the taken conditionals,
 * and each distinct bimodal table size gets its own sim::BranchModel.
 * The tables advance together, outcome by outcome, so the store-to-load
 * chains through their counters overlap.
 */
class BranchFold : public sim::TraceFold
{
  public:
    explicit BranchFold(uint32_t insnBytes);

    /** Walk `uarch`'s predictor too; call before the first feed. */
    void add(const sim::UarchConfig &uarch);

    void feed(const sim::TraceChunk &chunk) override;

    /** The statistics a run on `uarch` (an added predictor, any depth)
     *  with `takenBranches` taken transfers reports. */
    BranchReplayStats finish(const sim::UarchConfig &uarch,
                             uint64_t takenBranches) const;

  private:
    /** One bimodal table size's predictor and mispredict count. */
    struct Bimodal
    {
        int bhtLog2;
        sim::BranchModel model;
        uint64_t mispredicts = 0;
    };

    unsigned insnShift_;
    bool walks_ = false;  //!< a policy other than delay slot was added
    uint64_t takenConditionals_ = 0;
    std::vector<Bimodal> bimodal_;
};

/**
 * Recompute the branch-policy statistics the machine would report for
 * `uarch` from a recorded trace, so every branch-policy sibling of one
 * capture replays exactly. FatalError if the trace's capture slice
 * (forwarding/depth) does not match `uarch`'s.
 */
BranchReplayStats branchStatsFor(const Trace &trace,
                                 const sim::UarchConfig &uarch);

/**
 * The issue-time scoreboard's view of an image's text section: one
 * sim::issueSlot() per instruction word, built once per image and
 * shared by every lane of its TimingFold. Emitted instructions come from
 * the predecoded table, every other word (in-text pools) is decoded
 * from the image, as the machine decodes it from memory; a word that
 * does not decode gets an empty slot (a capture that reached one would
 * have failed).
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

    /** True when `r` lies instruction-aligned inside the text. */
    bool
    covers(const FetchRun &r) const
    {
        const uint32_t off = r.startPc - base_;
        return (off & ((1u << shift_) - 1)) == 0 &&
               uint64_t{off >> shift_} + r.count <= slots_.size();
    }

    /** True when `a` is a write that lands in the text section. */
    bool
    writesText(const DataAccess &a) const
    {
        return a.write && uint64_t{a.addr} + a.size > base_ &&
               a.addr < end_;
    }

  private:
    uint32_t base_ = 0;
    uint32_t end_ = 0;
    unsigned shift_ = 2;
    std::vector<Slot> slots_;
};

/** The scoreboard counters of one capture slice, recomputed from a
 *  capture's streams by TimingFold. */
struct TimingReplayStats
{
    sim::UarchConfig slice;  //!< the capture slice they hold for
    uint64_t loadInterlocks = 0;
    uint64_t fpInterlocks = 0;
    uint64_t fwdSavedStalls = 0;
};

/**
 * The scoreboard walks of any number of capture slices over the fetch
 * runs of a capture of `table`'s image at any slice, one lane (ready
 * array, cycle, counters) per distinct scoreboard: depth 6 and 7 share
 * their forwarding's lane, as their loadDelay() is the same. A lane
 * that enters a run with no result in flight (every ready time at most
 * the next issue cycle) applies the run's memoized effect — cycles,
 * counters and the results still in flight at its end, a pure function
 * of (start slot, count) — and otherwise walks it slot by slot
 * (Machine::useGpr/useFpr/useStatus and finishIssue), recording the
 * effect when it entered clean. One lookup per run in a direct-mapped
 * memo of 1 << MemoBits entries serves every lane; an effect leaving
 * more than MaxLive results in flight is walked every time.
 *
 * The walks are exact while every run lies instruction-aligned in the
 * text section and no data write lands in it (a store into the text
 * can change what a later fetch of a pool word decodes to in the live
 * machine, which the table, decoded from the image, would not see).
 * The fold checks each run before indexing the table, and each chunk's
 * writes, once for all lanes, and stops for good at the first run or
 * write that breaks this; exact() then reads false and every slice
 * must be captured on its own machine.
 */
class TimingFold : public sim::TraceFold
{
  public:
    static constexpr unsigned MemoBits = 12;
    static constexpr size_t MaxLive = 3;  //!< results an effect carries

    /** The memo entry of the run (`start` slot, `count`). */
    static size_t
    memoSlot(uint32_t start, uint32_t count)
    {
        return ((start ^ (count << 20)) * 0x9e3779b1u) >> (32 - MemoBits);
    }

    TimingFold(const TimingTable &table, uint32_t insnBytes);

    /** Time `uarch`'s capture slice too; call before the first feed. */
    void add(const sim::UarchConfig &uarch);

    void feed(const sim::TraceChunk &chunk) override;

    /** False once the stream wrote its text section or left it. */
    bool exact() const { return exact_; }

    /** Distinct scoreboards, and capture slices, added. */
    size_t lanes() const { return lanes_.size(); }
    size_t slices() const { return slices_.size(); }

    /** The counters of `uarch`'s capture slice, which must have been
     *  added; FatalError unless exact(). */
    TimingReplayStats finish(const sim::UarchConfig &uarch) const;

  private:
    /** Stall cycles charged to loads and to FP results, and cycles the
     *  store-data bypass saved. */
    enum Counter { Load, Fp, FwdSaved };
    using Counts = std::array<uint64_t, 3>;
    /** A run's effect on a lane that entered it clean: `live` results
     *  in flight at its end, register reg[k] ready ahead[k] cycles
     *  after its last issue. */
    struct Effect
    {
        static constexpr uint8_t Unset = 0xff, Overflow = 0xfe;
        uint32_t cycles = 0;
        std::array<uint32_t, 3> counts{};
        uint8_t live = Unset;
        std::array<uint8_t, MaxLive> reg{}, ahead{};
    };
    struct Lane
    {
        bool forward = false;
        uint64_t loadDelta = 2;  //!< a load's result latency
        uint64_t cycle = 0;
        Counts counts{};
        uint64_t maxReady = 0;  //!< the latest ready time written
        std::array<uint64_t, sim::IssueSlot::Resources> ready{};
        std::vector<Effect> memo;
    };

    /** laneOf_'s index for `slice`'s scoreboard. */
    static int
    scoreboard(const sim::UarchConfig &slice)
    {
        return slice.forward + 2 * slice.loadDelay();
    }
    template <bool Forward>
    static void walk(Lane &l, const TimingTable::Slot *s, uint32_t count);
    static void record(const Lane &l, uint64_t cycle, const Counts &counts,
                       Effect &e);
    static void apply(Lane &l, const Effect &e);

    const TimingTable &table_;
    bool exact_;
    std::vector<Lane> lanes_;
    std::array<int8_t, 2 * (sim::UarchConfig::MaxLoadDelay + 1)> laneOf_;
    std::vector<sim::UarchConfig> slices_;
    std::vector<std::pair<uint32_t, uint32_t>> tags_;  //!< (start, count)
};

/** True when a TimingFold over `trace` on `table`'s image stays exact
 *  (see TimingFold). */
bool timingReplayable(const Trace &trace, const TimingTable &table);

/**
 * TimingFold over a whole trace: loadInterlocks, fpInterlocks and
 * fwdSavedStalls for `uarch`'s capture slice, exactly what a capture
 * at that slice records. FatalError unless timingReplayable(trace,
 * table).
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
