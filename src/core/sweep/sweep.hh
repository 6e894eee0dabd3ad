/**
 * @file
 * Parallel experiment sweep engine.
 *
 * The paper's evaluation is a matrix of (workload x machine variant x
 * memory configuration) experiments; every figure consumes a slice of
 * it. The sweep engine executes that matrix as deduplicated build
 * nodes settled by a fixed number of worker threads:
 *
 *  - a *job* is one build+run: compile a workload for a variant, then
 *    simulate it, optionally under one measurement probe (fetch-buffer
 *    counter, split I/D cache, immediate classifier);
 *  - jobs sharing a (workload, variant) pair share one *build node*
 *    (imageKey()), whatever probe or microarchitecture they run on,
 *    and one worker settles the whole node in one task: it compiles
 *    the image once and then runs every job, or streams one capture
 *    through the node's replay folds, so the node's image dies with
 *    the task; a free worker takes the pending node with the fewest
 *    estimated instructions per job, each workload's estimate being
 *    what its last settled node simulated, so the cheapest rows land
 *    first;
 *  - with trace replay on, a node captures its image once, on the
 *    default machine, straight into one fold per distinct computation
 *    (NodeFolds): the cache, fetch-buffer, immediate-class and
 *    branch-policy jobs are settled from the streams when the capture
 *    ends, and the non-default forwarding/depth slices are retimed
 *    by one memoized scoreboard fold (replay::TimingFold) instead of
 *    being re-captured — no whole trace is held unless the artifact
 *    store is to keep it;
 *  - results land in a thread-safe ResultStore keyed by the canonical
 *    job key, so result identity and ordering are independent of the
 *    schedule (determinism contract: same matrix => byte-identical
 *    canonical JSON, whatever --jobs is).
 *
 * Per-job wall time and whole-sweep throughput are accounted in
 * SweepTiming; sweepJson() emits everything the §4 formulas consume
 * (see DESIGN.md §8 for the schema).
 */

#ifndef D16SIM_CORE_SWEEP_SWEEP_HH
#define D16SIM_CORE_SWEEP_SWEEP_HH

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/sweep/result_store.hh"
#include "support/json.hh"

namespace d16sim::core::store
{
class ArtifactStore;
}

namespace d16sim::core::sweep
{

/** The paper's five machine variants (Tables 5-7 column order),
 *  as (display label, options) pairs. */
std::vector<std::pair<std::string, mc::CompileOptions>> paperVariants();

/** Parse a variant key ("D16", "DLXe/16/2", "DLXe/32/3/ni",
 *  optionally with an "/O0".."/O2" suffix); FatalError if unknown. */
mc::CompileOptions parseVariant(const std::string &key);

/** Parse a microarchitecture key — the comma-joined format
 *  sim::UarchConfig::key() emits: "fwd=on", "bp=delay" / "bp=static" /
 *  "bp=bimodal<log2>", "depth=<5..7>". The empty string is the default
 *  machine; FatalError on unknown tokens. */
sim::UarchConfig parseUarch(const std::string &key);

/** Whole-sweep accounting, split by phase (build / simulate / replay)
 *  so BENCH numbers are attributable: a cache-variant job evaluated
 *  from a trace books replay time, never build or simulate time. */
struct SweepTiming
{
    int threads = 1;
    int executedRuns = 0;   //!< jobs evaluated this sweep (sim or replay)
    int executedBuilds = 0; //!< unique images compiled this sweep
    int dedupedRuns = 0;    //!< duplicate specs folded away
    int cachedRuns = 0;     //!< jobs already present in the store
    int replayedRuns = 0;   //!< jobs evaluated from a recorded trace
    int capturedTraces = 0; //!< trace-capture simulations
    int retimedSlices = 0;  //!< capture slices timed from another's trace
    int storeResultHits = 0; //!< jobs settled by a stored result row
    int storeImageHits = 0;  //!< compiles skipped via a stored image
    int storeTraceHits = 0;  //!< captures skipped via a stored trace
    int storeMisses = 0;     //!< artifact-store result lookups that missed
    uint64_t simulatedInstructions = 0;  //!< across sims + captures
    double wallSeconds = 0;  //!< start of run() to completion
    double buildSeconds = 0; //!< compile+assemble+link, per build node
    double simulateSeconds = 0;  //!< direct sims + captures, folds excluded
    double replaySeconds = 0;    //!< replay folds, timed per chunk
    /** Thread CPU time of the same phases: below the wall seconds
     *  above by the time their threads waited for a core. */
    double buildCpuSeconds = 0;
    double simulateCpuSeconds = 0;
    double replayCpuSeconds = 0;
    /** Start of run() to each row landing in the ResultStore, in
     *  landing order (rows of every run() of the engine). */
    std::vector<double> rowSeconds;
    /** Nearest-rank percentile of rowSeconds, p in (0, 100]; 0 when
     *  no row landed. */
    double rowLandedSeconds(double p) const;
    /** CPU work executed / wall time: the observed parallel speedup
     *  (~= min(threads, width of the job graph) when runs dominate). */
    double
    busySeconds() const
    {
        return buildSeconds + simulateSeconds + replaySeconds;
    }
    double
    speedup() const
    {
        return wallSeconds > 0 ? busySeconds() / wallSeconds : 0.0;
    }
    /** Simulation throughput in millions of instructions per second. */
    double
    simMips() const
    {
        return simulateSeconds > 0
                   ? static_cast<double>(simulatedInstructions) /
                         simulateSeconds / 1e6
                   : 0.0;
    }
    Json json() const;
};

/**
 * Executes a batch of jobs on `threads` workers, each settling one
 * build node at a time. Jobs whose key is already present in the
 * store are skipped; duplicate specs in one batch are folded. The
 * first error thrown by any job (build or run) is rethrown from run()
 * after every node has settled.
 */
class SweepEngine
{
  public:
    SweepEngine(ResultStore &store, int threads);

    void add(JobSpec spec);
    void add(std::vector<JobSpec> specs);

    /**
     * Trace-replay mode (default on): a build node with more than one
     * job simulates its image once, on the default machine, with a
     * bounded sim::TraceSink streaming the reference streams straight
     * into the node's folds (streamJobs(): one fold per distinct
     * computation, so the cache siblings share one CacheFold and the
     * other capture slices one TimingFold), and settles every job
     * when the stream ends — the first default-slice base job is the
     * capture itself. A node whose trace is in the artifact store
     * feeds it to the same folds in one chunk. Results are
     * bit-identical either way (the golden gates run both); off
     * re-simulates every job on its own machine as a correctness
     * cross-check and for A/B timing.
     */
    void setReplay(bool enabled) { replay_ = enabled; }
    bool replayEnabled() const { return replay_; }

    /**
     * Block-engine mode (default on): every build node compiles its
     * image's recovered CFG into a sim::BlockProgram (once, shared),
     * and every run and trace capture dispatches block-compiled
     * threaded code instead of per-instruction step(). Results are
     * bit-identical either way (the differential gate runs both); off
     * re-simulates through step() for A/B timing and as a correctness
     * cross-check (tools expose this as --no-block-engine).
     */
    void setBlockEngine(bool enabled) { blockEngine_ = enabled; }
    bool blockEngineEnabled() const { return blockEngine_; }

    /**
     * Attach a persistent artifact store (not owned; may be shared by
     * concurrent engines — it is internally thread-safe). With a store
     * attached, run() settles every job it can from stored result rows
     * before building anything (storeResultHits; a fully warm sweep
     * executes zero builds and zero runs), reloads stored images +
     * block tables instead of recompiling (storeImageHits), replays
     * stored traces instead of recapturing (storeTraceHits), and
     * writes every artifact it does produce back. Stored results are
     * full-fidelity (see artifacts.hh), so warm and cold sweeps emit
     * byte-identical canonical JSON.
     */
    void setArtifacts(store::ArtifactStore *artifacts)
    {
        artifacts_ = artifacts;
    }
    store::ArtifactStore *artifacts() const { return artifacts_; }

    /**
     * Called once per job settled by run() — store hit, simulation, or
     * replay — with the canonical job key and the stored result. Fires
     * on worker threads (the callback must be thread-safe) as results
     * land, so a server can stream rows before the sweep drains. Jobs
     * skipped as cachedRuns (already in the ResultStore) do not fire.
     */
    using ResultCallback =
        std::function<void(const std::string &, const JobResult &)>;
    void setResultCallback(ResultCallback cb) { onResult_ = std::move(cb); }

    /** Execute everything added since the last run(); blocks. */
    void run();

    const SweepTiming &timing() const { return timing_; }

  private:
    /** Build, run or capture and replay every job of one build node
     *  (the jobs of one imageKey()), committing each result. Returns
     *  the instructions one simulation of the node ran: its capture's,
     *  or its longest direct run's; 0 if it simulated nothing. */
    uint64_t settle(const std::vector<JobSpec> &runs);
    const JobResult &commit(const std::string &key, const JobSpec &spec,
                            JobResult result);
    /** Book a row that just landed in the store and report it. */
    void land(const std::string &key, const JobResult &stored);

    ResultStore &store_;
    int threads_;
    bool replay_ = true;
    bool blockEngine_ = true;
    store::ArtifactStore *artifacts_ = nullptr;
    ResultCallback onResult_;
    std::vector<JobSpec> pending_;
    std::mutex timingMutex_;  //!< guards timing_ while workers settle
    SweepTiming timing_;
    Stopwatch runClock_;      //!< started by each run()
};

/**
 * Full document: {"schema", "matrix", "results"[, "timing"]}. The
 * comparable section is everything except "timing", which carries
 * wall-clock measurements and is omitted when `timing` is null —
 * two sweeps over the same matrix then dump byte-identically.
 */
Json sweepJson(const ResultStore &store, const SweepTiming *timing);

/**
 * Compare two sweep documents' comparable sections: integers, strings
 * and bools exactly; doubles to a relative tolerance (derived rates).
 * Returns true on match; else false with a description of the first
 * few mismatches in *diff.
 */
bool compareSweeps(const Json &got, const Json &golden, std::string *diff,
                   double relTol = 1e-9);

// ----- standard matrices ----------------------------------------------

/**
 * Every job the 12 bench drivers consume: base runs for all workloads
 * x all variants (plus narrow-immediate and O0/O1 ablation variants),
 * fetch-buffer runs on 32- and 64-bit buses, immediate classification,
 * and the §4.1 cache sweep (1K-16K x 8-64B blocks) over the cache
 * benchmarks. A full figure regeneration, embarrassingly parallel.
 */
std::vector<JobSpec> fullMatrix();

/**
 * Smoke scale: the full workload x variant base matrix, but only a
 * representative sample of probe jobs (one cache geometry, two
 * fetch/imm workloads). This is the golden-regression matrix.
 */
std::vector<JobSpec> smokeMatrix();

/**
 * The probe-less slice of the smoke matrix: one base build+run per
 * (workload x paper variant). This is what d16cfa's cross-validation
 * sweeps — every image the golden regression pins, no probe duplicates.
 */
std::vector<JobSpec> smokeBaseMatrix();

/**
 * The microarchitectural sweep (DESIGN.md §16): three workloads x two
 * machine variants x six non-default uarch configurations (forwarding,
 * static/bimodal branch prediction, a deliberately aliasing 4-entry
 * BHT, a 7-stage pipe, and the combined machine), plus fetch-buffer
 * and cache probe jobs under the combined configuration. Branch-policy
 * siblings share one build node and one captured trace.
 */
std::vector<JobSpec> uarchSmokeMatrix();

} // namespace d16sim::core::sweep

#endif // D16SIM_CORE_SWEEP_SWEEP_HH
