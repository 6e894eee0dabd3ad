/**
 * @file
 * Job specification, job result, and the thread-safe ResultStore the
 * sweep engine and the bench drivers share.
 *
 * Keys follow the convention the old bench memo used —
 * "<workload>|<variant>" — extended with a third segment naming the
 * probe configuration ("|fb4", "|imm", "|cache:..."), so one store
 * holds every measurement a figure needs. std::map keeps the keys
 * sorted, which is what makes JSON emission canonical.
 */

#ifndef D16SIM_CORE_SWEEP_RESULT_STORE_HH
#define D16SIM_CORE_SWEEP_RESULT_STORE_HH

#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/replay/replay.hh"
#include "core/toolchain.hh"
#include "sim/uarch.hh"
#include "support/json.hh"

namespace d16sim::core::sweep
{

enum class ProbeKind { None, FetchBuffer, CacheSim, ImmClass };

/** One experiment: build `workload` with `opts`, run it on the
 *  `uarch` machine under the selected probe. */
struct JobSpec
{
    std::string workload;
    mc::CompileOptions opts;
    sim::UarchConfig uarch;         //!< microarchitecture (sim/uarch.hh)
    ProbeKind probe = ProbeKind::None;
    uint32_t busBytes = 4;          //!< FetchBuffer: fetch-path width
    mem::CacheConfig icache;        //!< CacheSim
    mem::CacheConfig dcache;        //!< CacheSim

    static JobSpec base(std::string workload, mc::CompileOptions opts);
    static JobSpec fetch(std::string workload, mc::CompileOptions opts,
                         uint32_t busBytes);
    static JobSpec cache(std::string workload, mc::CompileOptions opts,
                         mem::CacheConfig icache, mem::CacheConfig dcache);
    static JobSpec imm(std::string workload, mc::CompileOptions opts);
};

/** Variant segment of the key: CompileOptions::name() plus an "/O<n>"
 *  suffix for non-default optimization levels. */
std::string variantKey(const mc::CompileOptions &opts);

/** "size:block:sub:assoc", e.g. "4096:32:8:1". */
std::string cacheKey(const mem::CacheConfig &cfg);

/** Image key: "<workload>|<variant>". Every job of one image — any
 *  probe, any microarchitecture — shares the sweep engine's build
 *  node, its compile and its default-machine capture. */
std::string imageKey(const JobSpec &spec);

/** Capture-slice key: imageKey() plus a "|uarch:..." segment for a
 *  non-default *capture slice* (forwarding/depth only — branch-policy
 *  siblings share it): the jobs one capture on that slice's machine
 *  settles. */
std::string buildKey(const JobSpec &spec);

/** Full job key: "<workload>|<variant>" plus a "|uarch:..." segment
 *  for a non-default microarchitecture (the full key, branch policy
 *  included) plus the probe segment (empty for base). */
std::string jobKey(const JobSpec &spec);

struct FetchMetrics
{
    uint32_t busBytes = 0;
    uint64_t requests = 0;  //!< the paper's IRequests
    uint64_t words = 0;     //!< instruction traffic in 32-bit words
};

struct ImmMetrics
{
    uint64_t total = 0;
    uint64_t cmpImmediate = 0;
    uint64_t aluImmediate = 0;
    uint64_t memDisplacement = 0;

    double
    pct(uint64_t v) const
    {
        return total ? 100.0 * static_cast<double>(v) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Everything one job yields. Probe sections are meaningful only for
 *  the job's ProbeKind. */
struct JobResult
{
    ProbeKind probe = ProbeKind::None;
    sim::UarchConfig uarch;  //!< the machine the job ran on
    RunMeasurement run;
    FetchMetrics fetch;
    ImmMetrics imm;
    mem::CacheConfig icacheCfg, dcacheCfg;
    mem::CacheStats icache, dcache;

    Json json() const;
};

/** Execute one job in the calling thread (building the image itself). */
JobResult executeJob(const JobSpec &spec);

/** Execute one job against an already-built image; `predecoded`
 *  optionally shares one decode table across the image's runs and
 *  `blocks` a compiled block program (every kind of run then uses the
 *  sim threaded-code engine). The fetch-buffer, cache and imm jobs
 *  evaluate their fold directly on the run's streams. */
JobResult executeJob(const JobSpec &spec, const assem::Image &image,
                     std::shared_ptr<const sim::DecodedText> predecoded =
                         nullptr,
                     std::shared_ptr<const sim::BlockProgram> blocks =
                         nullptr);

/** True when the job's measurement is determined by a recorded trace
 *  of its (workload, variant) execution alone. Base, cache and
 *  fetch-buffer jobs are; the immediate classifier also needs the
 *  image's predecode table (replayJob() takes it), so it is false
 *  for ImmClass. */
bool replayable(const JobSpec &spec);

/** Wall seconds and the calling thread's CPU seconds
 *  (CLOCK_THREAD_CPUTIME_ID) since construction: the sweep engine
 *  books both per phase, so contention (wall without CPU) shows apart
 *  from work. */
class Stopwatch
{
  public:
    Stopwatch();
    double wallSeconds() const;
    double cpuSeconds() const;

  private:
    std::chrono::steady_clock::time_point wall0_;
    double cpu0_ = 0;
};

/**
 * The replay folds of one image's jobs, whatever capture slice each
 * runs on: one per distinct computation over the image's streams —
 * one fetch-buffer fold per bus width, one imm classifier, one
 * CacheFold for every cache job, one BranchFold walking every
 * predictor the jobs name at once, and one TimingFold, a lane per
 * distinct scoreboard, for the capture slices other than the captured
 * one. Fed by a capture's
 * sink, or with a stored trace in one chunk; finish() then settles
 * every job from the capture's measurement, bit-identically to direct
 * simulation. The folds time their own work (seconds()), so a live
 * capture's clock can book it as replay.
 */
class NodeFolds : public sim::TraceFold
{
  public:
    /** `specs` are evaluated from a capture at `captured`'s slice with
     *  `insnBytes`-wide fetches. An ImmClass job needs `text`, the
     *  image's predecode table; a job off the captured slice needs
     *  `table` (FatalError without it). The specs and the table are
     *  not owned and must outlive the folds. */
    NodeFolds(std::vector<const JobSpec *> specs, uint32_t insnBytes,
              const sim::UarchConfig &captured,
              const sim::DecodedText *text,
              const replay::TimingTable *table);
    NodeFolds(const NodeFolds &) = delete;
    NodeFolds &operator=(const NodeFolds &) = delete;

    void feed(const sim::TraceChunk &chunk) override;

    /** Every job's result, in spec order, from `base`, the capture's
     *  measurement — except the jobs off the captured slice when the
     *  timing fold refused the stream (replay::TimingFold::exact()),
     *  which are left out and appended to `*refused`. */
    std::vector<std::pair<const JobSpec *, JobResult>>
    finish(const RunMeasurement &base,
           std::vector<const JobSpec *> *refused = nullptr);

    double seconds() const { return seconds_; }
    double cpuSeconds() const { return cpuSeconds_; }

    /** Slices off the captured one, retimed when the timing fold
     *  stayed exact (else 0). */
    int retimedSlices() const;

  private:
    std::vector<const JobSpec *> specs_;
    sim::UarchConfig captured_;  //!< the capture slice
    std::vector<size_t> evalOf_;  //!< per spec: a CacheSim job's CacheEval
    std::map<uint32_t, replay::FetchBufferFold> fetch_;  //!< by bus width
    std::optional<ImmediateClassProbe> imm_;
    std::vector<replay::CacheEval> evals_;
    std::optional<replay::CacheFold> caches_;
    replay::BranchFold branch_;
    std::optional<replay::TimingFold> timing_;
    double seconds_ = 0;
    double cpuSeconds_ = 0;
};

/** What streamJobs() spent, for the sweep engine's phase accounting:
 *  a capture's simulation is simulate time, its folds replay time. */
struct NodeCost
{
    int captures = 0;        //!< simulations under a trace sink
    int riders = 0;          //!< base jobs the main capture itself ran
    int retimedSlices = 0;   //!< slices timed from another's stream
    uint64_t capturedInstructions = 0;
    double simulateSeconds = 0;
    double simulateCpuSeconds = 0;
    double replaySeconds = 0;
    double replayCpuSeconds = 0;
};

/**
 * Settle every job of one image from one stream of its references:
 * `stored`, a recorded trace fed to the node's folds in one chunk, or
 * else one capture of `image` on the default machine streamed straight
 * into them (and, given `tee`, also recorded there for the artifact
 * store). When the timing fold refuses the stream — the run writes
 * its text section — each slice off the captured one is settled from
 * a capture of `image` on the slice's own machine. `settle` receives
 * each job's result once its stream has ended. `image` and `predecoded` are needed for a
 * capture, an ImmClass job or a job off the stream's slice (which
 * also needs `table`); `blocks` optionally speeds captures up.
 */
NodeCost
streamJobs(const std::vector<const JobSpec *> &specs,
           const replay::Trace *stored, const assem::Image *image,
           std::shared_ptr<const sim::DecodedText> predecoded,
           std::shared_ptr<const sim::BlockProgram> blocks,
           const replay::TimingTable *table, replay::Trace *tee,
           const std::function<void(const JobSpec &, JobResult)> &settle);

/** A job's result from a recorded trace of its image captured on its
 *  capture slice: NodeFolds of the one job fed the whole trace.
 *  `text` is the image's predecode table (ImmClass jobs need it). */
JobResult replayJob(const JobSpec &spec, const replay::Trace &trace,
                    const sim::DecodedText *text = nullptr);

/**
 * Thread-safe key -> JobResult map. References returned by put()/at()
 * are stable for the life of the store (std::map nodes never move).
 */
class ResultStore
{
  public:
    /** Insert (first writer wins); returns the stored result. */
    const JobResult &put(const std::string &key, JobResult result);

    /** nullptr when absent. */
    const JobResult *find(const std::string &key) const;

    /** FatalError when absent. */
    const JobResult &at(const std::string &key) const;

    bool contains(const std::string &key) const;
    size_t size() const;

    /** All keys, sorted. */
    std::vector<std::string> keys() const;

    /** The canonical results object: key -> JobResult::json(). */
    Json json() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, JobResult> results_;
};

} // namespace d16sim::core::sweep

#endif // D16SIM_CORE_SWEEP_RESULT_STORE_HH
