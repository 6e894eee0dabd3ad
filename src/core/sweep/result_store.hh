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
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/toolchain.hh"
#include "sim/uarch.hh"
#include "support/json.hh"

namespace d16sim::core::replay
{
struct Trace;
struct TimingReplayStats;
class TimingTable;
}

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
 *  `blocks` a compiled block program (base runs then use the sim
 *  threaded-code engine; probe runs ignore it). */
JobResult executeJob(const JobSpec &spec, const assem::Image &image,
                     std::shared_ptr<const sim::DecodedText> predecoded =
                         nullptr,
                     std::shared_ptr<const sim::BlockProgram> blocks =
                         nullptr);

/** True when the job's measurement is determined by a recorded trace
 *  of its (workload, variant) execution alone. Base, cache and
 *  fetch-buffer jobs are; the immediate classifier also needs the
 *  image's predecode table (replayJobs() takes it), so it is false
 *  for ImmClass. */
bool replayable(const JobSpec &spec);

/** Evaluate jobs of one capture slice from a recorded trace of their
 *  image. Each run section is replay::replayRun(): the capture
 *  measurement with the job's branch statistics and, given `retimed`
 *  (the slice's replay::replayTiming() of a trace captured at another
 *  slice), the slice's scoreboard counters. Probe sections are
 *  computed by the replay evaluators — bit-identical to direct
 *  simulation. Every cache job's configuration goes through one
 *  replay::replayCaches() call, so the slice's cache siblings share
 *  the inclusive I-side pass. An ImmClass job feeds the trace's fetch
 *  runs through an ImmediateClassProbe over `text`, the image's
 *  predecode table, which it requires. */
std::vector<JobResult>
replayJobs(const std::vector<const JobSpec *> &specs,
           const replay::Trace &trace,
           const sim::DecodedText *text = nullptr,
           const replay::TimingReplayStats *retimed = nullptr);

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

/** What replaySlice() spent, for the sweep engine's phase accounting:
 *  a fallback capture is simulate time, the rest replay time. */
struct SliceCost
{
    bool captured = false;     //!< the slice was captured on its machine
    uint64_t capturedInstructions = 0;
    double captureSeconds = 0;
    double captureCpuSeconds = 0;
    double replaySeconds = 0;  //!< timing walk and job replays
    double replayCpuSeconds = 0;
};

/**
 * Evaluate replayable jobs of one capture slice from `trace`, a
 * capture of their image at another slice: retimed through `table`
 * (replay::replayTiming) where that is exact, and otherwise — the
 * trace writes its text section (replay::timingReplayable) — from a
 * capture of `image` on the slice's own machine. Bit-identical to
 * direct simulation either way.
 */
std::vector<JobResult>
replaySlice(const std::vector<const JobSpec *> &specs,
            const replay::Trace &trace, const replay::TimingTable &table,
            const assem::Image &image,
            std::shared_ptr<const sim::DecodedText> predecoded,
            std::shared_ptr<const sim::BlockProgram> blocks,
            SliceCost *cost = nullptr);

/** replayJobs() of one job. */
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
