#include "core/sweep/result_store.hh"

#include <chrono>
#include <ctime>

#include "core/replay/replay.hh"
#include "core/replay/trace.hh"
#include "core/workloads.hh"
#include "support/error.hh"

namespace d16sim::core::sweep
{

JobSpec
JobSpec::base(std::string workload, mc::CompileOptions opts)
{
    JobSpec s;
    s.workload = std::move(workload);
    s.opts = std::move(opts);
    return s;
}

JobSpec
JobSpec::fetch(std::string workload, mc::CompileOptions opts,
               uint32_t busBytes)
{
    JobSpec s = base(std::move(workload), std::move(opts));
    s.probe = ProbeKind::FetchBuffer;
    s.busBytes = busBytes;
    return s;
}

JobSpec
JobSpec::cache(std::string workload, mc::CompileOptions opts,
               mem::CacheConfig icache, mem::CacheConfig dcache)
{
    JobSpec s = base(std::move(workload), std::move(opts));
    s.probe = ProbeKind::CacheSim;
    s.icache = icache;
    s.dcache = dcache;
    return s;
}

JobSpec
JobSpec::imm(std::string workload, mc::CompileOptions opts)
{
    JobSpec s = base(std::move(workload), std::move(opts));
    s.probe = ProbeKind::ImmClass;
    return s;
}

std::string
variantKey(const mc::CompileOptions &opts)
{
    std::string key = opts.name();
    if (opts.optLevel != 2)
        key += "/O" + std::to_string(opts.optLevel);
    return key;
}

std::string
cacheKey(const mem::CacheConfig &cfg)
{
    return std::to_string(cfg.sizeBytes) + ":" +
           std::to_string(cfg.blockBytes) + ":" +
           std::to_string(cfg.subBlockBytes) + ":" +
           std::to_string(cfg.assoc);
}

std::string
imageKey(const JobSpec &spec)
{
    return spec.workload + "|" + variantKey(spec.opts);
}

std::string
buildKey(const JobSpec &spec)
{
    std::string key = imageKey(spec);
    const std::string u = spec.uarch.captureKey();
    if (!u.empty())
        key += "|uarch:" + u;
    return key;
}

std::string
jobKey(const JobSpec &spec)
{
    std::string key = imageKey(spec);
    const std::string u = spec.uarch.key();
    if (!u.empty())
        key += "|uarch:" + u;
    switch (spec.probe) {
      case ProbeKind::None:
        break;
      case ProbeKind::FetchBuffer:
        key += "|fb" + std::to_string(spec.busBytes);
        break;
      case ProbeKind::CacheSim:
        key += "|cache:i=" + cacheKey(spec.icache) +
               ",d=" + cacheKey(spec.dcache);
        break;
      case ProbeKind::ImmClass:
        key += "|imm";
        break;
    }
    return key;
}

namespace
{

ImmMetrics
immMetrics(const ImmediateClassProbe &ic)
{
    ImmMetrics m;
    m.total = ic.total();
    m.cmpImmediate = ic.cmpImmediate();
    m.aluImmediate = ic.aluImmediate();
    m.memDisplacement = ic.memDisplacement();
    return m;
}

} // namespace

JobResult
executeJob(const JobSpec &spec)
{
    const assem::Image image =
        build(workload(spec.workload).source, spec.opts);
    return executeJob(spec, image);
}

JobResult
executeJob(const JobSpec &spec, const assem::Image &image,
           std::shared_ptr<const sim::DecodedText> predecoded,
           std::shared_ptr<const sim::BlockProgram> blocks)
{
    sim::MachineConfig mcfg;
    mcfg.uarch = spec.uarch;

    JobResult r;
    r.probe = spec.probe;
    r.uarch = spec.uarch;
    switch (spec.probe) {
      case ProbeKind::None:
        r.run = core::run(image, {}, mcfg, std::move(predecoded),
                          std::move(blocks));
        break;
      case ProbeKind::FetchBuffer: {
        FetchBufferProbe fb(spec.busBytes);
        r.run = core::run(image, {&fb}, mcfg, std::move(predecoded));
        r.fetch.busBytes = spec.busBytes;
        r.fetch.requests = fb.requests();
        r.fetch.words = fb.words();
        break;
      }
      case ProbeKind::CacheSim: {
        CacheProbe cp(spec.icache, spec.dcache);
        r.run = core::run(image, {&cp}, mcfg, std::move(predecoded));
        r.icacheCfg = spec.icache;
        r.dcacheCfg = spec.dcache;
        r.icache = cp.icache().stats();
        r.dcache = cp.dcache().stats();
        break;
      }
      case ProbeKind::ImmClass: {
        if (!predecoded)
            predecoded = std::make_shared<const sim::DecodedText>(image);
        ImmediateClassProbe ic(*predecoded);
        r.run = core::run(image, {&ic}, mcfg, predecoded,
                          std::move(blocks));
        r.imm = immMetrics(ic);
        break;
      }
    }
    return r;
}

bool
replayable(const JobSpec &spec)
{
    return spec.probe == ProbeKind::None ||
           spec.probe == ProbeKind::FetchBuffer ||
           spec.probe == ProbeKind::CacheSim;
}

std::vector<JobResult>
replayJobs(const std::vector<const JobSpec *> &specs,
           const replay::Trace &trace, const sim::DecodedText *text,
           const replay::TimingReplayStats *retimed)
{
    std::vector<JobResult> out(specs.size());
    std::vector<replay::CacheEval> evals;
    std::vector<size_t> cacheJobs;  //!< out index of each eval
    for (size_t i = 0; i < specs.size(); ++i) {
        const JobSpec &spec = *specs[i];
        JobResult &r = out[i];
        r.probe = spec.probe;
        r.uarch = spec.uarch;
        // The branch-policy statistics are recomputed per sibling;
        // replayRun also validates the capture-slice match.
        r.run = replay::replayRun(trace, spec.uarch, retimed);
        switch (spec.probe) {
          case ProbeKind::None:
            break;
          case ProbeKind::ImmClass: {
            panicIf(!text, "imm replay needs the image's predecode table");
            ImmediateClassProbe ic(*text);
            for (const replay::FetchRun &run : trace.runs)
                ic.onFetchChunk(run.startPc, run.count);
            r.imm = immMetrics(ic);
            break;
          }
          case ProbeKind::FetchBuffer:
            r.fetch.busBytes = spec.busBytes;
            r.fetch.requests =
                replay::replayFetchRequests(trace, spec.busBytes);
            r.fetch.words = r.fetch.requests * (spec.busBytes / 4);
            break;
          case ProbeKind::CacheSim: {
            r.icacheCfg = spec.icache;
            r.dcacheCfg = spec.dcache;
            replay::CacheEval e;
            e.icache = spec.icache;
            e.dcache = spec.dcache;
            evals.push_back(e);
            cacheJobs.push_back(i);
            break;
          }
        }
    }
    replay::replayCaches(trace, evals);
    for (size_t k = 0; k < evals.size(); ++k) {
        out[cacheJobs[k]].icache = evals[k].icacheStats;
        out[cacheJobs[k]].dcache = evals[k].dcacheStats;
    }
    return out;
}

std::vector<JobResult>
replaySlice(const std::vector<const JobSpec *> &specs,
            const replay::Trace &trace, const replay::TimingTable &table,
            const assem::Image &image,
            std::shared_ptr<const sim::DecodedText> predecoded,
            std::shared_ptr<const sim::BlockProgram> blocks, SliceCost *cost)
{
    SliceCost spent;
    const sim::UarchConfig slice = specs.front()->uarch.captureConfig();
    if (!predecoded)
        predecoded = std::make_shared<const sim::DecodedText>(image);
    std::vector<JobResult> out;
    const Stopwatch clock;
    if (replay::timingReplayable(trace, table)) {
        const replay::TimingReplayStats timed =
            replay::replayTiming(trace, table, slice);
        out = replayJobs(specs, trace, predecoded.get(), &timed);
    } else {
        sim::MachineConfig cfg;
        cfg.uarch = slice;
        const replay::Trace own =
            replay::capture(image, predecoded, cfg, std::move(blocks));
        spent.captured = true;
        spent.capturedInstructions = own.base.stats.instructions;
        spent.captureSeconds = clock.wallSeconds();
        spent.captureCpuSeconds = clock.cpuSeconds();
        out = replayJobs(specs, own, predecoded.get());
    }
    spent.replaySeconds = clock.wallSeconds() - spent.captureSeconds;
    spent.replayCpuSeconds = clock.cpuSeconds() - spent.captureCpuSeconds;
    if (cost)
        *cost = spent;
    return out;
}

namespace
{

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

Stopwatch::Stopwatch()
    : wall0_(std::chrono::steady_clock::now()), cpu0_(threadCpuSeconds())
{}

double
Stopwatch::wallSeconds() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall0_)
        .count();
}

double
Stopwatch::cpuSeconds() const
{
    return threadCpuSeconds() - cpu0_;
}

JobResult
replayJob(const JobSpec &spec, const replay::Trace &trace,
          const sim::DecodedText *text)
{
    return std::move(replayJobs({&spec}, trace, text).front());
}

namespace
{

Json
cacheStatsJson(const mem::CacheConfig &cfg, const mem::CacheStats &s)
{
    Json j = Json::object();
    Json config = Json::object();
    config["sizeBytes"] = Json(cfg.sizeBytes);
    config["blockBytes"] = Json(cfg.blockBytes);
    config["subBlockBytes"] = Json(cfg.subBlockBytes);
    config["assoc"] = Json(cfg.assoc);
    j["config"] = std::move(config);
    j["reads"] = Json(s.reads);
    j["writes"] = Json(s.writes);
    j["readMisses"] = Json(s.readMisses);
    j["writeMisses"] = Json(s.writeMisses);
    j["wordsIn"] = Json(s.wordsIn);
    j["wordsOut"] = Json(s.wordsOut);
    j["missRate"] = Json(s.missRate());
    return j;
}

} // namespace

Json
JobResult::json() const
{
    Json j = Json::object();

    Json r = Json::object();
    r["exitStatus"] = Json(run.exitStatus);
    r["sizeBytes"] = Json(run.sizeBytes);
    r["textBytes"] = Json(run.textBytes);
    r["textInsns"] = Json(run.textInsns);
    r["instructions"] = Json(run.stats.instructions);
    r["loads"] = Json(run.stats.loads);
    r["stores"] = Json(run.stats.stores);
    r["loadInterlocks"] = Json(run.stats.loadInterlocks);
    r["fpInterlocks"] = Json(run.stats.fpInterlocks);
    r["branches"] = Json(run.stats.branches);
    r["takenBranches"] = Json(run.stats.takenBranches);
    r["fpOps"] = Json(run.stats.fpOps);
    r["traps"] = Json(run.stats.traps);
    r["branchBubbles"] = Json(run.stats.branchBubbles);
    j["run"] = std::move(r);

    Json d = Json::object();
    d["baseCycles"] = Json(run.stats.baseCycles());
    d["memOps"] = Json(run.stats.memOps());
    d["interlockRate"] = Json(run.stats.interlockRate());
    j["derived"] = std::move(d);

    // Emitted only off the default machine so the pre-uarch goldens
    // stay byte-identical; every counter is integer-typed, which
    // compareSweeps() compares exactly.
    if (!uarch.isDefault()) {
        Json u = Json::object();
        u["config"] = Json(uarch.key());
        u["condBranches"] = Json(run.stats.condBranches);
        u["branchStalls"] = Json(run.stats.branchStalls);
        u["mispredicts"] = Json(run.stats.mispredicts);
        u["fwdSavedStalls"] = Json(run.stats.fwdSavedStalls);
        j["uarch"] = std::move(u);
    }

    switch (probe) {
      case ProbeKind::None:
        break;
      case ProbeKind::FetchBuffer: {
        Json f = Json::object();
        f["busBytes"] = Json(fetch.busBytes);
        f["requests"] = Json(fetch.requests);
        f["words"] = Json(fetch.words);
        j["fetch"] = std::move(f);
        break;
      }
      case ProbeKind::CacheSim:
        j["icache"] = cacheStatsJson(icacheCfg, icache);
        j["dcache"] = cacheStatsJson(dcacheCfg, dcache);
        break;
      case ProbeKind::ImmClass: {
        Json m = Json::object();
        m["total"] = Json(imm.total);
        m["cmpImmediate"] = Json(imm.cmpImmediate);
        m["aluImmediate"] = Json(imm.aluImmediate);
        m["memDisplacement"] = Json(imm.memDisplacement);
        j["imm"] = std::move(m);
        break;
      }
    }
    return j;
}

const JobResult &
ResultStore::put(const std::string &key, JobResult result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return results_.emplace(key, std::move(result)).first->second;
}

const JobResult *
ResultStore::find(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = results_.find(key);
    return it == results_.end() ? nullptr : &it->second;
}

const JobResult &
ResultStore::at(const std::string &key) const
{
    const JobResult *r = find(key);
    if (!r)
        fatal("sweep: no result for job '", key, "'");
    return *r;
}

bool
ResultStore::contains(const std::string &key) const
{
    return find(key) != nullptr;
}

size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return results_.size();
}

std::vector<std::string>
ResultStore::keys() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(results_.size());
    for (const auto &[k, v] : results_)
        out.push_back(k);
    return out;
}

Json
ResultStore::json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Json j = Json::object();
    for (const auto &[k, v] : results_)
        j[k] = v.json();
    return j;
}

} // namespace d16sim::core::sweep
