#include "core/sweep/result_store.hh"

#include <algorithm>
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
        r.run = core::run(image, nullptr, mcfg, std::move(predecoded),
                          std::move(blocks));
        break;
      case ProbeKind::FetchBuffer: {
        FetchBufferProbe fb(spec.busBytes, image.target->insnBytes());
        r.run = core::run(image, &fb, mcfg, std::move(predecoded),
                          std::move(blocks));
        r.fetch.busBytes = spec.busBytes;
        r.fetch.requests = fb.requests();
        r.fetch.words = fb.words();
        break;
      }
      case ProbeKind::CacheSim: {
        CacheProbe cp(spec.icache, spec.dcache, image.target->insnBytes());
        r.run = core::run(image, &cp, mcfg, std::move(predecoded),
                          std::move(blocks));
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
        r.run = core::run(image, &ic, mcfg, predecoded, std::move(blocks));
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

NodeFolds::NodeFolds(std::vector<const JobSpec *> specs,
                     uint32_t insnBytes, const sim::UarchConfig &captured,
                     const sim::DecodedText *text,
                     const replay::TimingTable *table)
    : specs_(std::move(specs)), captured_(captured.captureConfig()),
      evalOf_(specs_.size()), branch_(insnBytes)
{
    for (size_t i = 0; i < specs_.size(); ++i) {
        const JobSpec &spec = *specs_[i];
        const sim::UarchConfig slice = spec.uarch.captureConfig();
        if (!(slice == captured_)) {
            if (!table)
                fatal("replay: trace timed at uarch '", captured_.key(),
                      "' cannot replay capture slice '", slice.key(), "'");
            if (!timing_)
                timing_.emplace(*table, insnBytes);
            timing_->add(slice);
        }
        branch_.add(spec.uarch);
        switch (spec.probe) {
          case ProbeKind::None:
            break;
          case ProbeKind::FetchBuffer:
            fetch_.try_emplace(spec.busBytes, spec.busBytes, insnBytes);
            break;
          case ProbeKind::ImmClass:
            panicIf(!text, "imm replay needs the image's predecode table");
            if (!imm_)
                imm_.emplace(*text);
            break;
          case ProbeKind::CacheSim:
            evalOf_[i] = evals_.size();
            evals_.push_back({spec.icache, spec.dcache, {}, {}});
            break;
        }
    }
    if (!evals_.empty())
        caches_.emplace(evals_, insnBytes);
}

void
NodeFolds::feed(const sim::TraceChunk &chunk)
{
    const Stopwatch clock;
    for (auto &[bus, f] : fetch_)
        f.feed(chunk);
    if (imm_)
        imm_->feed(chunk);
    if (caches_)
        caches_->feed(chunk);
    branch_.feed(chunk);
    if (timing_)
        timing_->feed(chunk);
    seconds_ += clock.wallSeconds();
    cpuSeconds_ += clock.cpuSeconds();
}

std::vector<std::pair<const JobSpec *, JobResult>>
NodeFolds::finish(const RunMeasurement &base,
                  std::vector<const JobSpec *> *refused)
{
    const Stopwatch clock;
    if (caches_)
        caches_->finish();
    std::vector<std::pair<const JobSpec *, JobResult>> out;
    out.reserve(specs_.size());
    for (size_t i = 0; i < specs_.size(); ++i) {
        const JobSpec &spec = *specs_[i];
        JobResult r;
        r.probe = spec.probe;
        r.uarch = spec.uarch;
        r.run = base;
        if (!(spec.uarch.captureConfig() == captured_)) {
            if (!timing_->exact()) {
                if (refused)
                    refused->push_back(&spec);
                continue;
            }
            const replay::TimingReplayStats t = timing_->finish(spec.uarch);
            r.run.stats.loadInterlocks = t.loadInterlocks;
            r.run.stats.fpInterlocks = t.fpInterlocks;
            r.run.stats.fwdSavedStalls = t.fwdSavedStalls;
        }
        const replay::BranchReplayStats bs =
            branch_.finish(spec.uarch, base.stats.takenBranches);
        r.run.stats.branchStalls = bs.branchStalls;
        r.run.stats.mispredicts = bs.mispredicts;
        switch (spec.probe) {
          case ProbeKind::None:
            break;
          case ProbeKind::FetchBuffer:
            r.fetch.busBytes = spec.busBytes;
            r.fetch.requests = fetch_.at(spec.busBytes).finish();
            r.fetch.words = r.fetch.requests * (spec.busBytes / 4);
            break;
          case ProbeKind::ImmClass:
            r.imm = immMetrics(*imm_);
            break;
          case ProbeKind::CacheSim:
            r.icacheCfg = spec.icache;
            r.dcacheCfg = spec.dcache;
            r.icache = evals_[evalOf_[i]].icacheStats;
            r.dcache = evals_[evalOf_[i]].dcacheStats;
            break;
        }
        out.emplace_back(&spec, std::move(r));
    }
    seconds_ += clock.wallSeconds();
    cpuSeconds_ += clock.cpuSeconds();
    return out;
}

int
NodeFolds::retimedSlices() const
{
    return timing_ && timing_->exact()
               ? static_cast<int>(timing_->slices())
               : 0;
}

namespace
{

/** Two folds fed the same chunks: a capture's tee and its node folds. */
class BothFolds : public sim::TraceFold
{
  public:
    BothFolds(sim::TraceFold &a, sim::TraceFold &b) : a_(a), b_(b) {}

    void
    feed(const sim::TraceChunk &chunk) override
    {
        a_.feed(chunk);
        b_.feed(chunk);
    }

  private:
    sim::TraceFold &a_;
    sim::TraceFold &b_;
};

/** Capture `image` on `uarch`'s machine straight into `folds` (and
 *  `tee`, given one), booking the simulation — the capture's wall less
 *  the folds' own time — in `cost`. */
RunMeasurement
captureInto(const assem::Image &image,
            std::shared_ptr<const sim::DecodedText> predecoded,
            std::shared_ptr<const sim::BlockProgram> blocks,
            const sim::UarchConfig &uarch, NodeFolds &folds,
            replay::Trace *tee, NodeCost &cost)
{
    panicIf(!predecoded, "a capture needs the image and its predecode table");
    const Stopwatch clock;
    const double folded = folds.seconds();
    const double foldedCpu = folds.cpuSeconds();
    sim::MachineConfig config;
    config.uarch = uarch;
    RunMeasurement m;
    if (tee) {
        replay::TraceTee recorder(
            static_cast<uint32_t>(image.target->insnBytes()));
        BothFolds both(recorder, folds);
        m = core::run(image, &both, config, std::move(predecoded),
                      std::move(blocks));
        *tee = recorder.take(m, uarch);
    } else {
        m = core::run(image, &folds, config, std::move(predecoded),
                      std::move(blocks));
    }
    ++cost.captures;
    cost.capturedInstructions += m.stats.instructions;
    cost.simulateSeconds +=
        clock.wallSeconds() - (folds.seconds() - folded);
    cost.simulateCpuSeconds +=
        clock.cpuSeconds() - (folds.cpuSeconds() - foldedCpu);
    return m;
}

} // namespace

NodeCost
streamJobs(const std::vector<const JobSpec *> &specs,
           const replay::Trace *stored, const assem::Image *image,
           std::shared_ptr<const sim::DecodedText> predecoded,
           std::shared_ptr<const sim::BlockProgram> blocks,
           const replay::TimingTable *table, replay::Trace *tee,
           const std::function<void(const JobSpec &, JobResult)> &settle)
{
    NodeCost cost;
    auto drain = [&](NodeFolds &folds, const RunMeasurement &run,
                     std::vector<const JobSpec *> *refused) {
        for (auto &[spec, r] : folds.finish(run, refused))
            settle(*spec, std::move(r));
        cost.replaySeconds += folds.seconds();
        cost.replayCpuSeconds += folds.cpuSeconds();
    };
    const sim::UarchConfig captured =
        stored ? stored->capturedUarch.captureConfig() : sim::UarchConfig{};
    const uint32_t ib =
        stored ? stored->insnBytes
               : static_cast<uint32_t>(image->target->insnBytes());
    std::vector<const JobSpec *> refused;
    NodeFolds folds(specs, ib, captured, predecoded.get(), table);
    if (stored) {
        folds.feed(stored->chunk());
        drain(folds, stored->base, &refused);
    } else {
        drain(folds,
              captureInto(*image, predecoded, blocks, captured, folds, tee,
                          cost),
              &refused);
        // The first base job on the captured slice is the capture's own
        // run.
        cost.riders = std::any_of(specs.begin(), specs.end(),
                                  [&](const JobSpec *s) {
                                      return s->probe == ProbeKind::None &&
                                             s->uarch.captureConfig() ==
                                                 captured;
                                  });
    }
    cost.retimedSlices = folds.retimedSlices();

    // A refused slice is captured on its own machine, which needs no
    // retiming.
    std::map<std::string, std::vector<const JobSpec *>> bySlice;
    for (const JobSpec *s : refused)
        bySlice[s->uarch.captureKey()].push_back(s);
    for (const auto &[key, group] : bySlice) {
        const sim::UarchConfig slice = group.front()->uarch.captureConfig();
        NodeFolds own(group, ib, slice, predecoded.get(), nullptr);
        drain(own,
              captureInto(*image, predecoded, blocks, slice, own, nullptr,
                          cost),
              nullptr);
    }
    return cost;
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
    NodeFolds folds({&spec}, trace.insnBytes, trace.capturedUarch, text,
                    nullptr);
    folds.feed(trace.chunk());
    return std::move(folds.finish(trace.base).front().second);
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
