#include "core/sweep/sweep.hh"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <thread>

#include "core/replay/replay.hh"
#include "core/replay/trace.hh"
#include "core/store/store.hh"
#include "core/sweep/artifacts.hh"
#include "core/workloads.hh"
#include "support/error.hh"
#include "support/strings.hh"

namespace d16sim::core::sweep
{

namespace
{

/**
 * Fixed-size worker pool. Tasks may submit further tasks (that is how
 * run jobs are released when their build node finishes); wait()
 * returns when every transitively submitted task has run. The first
 * exception any task throws is rethrown from wait().
 */
class Pool
{
  public:
    explicit Pool(int threads)
    {
        for (int i = 0; i < std::max(1, threads); ++i)
            workers_.emplace_back([this] { work(); });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        cv_.notify_all();
        for (std::thread &t : workers_)
            t.join();
    }

    void
    submit(std::function<void()> task)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++outstanding_;
            queue_.push_back(std::move(task));
        }
        cv_.notify_one();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait(lock, [this] { return outstanding_ == 0; });
        if (error_) {
            std::exception_ptr e = error_;
            error_ = nullptr;
            std::rethrow_exception(e);
        }
    }

  private:
    void
    work()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (true) {
            cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (done_)
                    return;
                continue;
            }
            std::function<void()> task = std::move(queue_.front());
            queue_.pop_front();
            lock.unlock();
            try {
                task();
            } catch (...) {
                std::lock_guard<std::mutex> elock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
            }
            lock.lock();
            if (--outstanding_ == 0)
                idle_.notify_all();
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;    //!< work available / shutdown
    std::condition_variable idle_;  //!< outstanding drained
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    int outstanding_ = 0;
    bool done_ = false;
    std::exception_ptr error_;
};

} // namespace

std::vector<std::pair<std::string, mc::CompileOptions>>
paperVariants()
{
    return {
        {"D16/16/2", mc::CompileOptions::d16()},
        {"DLXe/16/2", mc::CompileOptions::dlxe(16, false)},
        {"DLXe/16/3", mc::CompileOptions::dlxe(16, true)},
        {"DLXe/32/2", mc::CompileOptions::dlxe(32, false)},
        {"DLXe/32/3", mc::CompileOptions::dlxe(32, true)},
    };
}

sim::UarchConfig
parseUarch(const std::string &key)
{
    sim::UarchConfig cfg;
    if (key.empty())
        return cfg;
    const std::string lowered = toLower(key);
    for (const std::string_view tok : split(lowered, ',')) {
        if (tok == "fwd=on") {
            cfg.forward = true;
        } else if (tok == "fwd=off") {
            cfg.forward = false;
        } else if (tok == "bp=delay") {
            cfg.branch = sim::BranchPolicy::DelaySlot;
        } else if (tok == "bp=static") {
            cfg.branch = sim::BranchPolicy::StaticNotTaken;
        } else if (tok.size() > 10 &&
                   tok.compare(0, 10, "bp=bimodal") == 0) {
            cfg.branch = sim::BranchPolicy::Bimodal;
            int log2 = 0;
            for (size_t i = 10; i < tok.size(); ++i) {
                if (tok[i] < '0' || tok[i] > '9')
                    fatal("bad uarch token '", tok, "' in '", key, "'");
                log2 = log2 * 10 + (tok[i] - '0');
            }
            if (log2 < 1 || log2 > 20)
                fatal("uarch: bimodal BHT log2 size ", log2,
                      " out of range 1..20");
            cfg.bhtLog2 = log2;
        } else if (tok.size() == 7 &&
                   tok.compare(0, 6, "depth=") == 0 && tok[6] >= '5' &&
                   tok[6] <= '7') {
            cfg.depth = tok[6] - '0';
        } else {
            fatal("unknown uarch token '", tok, "' in '", key,
                  "' (want fwd=on|off, bp=delay|static|bimodal<N>, "
                  "depth=5..7)");
        }
    }
    return cfg;
}

mc::CompileOptions
parseVariant(const std::string &key)
{
    std::string k = toLower(key);
    mc::CompileOptions opts;

    // Optional "/oN" optimization suffix.
    int optLevel = 2;
    if (k.size() > 3 && k[k.size() - 3] == '/' && k[k.size() - 2] == 'o' &&
        k.back() >= '0' && k.back() <= '2') {
        optLevel = k.back() - '0';
        k.resize(k.size() - 3);
    }

    if (k == "d16" || k == "d16/16/2") {
        opts = mc::CompileOptions::d16();
    } else {
        bool narrow = false;
        if (k.size() > 3 && k.substr(k.size() - 3) == "/ni") {
            narrow = true;
            k.resize(k.size() - 3);
        }
        const auto parts = split(k, '/');
        if (parts.size() != 3 || parts[0] != "dlxe")
            fatal("unknown machine variant '", key,
                  "' (want D16, DLXe/<16|32>/<2|3>[/ni], optionally "
                  "+ /O0../O2)");
        const int regs = parts[1] == "16" ? 16 : parts[1] == "32" ? 32 : 0;
        const bool threeAddr = parts[2] == "3";
        if (!regs || (parts[2] != "2" && parts[2] != "3"))
            fatal("unknown machine variant '", key, "'");
        opts = mc::CompileOptions::dlxe(regs, threeAddr);
        opts.narrowImmediates = narrow;
    }
    opts.optLevel = optLevel;
    return opts;
}

Json
SweepTiming::json() const
{
    Json j = Json::object();
    j["threads"] = Json(threads);
    j["executedRuns"] = Json(executedRuns);
    j["executedBuilds"] = Json(executedBuilds);
    j["dedupedRuns"] = Json(dedupedRuns);
    j["cachedRuns"] = Json(cachedRuns);
    j["replayedRuns"] = Json(replayedRuns);
    j["capturedTraces"] = Json(capturedTraces);
    j["retimedSlices"] = Json(retimedSlices);
    j["storeResultHits"] = Json(storeResultHits);
    j["storeImageHits"] = Json(storeImageHits);
    j["storeTraceHits"] = Json(storeTraceHits);
    j["storeMisses"] = Json(storeMisses);
    j["simulatedInstructions"] = Json(simulatedInstructions);
    j["wallSeconds"] = Json(wallSeconds);
    j["buildSeconds"] = Json(buildSeconds);
    j["simulateSeconds"] = Json(simulateSeconds);
    j["replaySeconds"] = Json(replaySeconds);
    j["buildCpuSeconds"] = Json(buildCpuSeconds);
    j["simulateCpuSeconds"] = Json(simulateCpuSeconds);
    j["replayCpuSeconds"] = Json(replayCpuSeconds);
    j["busySeconds"] = Json(busySeconds());
    j["speedup"] = Json(speedup());
    j["simMips"] = Json(simMips());
    return j;
}

void
SweepTiming::merge(const SweepTiming &o)
{
    threads += o.threads;
    executedRuns += o.executedRuns;
    executedBuilds += o.executedBuilds;
    dedupedRuns += o.dedupedRuns;
    cachedRuns += o.cachedRuns;
    replayedRuns += o.replayedRuns;
    capturedTraces += o.capturedTraces;
    retimedSlices += o.retimedSlices;
    storeResultHits += o.storeResultHits;
    storeImageHits += o.storeImageHits;
    storeTraceHits += o.storeTraceHits;
    storeMisses += o.storeMisses;
    simulatedInstructions += o.simulatedInstructions;
    wallSeconds = std::max(wallSeconds, o.wallSeconds);
    buildSeconds += o.buildSeconds;
    simulateSeconds += o.simulateSeconds;
    replaySeconds += o.replaySeconds;
    buildCpuSeconds += o.buildCpuSeconds;
    simulateCpuSeconds += o.simulateCpuSeconds;
    replayCpuSeconds += o.replayCpuSeconds;
}

SweepEngine::SweepEngine(ResultStore &store, int threads)
    : store_(store), threads_(std::max(1, threads))
{
    timing_.threads = threads_;
}

void
SweepEngine::add(JobSpec spec)
{
    pending_.push_back(std::move(spec));
}

void
SweepEngine::add(std::vector<JobSpec> specs)
{
    for (JobSpec &s : specs)
        pending_.push_back(std::move(s));
}

const JobResult &
SweepEngine::commit(const std::string &key, const JobSpec &spec,
                    JobResult result)
{
    const JobResult &stored = store_.put(key, std::move(result));
    if (artifacts_)
        saveResult(*artifacts_, spec, stored);
    if (onResult_)
        onResult_(key, stored);
    return stored;
}

void
SweepEngine::run()
{
    const Stopwatch sweepClock;

    // Deduplicate the batch and drop jobs the store already has.
    std::map<std::string, JobSpec> unique;
    for (JobSpec &spec : pending_) {
        const std::string key = jobKey(spec);
        if (store_.contains(key)) {
            ++timing_.cachedRuns;
            continue;
        }
        if (!unique.emplace(key, std::move(spec)).second)
            ++timing_.dedupedRuns;
    }
    pending_.clear();

    // With a persistent store attached, settle every job it already
    // holds before constructing the build graph: a fully warm sweep
    // compiles and simulates nothing. Loaded rows are full-fidelity
    // (see artifacts.hh), so they are not written back.
    if (artifacts_) {
        for (auto it = unique.begin(); it != unique.end();) {
            JobResult loaded;
            if (loadResult(*artifacts_, it->second, &loaded)) {
                const JobResult &stored =
                    store_.put(it->first, std::move(loaded));
                if (onResult_)
                    onResult_(it->first, stored);
                ++timing_.storeResultHits;
                it = unique.erase(it);
            } else {
                ++timing_.storeMisses;
                ++it;
            }
        }
    }

    // Group runs under their image: one build node per (workload,
    // variant), whatever capture slices its jobs run on.
    struct BuildNode
    {
        std::vector<JobSpec> runs;
        /** Replayable runs by capture-slice key ("" is the default
         *  machine's), and the rest (imm classification). */
        std::map<std::string, std::vector<const JobSpec *>> slices;
        std::vector<const JobSpec *> direct;
    };
    std::map<std::string, BuildNode> graph;
    for (auto &[key, spec] : unique)
        graph[imageKey(spec)].runs.push_back(std::move(spec));

    std::mutex timingMutex;
    {
        Pool pool(threads_);
        for (auto &[bkey, node] : graph) {
            BuildNode *n = &node;
            pool.submit([this, n, &pool, &timingMutex] {
                // Classify the node's jobs up front: the artifact and
                // trace decisions depend on the mix. Replayable jobs
                // group by capture slice (forwarding/depth); the first
                // default-slice base job rides the capture.
                const JobSpec *baseSpec = nullptr;
                int totalReplayable = 0;
                for (const JobSpec &spec : n->runs) {
                    if (!replayable(spec)) {
                        n->direct.push_back(&spec);
                        continue;
                    }
                    ++totalReplayable;
                    const std::string slice = spec.uarch.captureKey();
                    n->slices[slice].push_back(&spec);
                    if (!baseSpec && spec.probe == ProbeKind::None &&
                        slice.empty())
                        baseSpec = &spec;
                }
                const bool anyRetimed =
                    n->slices.size() > n->slices.count("");

                // Every artifact is the image's, stored under its
                // default-slice build key.
                const std::string contentKey =
                    artifacts_ ? buildContentKey(JobSpec::base(
                                     n->runs.front().workload,
                                     n->runs.front().opts))
                               : std::string();

                // A stored trace settles every replayable job of the
                // node without compiling or capturing anything.
                std::shared_ptr<const replay::Trace> trace;
                if (artifacts_ && replay_ && totalReplayable >= 1) {
                    std::vector<uint8_t> bytes;
                    if (artifacts_->get(store::Kind::Trace, contentKey,
                                        &bytes)) {
                        try {
                            trace = std::make_shared<const replay::Trace>(
                                replay::Trace::deserialize(bytes));
                            std::lock_guard<std::mutex> lock(timingMutex);
                            ++timing_.storeTraceHits;
                        } catch (const Error &) {
                            trace = nullptr;
                        }
                    }
                }

                // Trace-replay is worth a capture when the recorded
                // streams settle more than one job (the first base run
                // rides along for free) — otherwise simulate directly.
                const bool capture =
                    !trace && replay_ && totalReplayable >= 2;

                // The image (and its decode/block companions) is needed
                // by every simulation, and by the timing table that
                // retimes the non-default slices.
                const bool simulates = !trace || !n->direct.empty();
                const bool retime = (trace || capture) && anyRetimed;
                std::shared_ptr<const assem::Image> image;
                std::shared_ptr<const sim::DecodedText> predecoded;
                std::shared_ptr<const sim::BlockProgram> blocks;
                std::shared_ptr<const replay::TimingTable> table;
                if (simulates || retime) {
                    const Stopwatch buildClock;
                    bool compiled = false;
                    if (artifacts_) {
                        std::vector<uint8_t> bytes;
                        if (artifacts_->get(store::Kind::Image,
                                            contentKey, &bytes)) {
                            try {
                                image = std::make_shared<
                                    const assem::Image>(
                                    assem::Image::deserialize(bytes));
                            } catch (const Error &) {
                                image = nullptr;
                            }
                        }
                    }
                    if (!image) {
                        image = std::make_shared<const assem::Image>(
                            build(workload(n->runs.front().workload)
                                      .source,
                                  n->runs.front().opts));
                        compiled = true;
                        if (artifacts_)
                            artifacts_->put(store::Kind::Image,
                                            contentKey,
                                            image->serialize());
                    }
                    predecoded =
                        std::make_shared<const sim::DecodedText>(*image);
                    // Block translation amortizes like predecoding:
                    // once per image, shared by every dependent run.
                    // A reloaded image reuses its stored block table
                    // instead of re-running CFG recovery.
                    if (blockEngine_ && simulates) {
                        sim::BlockTable blockTable;
                        bool haveTable = false;
                        if (artifacts_ && !compiled) {
                            std::vector<uint8_t> bytes;
                            if (artifacts_->get(store::Kind::Meta,
                                                contentKey, &bytes)) {
                                try {
                                    blockTable = blockTableFromBytes(bytes);
                                    haveTable = true;
                                } catch (const Error &) {
                                }
                            }
                        }
                        if (!haveTable) {
                            blockTable = recoverBlockTable(*image);
                            if (artifacts_)
                                artifacts_->put(store::Kind::Meta,
                                                contentKey,
                                                blockTableBytes(blockTable));
                        }
                        blocks = makeBlockProgram(*image, predecoded,
                                                  blockTable);
                    }
                    if (retime)
                        table = std::make_shared<const replay::TimingTable>(
                            *image, *predecoded);
                    const double bt = buildClock.wallSeconds();
                    const double bcpu = buildClock.cpuSeconds();
                    {
                        std::lock_guard<std::mutex> lock(timingMutex);
                        if (compiled)
                            ++timing_.executedBuilds;
                        else
                            ++timing_.storeImageHits;
                        timing_.buildSeconds += bt;
                        timing_.buildCpuSeconds += bcpu;
                    }
                }

                auto submitDirect = [this, image, predecoded, blocks,
                                     &pool,
                                     &timingMutex](const JobSpec *s) {
                    pool.submit([this, s, image, predecoded, blocks,
                                 &timingMutex] {
                        const Stopwatch simClock;
                        JobResult r =
                            executeJob(*s, *image, predecoded, blocks);
                        const double st = simClock.wallSeconds();
                        const double scpu = simClock.cpuSeconds();
                        const uint64_t insns = r.run.stats.instructions;
                        commit(jobKey(*s), *s, std::move(r));
                        std::lock_guard<std::mutex> lock(timingMutex);
                        ++timing_.executedRuns;
                        timing_.simulateSeconds += st;
                        timing_.simulateCpuSeconds += scpu;
                        timing_.simulatedInstructions += insns;
                    });
                };

                // Settle `specs` from the default-slice trace `t`.
                auto submitReplay =
                    [this, &pool, &timingMutex](
                        std::vector<const JobSpec *> specs,
                        std::shared_ptr<const replay::Trace> t) {
                        pool.submit([this, specs = std::move(specs), t,
                                     &timingMutex] {
                            const Stopwatch replayClock;
                            std::vector<JobResult> rs = replayJobs(specs, *t);
                            const double rt = replayClock.wallSeconds();
                            const double rcpu = replayClock.cpuSeconds();
                            for (size_t i = 0; i < specs.size(); ++i)
                                commit(jobKey(*specs[i]), *specs[i],
                                       std::move(rs[i]));
                            std::lock_guard<std::mutex> lock(timingMutex);
                            const int count = static_cast<int>(specs.size());
                            timing_.executedRuns += count;
                            timing_.replayedRuns += count;
                            timing_.replaySeconds += rt;
                            timing_.replayCpuSeconds += rcpu;
                        });
                    };

                // Settle a non-default slice's jobs from `t`: one task
                // retimes the trace once and replays them all.
                auto submitSlice = [this, image, predecoded, blocks, table,
                                    &pool, &timingMutex](
                                       std::vector<const JobSpec *> specs,
                                       std::shared_ptr<const replay::Trace> t) {
                    pool.submit([this, image, predecoded, blocks, table,
                                 specs = std::move(specs), t,
                                 &timingMutex] {
                        SliceCost cost;
                        std::vector<JobResult> rs =
                            replaySlice(specs, *t, *table, *image,
                                        predecoded, blocks, &cost);
                        for (size_t i = 0; i < specs.size(); ++i)
                            commit(jobKey(*specs[i]), *specs[i],
                                   std::move(rs[i]));
                        std::lock_guard<std::mutex> lock(timingMutex);
                        const int count = static_cast<int>(specs.size());
                        timing_.executedRuns += count;
                        timing_.replayedRuns += count;
                        timing_.replaySeconds += cost.replaySeconds;
                        timing_.replayCpuSeconds += cost.replayCpuSeconds;
                        timing_.simulateSeconds += cost.captureSeconds;
                        timing_.simulateCpuSeconds += cost.captureCpuSeconds;
                        if (cost.captured) {
                            ++timing_.capturedTraces;
                            timing_.simulatedInstructions +=
                                cost.capturedInstructions;
                        } else {
                            ++timing_.retimedSlices;
                        }
                    });
                };

                // Settle the node's jobs from the default-slice trace,
                // all but `skip`: on the default slice, one replay task
                // per job, except the cache siblings, which share one
                // task and one replayCaches() pass; one task per other
                // slice; non-replayable jobs (imm classification)
                // simulate against the shared image.
                auto fanOut = [n, submitDirect, submitReplay,
                               submitSlice](
                                  std::shared_ptr<const replay::Trace> t,
                                  const JobSpec *skip) {
                    for (const JobSpec *s : n->direct)
                        submitDirect(s);
                    for (const auto &[slice, specs] : n->slices) {
                        if (!slice.empty()) {
                            submitSlice(specs, t);
                            continue;
                        }
                        std::vector<const JobSpec *> caches;
                        for (const JobSpec *spec : specs) {
                            if (spec == skip)
                                continue;
                            if (spec->probe == ProbeKind::CacheSim)
                                caches.push_back(spec);
                            else
                                submitReplay({spec}, t);
                        }
                        if (!caches.empty())
                            submitReplay(std::move(caches), t);
                    }
                };

                if (trace) {
                    // Stored-trace path: replay everything replayable,
                    // simulate the rest against the (reloaded) image.
                    fanOut(trace, nullptr);
                    return;
                }

                if (!capture) {
                    for (const JobSpec &spec : n->runs)
                        submitDirect(&spec);
                    return;
                }

                // Simulate once, on the default machine, under the
                // trace probe; the capture IS the first default-slice
                // base job's run. The other jobs fan out from it.
                pool.submit([this, image, predecoded, blocks, baseSpec,
                             fanOut, contentKey, &timingMutex] {
                    const Stopwatch simClock;
                    auto captured = std::make_shared<const replay::Trace>(
                        replay::capture(*image, predecoded, {}, blocks));
                    const double st = simClock.wallSeconds();
                    const double scpu = simClock.cpuSeconds();
                    if (artifacts_)
                        artifacts_->put(store::Kind::Trace, contentKey,
                                        captured->serialize());
                    if (baseSpec)
                        commit(jobKey(*baseSpec), *baseSpec,
                               replayJob(*baseSpec, *captured));
                    {
                        std::lock_guard<std::mutex> lock(timingMutex);
                        ++timing_.capturedTraces;
                        timing_.simulateSeconds += st;
                        timing_.simulateCpuSeconds += scpu;
                        timing_.simulatedInstructions +=
                            captured->base.stats.instructions;
                        if (baseSpec)
                            ++timing_.executedRuns;
                    }
                    fanOut(captured, baseSpec);
                });
            });
        }
        pool.wait();
    }
    timing_.wallSeconds += sweepClock.wallSeconds();
}

Json
sweepJson(const ResultStore &store, const SweepTiming *timing)
{
    Json doc = Json::object();
    doc["schema"] = Json("d16sweep-v1");
    doc["results"] = store.json();
    if (timing)
        doc["timing"] = timing->json();
    return doc;
}

namespace
{

void
compareValues(const Json &got, const Json &want, const std::string &path,
              double relTol, int &mismatches, std::string &diff);

void
report(const std::string &path, const std::string &what, int &mismatches,
       std::string &diff)
{
    ++mismatches;
    if (mismatches <= 10)
        diff += "  " + path + ": " + what + "\n";
}

void
compareObjects(const Json &got, const Json &want, const std::string &path,
               double relTol, int &mismatches, std::string &diff)
{
    for (const auto &[k, wv] : want.members()) {
        const Json *gv = got.find(k);
        if (!gv) {
            report(path + "/" + k, "missing in result", mismatches, diff);
            continue;
        }
        compareValues(*gv, wv, path + "/" + k, relTol, mismatches, diff);
    }
    for (const auto &[k, gv] : got.members())
        if (!want.find(k))
            report(path + "/" + k, "not in golden", mismatches, diff);
}

void
compareValues(const Json &got, const Json &want, const std::string &path,
              double relTol, int &mismatches, std::string &diff)
{
    if (want.isNumber() && got.isNumber()) {
        if (want.isInt() && got.isInt()) {
            if (got.asInt() != want.asInt())
                report(path,
                       "got " + std::to_string(got.asInt()) + ", want " +
                           std::to_string(want.asInt()),
                       mismatches, diff);
            return;
        }
        const double g = got.asDouble(), w = want.asDouble();
        const double scale = std::max(std::abs(g), std::abs(w));
        if (std::abs(g - w) > relTol * std::max(scale, 1.0))
            report(path,
                   "got " + std::to_string(g) + ", want " +
                       std::to_string(w),
                   mismatches, diff);
        return;
    }
    if (got.kind() != want.kind()) {
        report(path, "kind mismatch", mismatches, diff);
        return;
    }
    switch (want.kind()) {
      case Json::Kind::Null:
        break;
      case Json::Kind::Bool:
        if (got.asBool() != want.asBool())
            report(path, "bool mismatch", mismatches, diff);
        break;
      case Json::Kind::String:
        if (got.asString() != want.asString())
            report(path,
                   "got \"" + got.asString() + "\", want \"" +
                       want.asString() + "\"",
                   mismatches, diff);
        break;
      case Json::Kind::Array: {
        const auto &gi = got.items(), &wi = want.items();
        if (gi.size() != wi.size()) {
            report(path, "array size mismatch", mismatches, diff);
            break;
        }
        for (size_t i = 0; i < wi.size(); ++i)
            compareValues(gi[i], wi[i], path + "[" + std::to_string(i) + "]",
                          relTol, mismatches, diff);
        break;
      }
      case Json::Kind::Object:
        compareObjects(got, want, path, relTol, mismatches, diff);
        break;
      default:
        break;
    }
}

} // namespace

bool
compareSweeps(const Json &got, const Json &golden, std::string *diff,
              double relTol)
{
    int mismatches = 0;
    std::string out;
    // The comparable section is everything except "timing".
    for (const auto &[k, wv] : golden.members()) {
        if (k == "timing")
            continue;
        const Json *gv = got.find(k);
        if (!gv) {
            report("/" + k, "missing in result", mismatches, out);
            continue;
        }
        compareValues(*gv, wv, "/" + k, relTol, mismatches, out);
    }
    for (const auto &[k, gv] : got.members())
        if (k != "timing" && !golden.find(k))
            report("/" + k, "not in golden", mismatches, out);

    if (mismatches > 10)
        out += "  ... and " + std::to_string(mismatches - 10) + " more\n";
    if (diff)
        *diff = out;
    return mismatches == 0;
}

// ----- standard matrices ----------------------------------------------

namespace
{

mc::CompileOptions
narrowed(mc::CompileOptions opts)
{
    opts.narrowImmediates = true;
    return opts;
}

mem::CacheConfig
paperCacheConfig(uint32_t sizeBytes, uint32_t blockBytes)
{
    mem::CacheConfig cfg;
    cfg.sizeBytes = sizeBytes;
    cfg.blockBytes = blockBytes;
    cfg.subBlockBytes = std::min(blockBytes, 8u);
    return cfg;
}

} // namespace

std::vector<JobSpec>
fullMatrix()
{
    std::vector<JobSpec> jobs;
    const auto variants = paperVariants();
    const mc::CompileOptions d16 = mc::CompileOptions::d16();
    const mc::CompileOptions dlxe = mc::CompileOptions::dlxe();

    for (const Workload &w : workloadSuite()) {
        for (const auto &[label, opts] : variants)
            jobs.push_back(JobSpec::base(w.name, opts));

        // Narrow-immediate ablations (fig10 and bench_ablations).
        jobs.push_back(JobSpec::base(
            w.name, narrowed(mc::CompileOptions::dlxe(16, false))));
        jobs.push_back(JobSpec::base(w.name, narrowed(dlxe)));

        // Immediate classification on restricted DLXe (fig10).
        jobs.push_back(
            JobSpec::imm(w.name, mc::CompileOptions::dlxe(16, false)));

        // Fetch-buffer traffic on 32- and 64-bit buses (figs 13-15).
        for (const mc::CompileOptions &opts : {d16, dlxe})
            for (uint32_t bus : {4u, 8u})
                jobs.push_back(JobSpec::fetch(w.name, opts, bus));

        // Optimization-level ablations (bench_ablations; the cache
        // benchmarks are excluded there to keep the sweep quick).
        if (!w.cacheBenchmark) {
            for (const mc::CompileOptions &opts : {d16, dlxe}) {
                for (int lvl : {0, 1}) {
                    mc::CompileOptions o = opts;
                    o.optLevel = lvl;
                    jobs.push_back(JobSpec::base(w.name, o));
                }
            }
        }
    }

    // The §4.1 cache sweep (figs 16-19) over the cache benchmarks.
    for (const std::string &name : cacheBenchmarkNames()) {
        for (const mc::CompileOptions &opts : {d16, dlxe}) {
            for (uint32_t kb : {1u, 2u, 4u, 8u, 16u}) {
                for (uint32_t block : {8u, 16u, 32u, 64u}) {
                    const mem::CacheConfig cfg =
                        paperCacheConfig(kb * 1024, block);
                    jobs.push_back(JobSpec::cache(name, opts, cfg, cfg));
                }
            }
        }
    }
    return jobs;
}

std::vector<JobSpec>
smokeMatrix()
{
    std::vector<JobSpec> jobs;
    const mc::CompileOptions d16 = mc::CompileOptions::d16();
    const mc::CompileOptions dlxe = mc::CompileOptions::dlxe();

    for (const Workload &w : workloadSuite())
        for (const auto &[label, opts] : paperVariants())
            jobs.push_back(JobSpec::base(w.name, opts));

    for (const std::string &name : {std::string("bubblesort"),
                                    std::string("queens")}) {
        jobs.push_back(
            JobSpec::imm(name, mc::CompileOptions::dlxe(16, false)));
        for (const mc::CompileOptions &opts : {d16, dlxe})
            for (uint32_t bus : {4u, 8u})
                jobs.push_back(JobSpec::fetch(name, opts, bus));
    }

    const mem::CacheConfig cfg = paperCacheConfig(4096, 32);
    for (const std::string &name : cacheBenchmarkNames())
        for (const mc::CompileOptions &opts : {d16, dlxe})
            jobs.push_back(JobSpec::cache(name, opts, cfg, cfg));

    return jobs;
}

std::vector<JobSpec>
smokeBaseMatrix()
{
    std::vector<JobSpec> jobs;
    for (JobSpec &j : smokeMatrix())
        if (j.probe == ProbeKind::None)
            jobs.push_back(std::move(j));
    return jobs;
}

std::vector<JobSpec>
uarchSmokeMatrix()
{
    // The six non-default machines: each axis alone, a deliberately
    // tiny (4-entry) BHT to exercise aliasing, and everything on.
    const std::vector<std::string> configs = {
        "fwd=on",  "bp=static", "bp=bimodal6",
        "bp=bimodal2", "depth=7", "fwd=on,bp=bimodal6,depth=7",
    };
    const std::vector<std::string> names = {"bubblesort", "queens",
                                            "towers"};
    const std::vector<mc::CompileOptions> variants = {
        mc::CompileOptions::d16(), mc::CompileOptions::dlxe()};

    std::vector<JobSpec> jobs;
    for (const std::string &name : names) {
        for (const mc::CompileOptions &opts : variants) {
            for (const std::string &cfg : configs) {
                JobSpec s = JobSpec::base(name, opts);
                s.uarch = parseUarch(cfg);
                jobs.push_back(std::move(s));
            }
        }
    }

    // Probe jobs under the combined machine: the capture then runs at
    // a non-default capture slice and the fetch/cache keys replay
    // from it.
    const sim::UarchConfig combined =
        parseUarch("fwd=on,bp=bimodal6,depth=7");
    const mem::CacheConfig cacheCfg = paperCacheConfig(4096, 32);
    for (const mc::CompileOptions &opts : variants) {
        JobSpec f = JobSpec::fetch("queens", opts, 4);
        f.uarch = combined;
        jobs.push_back(std::move(f));
        JobSpec c = JobSpec::cache("queens", opts, cacheCfg, cacheCfg);
        c.uarch = combined;
        jobs.push_back(std::move(c));
    }
    return jobs;
}

} // namespace d16sim::core::sweep
