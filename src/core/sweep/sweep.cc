#include "core/sweep/sweep.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
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
    j["rowsLandedP50Seconds"] = Json(rowLandedSeconds(50));
    j["rowsLandedP90Seconds"] = Json(rowLandedSeconds(90));
    j["busySeconds"] = Json(busySeconds());
    j["speedup"] = Json(speedup());
    j["simMips"] = Json(simMips());
    return j;
}

double
SweepTiming::rowLandedSeconds(double p) const
{
    std::vector<double> v = rowSeconds;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<size_t>(std::ceil(p / 100 * v.size()));
    return v.empty() ? 0 : v[std::max<size_t>(rank, 1) - 1];
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
    land(key, stored);
    return stored;
}

void
SweepEngine::land(const std::string &key, const JobResult &stored)
{
    {
        std::lock_guard<std::mutex> lock(timingMutex_);
        timing_.rowSeconds.push_back(runClock_.wallSeconds());
    }
    if (onResult_)
        onResult_(key, stored);
}

void
SweepEngine::run()
{
    runClock_ = Stopwatch();

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
                land(it->first, store_.put(it->first, std::move(loaded)));
                ++timing_.storeResultHits;
                it = unique.erase(it);
            } else {
                ++timing_.storeMisses;
                ++it;
            }
        }
    }

    // Group runs under their image: one build node per (workload,
    // variant), whatever probe or capture slice its jobs run on.
    std::map<std::string, std::vector<JobSpec>> graph;
    for (auto &[key, spec] : unique)
        graph[imageKey(spec)].push_back(std::move(spec));
    // A free worker takes the pending node with the fewest estimated
    // instructions per job (Smith's rule: least job-weighted waiting).
    // A workload's estimate is what its last settled node simulated,
    // else the mean of the measured workloads, so the sweep opens most
    // jobs first. Ties go to more jobs, then to the earlier imageKey.
    std::vector<const std::vector<JobSpec> *> pending;
    for (const auto &[ikey, runs] : graph)
        pending.push_back(&runs);
    std::map<std::string, double> measured; // workload -> instructions
    std::mutex mutex; // guards pending, measured and error
    std::exception_ptr error;
    auto pick = [&]() -> const std::vector<JobSpec> * {
        if (pending.empty())
            return nullptr;
        double mean = 0;
        for (const auto &[name, insns] : measured)
            mean += insns / measured.size();
        auto perJob = [&](const std::vector<JobSpec> *runs) {
            const auto it = measured.find(runs->front().workload);
            return (it == measured.end() ? mean : it->second) / runs->size();
        };
        const auto best = std::min_element(
            pending.begin(), pending.end(), [&](const auto *a, const auto *b) {
                const double ca = perJob(a), cb = perJob(b);
                return ca != cb ? ca < cb : a->size() > b->size();
            });
        const std::vector<JobSpec> *runs = *best;
        pending.erase(best);
        return runs;
    };

    // Each worker settles whole nodes, so a node's image and trace
    // live only as long as its task. The first error is rethrown once
    // every node has settled.
    auto work = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        while (const std::vector<JobSpec> *runs = pick()) {
            lock.unlock();
            uint64_t simulated = 0;
            std::exception_ptr failed;
            try {
                simulated = settle(*runs);
            } catch (...) {
                failed = std::current_exception();
            }
            lock.lock();
            if (failed && !error)
                error = failed;
            if (simulated)
                measured[runs->front().workload] = simulated;
        }
    };
    std::vector<std::thread> workers;
    const size_t width =
        std::min(graph.size(), static_cast<size_t>(threads_));
    for (size_t i = 0; i < width; ++i)
        workers.emplace_back(work);
    for (std::thread &t : workers)
        t.join();
    if (error)
        std::rethrow_exception(error);
    timing_.wallSeconds += runClock_.wallSeconds();
}

uint64_t
SweepEngine::settle(const std::vector<JobSpec> &runs)
{
    auto book = [this](auto &&update) {
        std::lock_guard<std::mutex> lock(timingMutex_);
        update(timing_);
    };

    // Every artifact is the image's, stored under its default-slice
    // build key.
    const JobSpec &first = runs.front();
    const std::string contentKey =
        artifacts_
            ? buildContentKey(JobSpec::base(first.workload, first.opts))
            : std::string();

    // A stored trace settles every job of the node without capturing;
    // otherwise a node with more than one job captures once and a
    // lone job runs directly.
    std::optional<replay::Trace> trace;
    if (artifacts_ && replay_) {
        std::vector<uint8_t> bytes;
        if (artifacts_->get(store::Kind::Trace, contentKey, &bytes)) {
            try {
                trace = replay::Trace::deserialize(bytes);
                book([](SweepTiming &t) { ++t.storeTraceHits; });
            } catch (const Error &) {
            }
        }
    }
    const bool replays = trace || (replay_ && runs.size() > 1);

    bool classifiesImm = false;
    bool retimes = false;
    for (const JobSpec &spec : runs) {
        classifiesImm |= spec.probe == ProbeKind::ImmClass;
        retimes |= replays && !spec.uarch.captureKey().empty();
    }

    // Every simulation needs the image; a stored trace needs it only
    // for the imm classifier's predecode table and the timing table
    // that retimes the non-default slices.
    std::shared_ptr<const assem::Image> image;
    std::shared_ptr<const sim::DecodedText> predecoded;
    std::shared_ptr<const sim::BlockProgram> blocks;
    std::optional<replay::TimingTable> table;
    if (!trace || classifiesImm || retimes) {
        const Stopwatch buildClock;
        bool compiled = false;
        if (artifacts_) {
            std::vector<uint8_t> bytes;
            if (artifacts_->get(store::Kind::Image, contentKey, &bytes)) {
                try {
                    image = std::make_shared<const assem::Image>(
                        assem::Image::deserialize(bytes));
                } catch (const Error &) {
                    image = nullptr;
                }
            }
        }
        if (!image) {
            image = std::make_shared<const assem::Image>(
                build(workload(first.workload).source, first.opts));
            compiled = true;
            if (artifacts_)
                artifacts_->put(store::Kind::Image, contentKey,
                                image->serialize());
        }
        predecoded = std::make_shared<const sim::DecodedText>(*image);
        // Block translation amortizes like predecoding: once per
        // image, shared by the direct runs and the capture. A reloaded
        // image reuses its stored block table instead of re-running
        // CFG recovery.
        if (blockEngine_ && !trace) {
            sim::BlockTable blockTable;
            bool haveTable = false;
            if (artifacts_ && !compiled) {
                std::vector<uint8_t> bytes;
                if (artifacts_->get(store::Kind::Meta, contentKey,
                                    &bytes)) {
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
                    artifacts_->put(store::Kind::Meta, contentKey,
                                    blockTableBytes(blockTable));
            }
            blocks = makeBlockProgram(*image, predecoded, blockTable);
        }
        if (retimes)
            table.emplace(*image, *predecoded);
        const double bt = buildClock.wallSeconds();
        const double bcpu = buildClock.cpuSeconds();
        book([&](SweepTiming &t) {
            if (compiled)
                ++t.executedBuilds;
            else
                ++t.storeImageHits;
            t.buildSeconds += bt;
            t.buildCpuSeconds += bcpu;
        });
    }

    if (!replays) {
        uint64_t longest = 0;
        for (const JobSpec &spec : runs) {
            const Stopwatch simClock;
            JobResult r = executeJob(spec, *image, predecoded, blocks);
            const double st = simClock.wallSeconds();
            const double scpu = simClock.cpuSeconds();
            const uint64_t insns = r.run.stats.instructions;
            longest = std::max(longest, insns);
            commit(jobKey(spec), spec, std::move(r));
            book([&](SweepTiming &t) {
                ++t.executedRuns;
                t.simulateSeconds += st;
                t.simulateCpuSeconds += scpu;
                t.simulatedInstructions += insns;
            });
        }
        return longest;
    }

    // Stream every job through one set of folds: from the stored
    // trace in one chunk, or from one capture on the default machine
    // (teed into a trace only when the store is to keep it).
    std::vector<const JobSpec *> specs;
    for (const JobSpec &spec : runs)
        specs.push_back(&spec);
    std::optional<replay::Trace> teed;
    if (artifacts_ && !trace)
        teed.emplace();
    const NodeCost cost = streamJobs(
        specs, trace ? &*trace : nullptr, image.get(), predecoded, blocks,
        table ? &*table : nullptr, teed ? &*teed : nullptr,
        [this](const JobSpec &spec, JobResult r) {
            commit(jobKey(spec), spec, std::move(r));
        });
    if (teed)
        artifacts_->put(store::Kind::Trace, contentKey, teed->serialize());
    const int count = static_cast<int>(runs.size());
    book([&](SweepTiming &t) {
        t.executedRuns += count;
        t.replayedRuns += count - cost.riders;
        t.capturedTraces += cost.captures;
        t.retimedSlices += cost.retimedSlices;
        t.simulatedInstructions += cost.capturedInstructions;
        t.simulateSeconds += cost.simulateSeconds;
        t.simulateCpuSeconds += cost.simulateCpuSeconds;
        t.replaySeconds += cost.replaySeconds;
        t.replayCpuSeconds += cost.replayCpuSeconds;
    });
    return cost.capturedInstructions;
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
