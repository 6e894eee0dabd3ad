/**
 * @file
 * perfbench: end-to-end and per-layer benchmark of the d16sim sweep
 * apparatus. See perfbench/README.md for the workloads, the metrics
 * and why each was chosen.
 *
 *   perfbench --workload paper-cold|uarch-explore
 *             --seed N --seconds S --trace 0|1
 *             [--inject-fault] [--revision R]
 *   perfbench --pin          regenerate perfbench/pins.json
 *
 * Run from the repository root (it reads tests/golden/ and
 * perfbench/pins.json, and keeps scratch state under .bench_run/).
 * The last line of standard output is one JSON record; run.py turns it
 * into the benchmark's result line.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/service/client.hh"
#include "core/service/server.hh"
#include "core/store/store.hh"
#include "core/sweep/artifacts.hh"
#include "core/sweep/sweep.hh"
#include "core/workloads.hh"
#include "graph.hh"
#include "jobs.hh"
#include "oracle/interp.hh"
#include "support/error.hh"
#include "support/hash.hh"
#include "support/json.hh"
#include "tracer.hh"

namespace perfbench
{
namespace
{

using namespace d16sim;
using core::sweep::JobResult;
using core::sweep::JobSpec;
using core::sweep::ResultStore;
namespace fs = std::filesystem;

/** Sweep worker threads (engine and server). Two leave headroom on a
 *  shared 4-core host; four made same-code medians drift 13%. */
constexpr int kSweepThreads = 2;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupRepeats = 21;

// ----- small utilities ------------------------------------------------

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, p in (0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::max<size_t>(rank, 1) - 1];
}

std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read ", path,
              " (run from the repository root)");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
workloadOf(const std::string &key)
{
    return key.substr(0, key.find('|'));
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

Json
hostJson(const std::string &revision, double loadAtStart)
{
    Json h = Json::object();
    h["nproc"] = Json(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    h["cpu_model"] = Json(cpuModel());
    h["compiler"] = Json(PERFBENCH_COMPILER);
    h["build_type"] = Json(PERFBENCH_BUILD_TYPE);
    h["revision"] = Json(revision);
    h["loadavg_1m_at_start"] = Json(loadAtStart);
    Json t = Json::object();
    t["sweep_threads"] = Json(kSweepThreads);
    t["server_jobs"] = Json(kSweepThreads);
    t["server_shards"] = Json(1);
    t["client_threads"] = Json(1);
    t["traced_threads"] = Json(1);
    h["threads"] = std::move(t);
    return h;
}

// ----- references -----------------------------------------------------

/**
 * Every row the benchmark produces is checked here: program output and
 * exit status against the oracle interpreter, rows pinned by the
 * repository's goldens byte for byte, and paper-cold rows against this
 * directory's pinned digests. The oracle runs here, once per suite
 * workload, before set-up is timed: it is the benchmark's own work,
 * not the program's.
 */
class Checker
{
  public:
    explicit Checker(bool injectFault) : injectFault_(injectFault)
    {
        for (const core::Workload &w : core::workloadSuite()) {
            const oracle::RunResult r = oracle::interpretSource(w.source);
            if (r.outcome != oracle::Outcome::Exit)
                fatal("oracle did not exit cleanly on ", w.name, ": ",
                      r.reason);
            oracle_[w.name] = r;
        }
        pins_ = Json::parse(readText("perfbench/pins.json"));
        for (const char *path : {"tests/golden/sweep_golden.json",
                                 "tests/golden/sweep_uarch_golden.json"}) {
            const Json doc = Json::parse(readText(path));
            for (const auto &[key, row] : doc.find("results")->members())
                golden_[key] = row.dump();
        }
    }

    const Json &pins() const { return pins_; }

    /** With --inject-fault, the first row checked is corrupted (one
     *  more instruction, one more output byte) before it is judged. */
    JobResult
    observed(const JobResult &row)
    {
        JobResult r = row;
        if (injectFault_ && !injected_) {
            injected_ = true;
            ++r.run.stats.instructions;
            r.run.output += "!";
        }
        return r;
    }

    /** Empty when the row passes; else the reason. */
    std::string
    check(const std::string &key, const JobResult &r) const
    {
        const auto oracle = oracle_.find(workloadOf(key));
        if (oracle == oracle_.end())
            return key + ": no oracle run for its workload";
        if (r.run.output != oracle->second.output ||
            r.run.exitStatus != oracle->second.exitStatus)
            return key + ": output/exit differs from the oracle";
        const std::string dump = r.json().dump();
        if (auto g = golden_.find(key); g != golden_.end() &&
                                        g->second != dump)
            return key + ": differs from the golden row";
        const Json *pinned =
            pins_.find("paperCold")->find("rows")->find(key);
        if (pinned && pinned->asString() != rowDigest(dump))
            return key + ": differs from the pinned paper-cold row";
        return "";
    }

    bool pinnedPaperRow(const std::string &key) const
    {
        return pins_.find("paperCold")->find("rows")->find(key) != nullptr;
    }

    static std::string
    rowDigest(const std::string &dump)
    {
        return sha256Hex(dump).substr(0, 16);
    }

  private:
    std::map<std::string, oracle::RunResult> oracle_;
    Json pins_;
    std::map<std::string, std::string> golden_;
    bool injectFault_;
    bool injected_ = false;
};

/** Failure tally for one run: attempts, failures, first reasons. */
struct Tally
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> reasons;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (reasons.size() < 8)
            reasons.push_back(why);
    }
};

/** Check a storeless pass: every job's row, and for uarch-explore
 *  each row's instructions and output against its default-machine
 *  sibling. */
void
checkStorelessPass(const std::string &workload,
                   const std::vector<JobSpec> &jobs,
                   const ResultStore &results, Checker &checker,
                   Tally &tally)
{
    std::set<std::string> keys;
    for (const JobSpec &spec : jobs)
        keys.insert(core::sweep::jobKey(spec));
    tally.attempted += static_cast<int64_t>(keys.size());
    for (const JobSpec &spec : jobs) {
        const std::string key = core::sweep::jobKey(spec);
        if (!keys.erase(key))
            continue; // duplicate spec, checked once
        const JobResult *row = results.find(key);
        if (!row) {
            tally.fail(key + ": missing");
            continue;
        }
        const JobResult r = checker.observed(*row);
        std::string why = checker.check(key, r);
        if (why.empty() && workload == "paper-cold" &&
            !checker.pinnedPaperRow(key))
            why = key + ": not in the pinned paper-cold matrix";
        if (why.empty() && workload == "uarch-explore") {
            const std::string sib =
                spec.workload + "|" + core::sweep::variantKey(spec.opts);
            const JobResult *s = results.find(sib);
            if (!s || s->run.stats.instructions !=
                          r.run.stats.instructions ||
                s->run.output != r.run.output)
                why = key + ": differs from its default-machine sibling";
        }
        if (!why.empty())
            tally.fail(why);
    }
    if (workload == "paper-cold") {
        const std::string digest =
            sha256Hex(core::sweep::sweepJson(results, nullptr).dump());
        if (digest !=
            checker.pins().find("paperCold")->find("sweepSha256")->asString())
            tally.fail("paper-cold: canonical sweepJson digest differs "
                       "from the pin");
    }
}

// ----- storeless engine passes ----------------------------------------

struct EnginePass
{
    double wall = 0;
    double cpu = 0;
    std::vector<double> rowMs; //!< sweep start to each row landing
    core::sweep::SweepTiming timing;
    std::unique_ptr<ResultStore> results;
    bool errored = false;
    std::string error;
};

EnginePass
runEnginePass(const std::vector<JobSpec> &jobs)
{
    EnginePass p;
    p.results = std::make_unique<ResultStore>();
    core::sweep::SweepEngine engine(*p.results, kSweepThreads);
    engine.add(jobs);
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    std::mutex rowMutex;
    engine.setResultCallback([&](const std::string &, const JobResult &) {
        const double ms = secondsBetween(t0, Clock::now()) * 1e3;
        std::lock_guard<std::mutex> lock(rowMutex);
        p.rowMs.push_back(ms);
    });
    try {
        engine.run();
    } catch (const Error &e) {
        p.errored = true;
        p.error = e.what();
    }
    p.wall = secondsBetween(t0, Clock::now());
    p.cpu = processCpuSeconds() - cpu0;
    p.timing = engine.timing();
    return p;
}

// ----- the served leg of uarch-explore's traced run ---------------------

/** Scratch directory of this process, removed on exit. */
std::string
scratchDir()
{
    static const std::string dir =
        ".bench_run/p" + std::to_string(::getpid());
    return dir;
}

/**
 * An in-process d16sweepd: a SweepServer (jobs=2, shards=1) over a
 * fresh on-disk artifact store, its accept loop on one thread, and one
 * connected SweepClient. The socket path is relative, so the checkout
 * path's length never matters.
 */
class ServedHarness
{
  public:
    ServedHarness()
    {
        dir_ = scratchDir() + "/served";
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        core::service::ServerConfig cfg;
        cfg.socketPath = dir_ + "/s.sock";
        cfg.storeDir = dir_ + "/store";
        cfg.jobs = kSweepThreads;
        cfg.shards = 1;
        server_ = std::make_unique<core::service::SweepServer>(cfg);
        thread_ = std::thread([this] {
            try {
                server_->serve();
            } catch (const Error &e) {
                std::fprintf(stderr, "perfbench: server: %s\n", e.what());
            }
        });
        client_ =
            std::make_unique<core::service::SweepClient>(cfg.socketPath);
    }

    ~ServedHarness()
    {
        try {
            client_->shutdown();
        } catch (const Error &e) {
            std::fprintf(stderr, "perfbench: shutdown: %s\n", e.what());
        }
        client_.reset();
        thread_.join();
        server_.reset();
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    ServedHarness(const ServedHarness &) = delete;
    ServedHarness &operator=(const ServedHarness &) = delete;

    core::service::SweepClient &client() { return *client_; }

  private:
    std::string dir_;
    std::unique_ptr<core::service::SweepServer> server_;
    std::unique_ptr<core::service::SweepClient> client_;
    std::thread thread_;
};

struct ServedPass
{
    std::vector<double> latencyMs;    //!< per request
    std::vector<double> serverWall;   //!< engine wall per request
    std::vector<std::unique_ptr<ResultStore>> rows;
    std::vector<std::string> errors;  //!< per request, empty if none
    Json stats;                       //!< server stats() after the pass
};

ServedPass
runServedPass(ServedHarness &harness, const std::vector<Request> &stream)
{
    ServedPass p;
    for (const Request &req : stream) {
        p.rows.push_back(std::make_unique<ResultStore>());
        Json timing;
        std::string error;
        const auto s = Clock::now();
        try {
            timing = harness.client().sweep(req.jobs, *p.rows.back());
        } catch (const Error &e) {
            error = e.what();
        }
        p.latencyMs.push_back(secondsBetween(s, Clock::now()) * 1e3);
        p.errors.push_back(error);
        const Json *wall =
            timing.isObject() ? timing.find("wallSeconds") : nullptr;
        p.serverWall.push_back(wall ? wall->asDouble() : 0.0);
    }
    p.stats = harness.client().stats();
    return p;
}

/** Reference rows for every job of the stream, from one storeless
 *  engine sweep outside the timed phase. */
std::map<std::string, std::string>
servedReference(const std::vector<Request> &stream)
{
    std::vector<JobSpec> all;
    for (const Request &req : stream)
        all.insert(all.end(), req.jobs.begin(), req.jobs.end());
    ResultStore results;
    core::sweep::SweepEngine engine(results, kSweepThreads);
    engine.add(std::move(all));
    engine.run();
    std::map<std::string, std::string> ref;
    for (const std::string &key : results.keys())
        ref[key] = core::sweep::resultJson(results.at(key)).dump();
    return ref;
}

void
checkServedPass(const std::vector<Request> &stream, const ServedPass &pass,
                const std::map<std::string, std::string> &reference,
                Checker &checker, Tally &tally)
{
    for (size_t i = 0; i < stream.size(); ++i) {
        ++tally.attempted;
        if (!pass.errors[i].empty()) {
            tally.fail("request " + std::to_string(i) + ": " +
                       pass.errors[i]);
            continue;
        }
        std::string why;
        for (const JobSpec &spec : stream[i].jobs) {
            const std::string key = core::sweep::jobKey(spec);
            const JobResult *row = pass.rows[i]->find(key);
            if (!row) {
                why = key + ": not served";
                break;
            }
            const JobResult r = checker.observed(*row);
            const auto ref = reference.find(key);
            if (ref == reference.end() ||
                core::sweep::resultJson(r).dump() != ref->second) {
                why = key + ": differs from the reference row";
                break;
            }
            why = checker.check(key, r);
            if (!why.empty())
                break;
        }
        if (!why.empty())
            tally.fail("request " + std::to_string(i) + ": " + why);
    }
}

// ----- the traced run -------------------------------------------------

/** Emulate the server's request loop on one thread: memory-cache
 *  lookup, then a store-backed GraphRunner over the misses, encoding
 *  every row as the server frames it. */
void
emulateServed(const std::vector<Request> &stream, const std::string &dir,
              Tracer *tracer, ResultStore &memory)
{
    fs::remove_all(dir);
    core::store::ArtifactStore artifacts(dir);
    size_t sink = 0;
    auto encode = [&](const std::string &key, const JobResult &row) {
        Span s(tracer, "service.encode");
        Json frame = Json::object();
        frame["frame"] = Json("result");
        frame["key"] = Json(key);
        frame["result"] = core::sweep::resultJson(row);
        sink += frame.dump().size();
    };
    for (size_t i = 0; i < stream.size(); ++i) {
        if (tracer)
            tracer->setRequest(static_cast<int>(i) + 1);
        Span request(tracer, "service.request");
        std::vector<JobSpec> fresh;
        {
            Span s(tracer, "service.lookup");
            for (const JobSpec &spec : stream[i].jobs) {
                const std::string key = core::sweep::jobKey(spec);
                if (const JobResult *hit = memory.find(key))
                    encode(key, *hit);
                else
                    fresh.push_back(spec);
            }
        }
        if (!fresh.empty()) {
            GraphRunner runner(memory, &artifacts, tracer);
            runner.setResultCallback(encode);
            runner.run(std::move(fresh));
        }
    }
    if (tracer)
        tracer->setRequest(0);
    if (sink == 0)
        fatal("served emulation encoded no rows");
}

struct GraphRun
{
    double wall = 0;
    uint64_t traceBytes = 0;                    //!< job graph's traces
    std::unique_ptr<ResultStore> results;       //!< job graph's rows
    std::unique_ptr<ResultStore> servedResults; //!< served stream's rows
};

/** One single-threaded replay of the workload's job graph, then of the
 *  served stream if there is one, traced when `tracer` is non-null. */
GraphRun
runGraph(const std::vector<JobSpec> &jobs,
         const std::vector<Request> &stream, Tracer *tracer,
         const std::string &storeDir)
{
    GraphRun g;
    g.results = std::make_unique<ResultStore>();
    g.servedResults = std::make_unique<ResultStore>();
    const auto t0 = Clock::now();
    {
        Span root(tracer, "bench.graph");
        GraphRunner runner(*g.results, nullptr, tracer);
        runner.run(jobs);
        g.traceBytes = runner.traceBytes();
        if (!stream.empty())
            emulateServed(stream, storeDir, tracer, *g.servedResults);
    }
    g.wall = secondsBetween(t0, Clock::now());
    std::error_code ec;
    fs::remove_all(storeDir, ec);
    return g;
}

/** Canonical bytes of a result set: the full-fidelity store encoding
 *  of every row, in key order. */
std::string
canonicalRows(const ResultStore &results)
{
    std::string out;
    for (const std::string &key : results.keys())
        out += key + "=" + core::sweep::resultJson(results.at(key)).dump() +
               "\n";
    return out;
}

void
writeSpans(const Tracer &tracer, const std::string &path)
{
    fs::create_directories(fs::path(path).parent_path());
    std::ofstream out(path);
    for (const SpanRecord &s : tracer.spans()) {
        Json j = Json::object();
        j["name"] = Json(s.name);
        j["start_ns"] = Json(static_cast<int64_t>(s.startNs));
        j["end_ns"] = Json(static_cast<int64_t>(s.endNs));
        j["parent"] = Json(s.parent);
        j["request"] = Json(s.request);
        j["work"] = Json(s.work);
        out << j.dump() << "\n";
    }
}

// ----- metrics --------------------------------------------------------

Json
metric(double value, const char *unit)
{
    Json m = Json::object();
    m["value"] = Json(value);
    m["unit"] = Json(unit);
    return m;
}

void
addSweepMetrics(Json &m, const core::sweep::SweepTiming &t, double idle)
{
    m["sweep.build_s"] = metric(t.buildSeconds, "s");
    m["sweep.simulate_s"] = metric(t.simulateSeconds, "s");
    m["sweep.replay_s"] = metric(t.replaySeconds, "s");
    m["sweep.idle_s"] = metric(idle, "s");
    m["sweep.executed_builds"] = metric(t.executedBuilds, "count");
    m["sweep.replayed_runs"] = metric(t.replayedRuns, "count");
}

/** A per-layer self-time metric: the summed self time of its spans,
 *  over the spans of one scope. */
struct SelfMetric
{
    const char *name;
    Tracer::Scope scope;
    std::vector<const char *> spans;
};

/**
 * Every self-time metric. The graph layers count the workload's own
 * job graph (request 0); the store, service and trace (de)serialization
 * layers run only on the served leg and count every span; and
 * service.backend_s is the served leg's time in the graph layers. No
 * (span, request) pair is counted twice, so traced wall minus the sum
 * of these metrics is time in no reported layer: the root span,
 * service.request and service.lookup, and any call left unspanned
 * inside them.
 */
std::vector<SelfMetric>
selfMetrics()
{
    using Scope = Tracer::Scope;
    const std::vector<const char *> graphLayers = {
        "mc.compile", "asm.link", "analysis.cfg_recover",
        "sim.predecode", "sim.block_translate", "sim.run", "sim.capture",
        "sim.step", "replay.cache", "replay.fetch", "replay.branch",
        "sweep.run", "sweep.plan", "sweep.node", "sweep.commit"};
    return {
        {"mc.compile_s", Scope::Graph, {"mc.compile"}},
        {"asm.link_s", Scope::Graph, {"asm.link"}},
        {"analysis.cfg_recover_s", Scope::Graph, {"analysis.cfg_recover"}},
        {"sim.predecode_s", Scope::Graph, {"sim.predecode"}},
        {"sim.block_translate_s", Scope::Graph, {"sim.block_translate"}},
        {"sim.run_s", Scope::Graph, {"sim.run"}},
        {"sim.capture_s", Scope::Graph, {"sim.capture"}},
        {"sim.step_s", Scope::Graph, {"sim.step"}},
        {"replay.cache_s", Scope::Graph, {"replay.cache"}},
        {"replay.fetch_s", Scope::Graph, {"replay.fetch"}},
        {"replay.branch_s", Scope::Graph, {"replay.branch"}},
        {"sweep.bookkeeping_s",
         Scope::Graph,
         {"sweep.run", "sweep.plan", "sweep.node", "sweep.commit"}},
        {"replay.serialize_s", Scope::All, {"replay.serialize"}},
        {"replay.deserialize_s", Scope::All, {"replay.deserialize"}},
        {"store.get_s", Scope::All, {"store.get"}},
        {"store.put_s", Scope::All, {"store.put"}},
        {"store.key_s", Scope::All, {"store.key"}},
        {"store.codec_s", Scope::All, {"store.encode", "store.decode"}},
        {"service.encode_s", Scope::All, {"service.encode"}},
        {"service.backend_s", Scope::Served, graphLayers},
    };
}

/** Emit every per-layer metric the tracer feeds; return the traced
 *  seconds they attribute. */
double
addLayerMetrics(Json &m, const Tracer &tracer)
{
    using Scope = Tracer::Scope;
    std::map<Scope, std::map<std::string, LayerTotals>> totals;
    for (Scope scope : {Scope::All, Scope::Graph, Scope::Served})
        totals[scope] = tracer.totals(scope);
    auto get = [&totals](Scope scope, const char *name) {
        const auto &layers = totals[scope];
        const auto it = layers.find(name);
        return it == layers.end() ? LayerTotals{} : it->second;
    };
    double attributed = 0;
    for (const SelfMetric &sm : selfMetrics()) {
        double seconds = 0;
        for (const char *span : sm.spans)
            seconds += get(sm.scope, span).selfSeconds;
        m[sm.name] = metric(seconds, "s");
        attributed += seconds;
    }

    auto rate = [](double work, double seconds, double scale) {
        return seconds > 0 ? work / seconds * scale : 0.0;
    };
    m["mc.compiles"] = metric(
        static_cast<double>(get(Scope::Graph, "mc.compile").calls), "count");
    for (const char *path : {"run", "capture", "step"}) {
        const std::string base = std::string("sim.") + path;
        const LayerTotals t = get(Scope::Graph, base.c_str());
        m[base + "_insns"] = metric(static_cast<double>(t.work), "count");
        m[base + "_mips"] =
            metric(rate(static_cast<double>(t.work), t.selfSeconds, 1e-6),
                   "MIPS");
    }
    const LayerTotals cache = get(Scope::Graph, "replay.cache");
    m["replay.cache_refs"] =
        metric(static_cast<double>(cache.work), "count");
    m["replay.cache_ns_per_ref"] = metric(
        rate(cache.selfSeconds, static_cast<double>(cache.work), 1e9), "ns");
    m["store.get_bytes"] = metric(
        static_cast<double>(get(Scope::All, "store.get").work), "B");
    m["store.put_bytes"] = metric(
        static_cast<double>(get(Scope::All, "store.put").work), "B");
    return attributed;
}

void
addServiceMetrics(Json &m, const std::vector<Request> &stream,
                  const ServedPass &pass)
{
    std::map<RequestClass, std::vector<double>> byClass;
    double latency = 0, server = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
        byClass[stream[i].cls].push_back(pass.latencyMs[i]);
        latency += pass.latencyMs[i] * 1e-3;
        server += pass.serverWall[i];
    }
    m["service.repeat_p50_ms"] =
        metric(median(byClass[RequestClass::Repeat]), "ms");
    m["service.extend_p50_ms"] =
        metric(median(byClass[RequestClass::Extend]), "ms");
    m["service.cold_p50_ms"] =
        metric(median(byClass[RequestClass::Cold]), "ms");
    m["service.overhead_s"] = metric(latency - server, "s");
    const Json *store = pass.stats.find("store");
    m["store.hit_rate"] = metric(
        store && store->isObject() ? store->find("hitRate")->asDouble() : 0.0,
        "ratio");
}

Json
workJson(const core::sweep::SweepTiming &t, size_t jobs)
{
    Json w = Json::object();
    w["jobs"] = Json(static_cast<int64_t>(jobs));
    w["builds"] = Json(t.executedBuilds);
    w["captures"] = Json(t.capturedTraces);
    w["replayed_runs"] = Json(t.replayedRuns);
    w["sim_insns"] = Json(t.simulatedInstructions);
    return w;
}

// ----- modes ----------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    bool injectFault = false;
    bool pin = false;
    std::string revision = "unknown";
};

/** The program's set-up: the workload's job list, drawn from the seed. */
std::vector<JobSpec>
workloadJobs(const Options &opt)
{
    return opt.workload == "paper-cold" ? paperColdJobs(opt.seed)
                                        : uarchExploreJobs(opt.seed);
}

Json
classCounts(const std::vector<Request> &stream)
{
    std::map<std::string, int64_t> n;
    size_t jobs = 0;
    for (const Request &r : stream) {
        ++n[className(r.cls)];
        jobs += r.jobs.size();
    }
    Json c = Json::object();
    for (const auto &[k, v] : n)
        c[k] = Json(v);
    c["jobs"] = Json(static_cast<int64_t>(jobs));
    return c;
}

Json
tallyJson(Json rec, const Tally &tally)
{
    rec["attempted"] = Json(tally.attempted);
    rec["failed"] = Json(tally.failed);
    Json reasons = Json::array();
    for (const std::string &r : tally.reasons)
        reasons.push(Json(r));
    rec["failures"] = std::move(reasons);
    return rec;
}

Json
runE2e(const Options &opt, const std::vector<JobSpec> &jobs,
       Checker &checker, double setupSeconds)
{
    Tally tally;
    std::vector<double> walls, cpus, latencies;
    Json work = Json::array();
    double elapsed = 0;
    int passes = 0;
    while (passes == 0 || elapsed < opt.seconds) {
        EnginePass p = runEnginePass(jobs);
        ++passes;
        elapsed += p.wall;
        walls.push_back(p.wall);
        cpus.push_back(p.cpu);
        latencies.insert(latencies.end(), p.rowMs.begin(), p.rowMs.end());
        work.push(workJson(p.timing, jobs.size()));
        if (p.errored) {
            // A failed sweep settles none of its jobs.
            const auto n = static_cast<int64_t>(jobs.size());
            tally.attempted += n;
            tally.fail("sweep failed: " + p.error);
            tally.failed += n - 1;
            continue;
        }
        checkStorelessPass(opt.workload, jobs, *p.results, checker, tally);
    }

    Json metrics = Json::object();
    metrics["setup_s"] = metric(setupSeconds, "s");
    metrics["wall_s"] = metric(median(walls), "s");
    metrics["cpu_s"] = metric(median(cpus), "s");
    metrics["peak_rss_mb"] = metric(peakRssMb(), "MB");
    // Sweep start to each row landing, per job: when a figure's rows
    // exist.
    metrics["latency_p50_ms"] = metric(percentile(latencies, 50), "ms");
    metrics["latency_p90_ms"] = metric(percentile(latencies, 90), "ms");
    Json rec = Json::object();
    rec["latency_samples"] = Json(static_cast<int64_t>(latencies.size()));
    Json passWalls = Json::array();
    for (double w : walls)
        passWalls.push(Json(w));
    rec["pass_wall_s"] = std::move(passWalls);
    rec["passes"] = Json(passes);
    rec["work"] = std::move(work);
    rec["metrics"] = std::move(metrics);
    return tallyJson(std::move(rec), tally);
}

Json
runTraced(const Options &opt, const std::vector<JobSpec> &jobs,
          Checker &checker)
{
    Tally tally;
    Json metrics = Json::object();
    Json rec = Json::object();
    // The store and service layers run only behind a server, so
    // uarch-explore's traced run also serves a design-space request
    // stream: its requests carry ids >= 1 and feed the store.*,
    // service.* and trace (de)serialization metrics.
    std::vector<Request> stream;
    std::string servedRows;
    if (opt.workload == "uarch-explore") {
        stream = servedStream(opt.seed, kServedRequests);
        rec["requests"] = classCounts(stream);
        auto harness = std::make_unique<ServedHarness>();
        const ServedPass p = runServedPass(*harness, stream);
        harness.reset();
        checkServedPass(stream, p, servedReference(stream), checker, tally);
        addServiceMetrics(metrics, stream, p);
        ResultStore merged;
        for (const auto &rows : p.rows)
            for (const std::string &key : rows->keys())
                merged.put(key, rows->at(key));
        servedRows = canonicalRows(merged);
    } else {
        for (const char *name :
             {"service.repeat_p50_ms", "service.extend_p50_ms",
              "service.cold_p50_ms"})
            metrics[name] = metric(0, "ms");
        metrics["service.overhead_s"] = metric(0, "s");
        metrics["store.hit_rate"] = metric(0, "ratio");
    }

    // 1. The untraced end-to-end pass, for the sweep metrics and the
    //    reference rows.
    EnginePass e2e = runEnginePass(jobs);
    if (e2e.errored)
        fatal("sweep failed: ", e2e.error);
    checkStorelessPass(opt.workload, jobs, *e2e.results, checker, tally);
    const core::sweep::SweepTiming &t = e2e.timing;
    addSweepMetrics(metrics, t, t.threads * t.wallSeconds - t.busySeconds());
    const std::string e2eRows = canonicalRows(*e2e.results);

    // 2. The same job graph on one thread: untraced, traced, untraced.
    //    Bracketing the traced run cancels drift (warm-up, host load)
    //    out of the overhead estimate.
    const std::string dir = scratchDir() + "/graph-store";
    GraphRun before = runGraph(jobs, stream, nullptr, dir);
    Tracer tracer;
    GraphRun traced = runGraph(jobs, stream, &tracer, dir);
    GraphRun after = runGraph(jobs, stream, nullptr, dir);
    const double untracedWall = 0.5 * (before.wall + after.wall);

    // 3. Integrity: byte-identical rows, full span accounting.
    for (const GraphRun *u : {&before, &after}) {
        ++tally.attempted;
        if (canonicalRows(*u->results) != canonicalRows(*traced.results) ||
            canonicalRows(*u->servedResults) !=
                canonicalRows(*traced.servedResults))
            tally.fail("traced rows differ from untraced rows");
    }
    if (!stream.empty()) {
        ++tally.attempted;
        if (canonicalRows(*traced.servedResults) != servedRows)
            tally.fail("traced served rows differ from the served run's");
    }
    ++tally.attempted;
    if (canonicalRows(*traced.results) != e2eRows)
        tally.fail("traced rows differ from the end-to-end run's rows");

    const double attributed = addLayerMetrics(metrics, tracer);
    const double overhead = traced.wall - untracedWall;
    const double unattributed = traced.wall - attributed;
    metrics["replay.trace_bytes"] =
        metric(static_cast<double>(traced.traceBytes), "B");
    metrics["trace.wall_s"] = metric(traced.wall, "s");
    metrics["trace.untraced_wall_s"] = metric(untracedWall, "s");
    metrics["trace.overhead_s"] = metric(overhead, "s");
    metrics["trace.unattributed_s"] = metric(unattributed, "s");
    metrics["trace.spans"] =
        metric(static_cast<double>(tracer.spans().size()), "count");
    ++tally.attempted;
    if (unattributed > std::max(std::abs(overhead), 0.01 * traced.wall))
        tally.fail("per-layer metrics leave " +
                   std::to_string(unattributed) +
                   " s of the traced wall unattributed");

    const std::string spans = ".bench_run/spans/" + opt.workload + "-seed" +
                              std::to_string(opt.seed) + ".jsonl";
    writeSpans(tracer, spans);

    rec["metrics"] = std::move(metrics);
    rec["spans_file"] = Json(spans);
    return tallyJson(std::move(rec), tally);
}

/** Regenerate perfbench/pins.json: every paper-cold row's digest and
 *  the canonical sweepJson digest. Refuses to pin rows that disagree
 *  with the oracle or the repository's goldens. */
int
runPin()
{
    EnginePass p = runEnginePass(core::sweep::fullMatrix());
    if (p.errored)
        fatal("sweep failed: ", p.error);
    Json rows = Json::object();
    for (const std::string &key : p.results->keys())
        rows[key] = Json(Checker::rowDigest(p.results->at(key).json().dump()));
    Json paper = Json::object();
    paper["sweepSha256"] =
        Json(sha256Hex(core::sweep::sweepJson(*p.results, nullptr).dump()));
    paper["rows"] = std::move(rows);
    Json pins = Json::object();
    pins["schema"] = Json("perfbench-pins-v1");
    pins["paperCold"] = std::move(paper);

    const std::string path = "perfbench/pins.json";
    const std::string old = fs::exists(path) ? readText(path) : "";
    {
        std::ofstream out(path);
        out << pins.dump(2) << "\n";
    }
    Checker checker(false);
    Tally tally;
    checkStorelessPass("paper-cold", core::sweep::fullMatrix(), *p.results,
                       checker, tally);
    if (tally.failed) {
        std::ofstream(path) << old;
        for (const std::string &r : tally.reasons)
            std::fprintf(stderr, "perfbench: %s\n", r.c_str());
        fatal("pins not written: ", tally.failed, " rows disagree");
    }
    std::printf("perfbench: pinned %zu paper-cold rows\n",
                p.results->size());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload paper-cold|uarch-explore "
                 "--seed N --seconds S --trace 0|1 "
                 "[--inject-fault] [--revision R]\n"
                 "       perfbench --pin\n");
    return 2;
}

int
benchMain(int argc, char **argv)
{
    double load[1] = {0};
    if (getloadavg(load, 1) < 1)
        load[0] = -1;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", a);
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::stoull(value());
        else if (a == "--seconds")
            opt.seconds = std::stod(value());
        else if (a == "--trace")
            opt.trace = std::stoi(value());
        else if (a == "--revision")
            opt.revision = value();
        else if (a == "--inject-fault")
            opt.injectFault = true;
        else if (a == "--pin")
            opt.pin = true;
        else
            return usage();
    }
    if (opt.pin)
        return runPin();
    if (opt.workload != "paper-cold" && opt.workload != "uarch-explore")
        return usage();

    fs::create_directories(scratchDir());
    struct Cleanup
    {
        ~Cleanup()
        {
            std::error_code ec;
            fs::remove_all(scratchDir(), ec);
        }
    } cleanup;

    Checker checker(opt.injectFault);

    // Set up several times and report the median.
    std::vector<JobSpec> jobs;
    Json setupSamples = Json::array();
    std::vector<double> setupTimes;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        std::vector<JobSpec> drawn = workloadJobs(opt);
        setupTimes.push_back(secondsBetween(t0, Clock::now()));
        setupSamples.push(Json(setupTimes.back()));
        jobs = std::move(drawn); // frees the last draw outside the timer
    }

    Json rec = opt.trace ? runTraced(opt, jobs, checker)
                         : runE2e(opt, jobs, checker, median(setupTimes));
    rec["setup_samples_s"] = std::move(setupSamples);
    rec["workload"] = Json(opt.workload);
    rec["seed"] = Json(static_cast<int64_t>(opt.seed));
    rec["seconds"] = Json(opt.seconds);
    rec["trace"] = Json(opt.trace);
    rec["host"] = hostJson(opt.revision, load[0]);
    rec["correct"] = Json(rec.find("failed")->asInt() == 0);
    std::printf("%s\n", rec.dump().c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
