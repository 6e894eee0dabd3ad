#include "graph.hh"

#include <map>
#include <memory>

#include "asm/assembler.hh"
#include "core/replay/replay.hh"
#include "core/replay/trace.hh"
#include "core/sweep/artifacts.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "mc/compiler.hh"
#include "support/error.hh"

namespace perfbench
{

using namespace d16sim;
using core::sweep::JobResult;
using core::sweep::JobSpec;
using core::sweep::ProbeKind;
namespace store = core::store;

struct GraphRunner::Node
{
    std::vector<JobSpec> runs;
};

namespace
{

/** core::build() split at the mc/asm boundary. Builds that verify or
 *  validate (debug builds, or options asking for it) run the checks
 *  inside core::build(), so they are timed as one compile span. */
assem::Image
buildImage(const JobSpec &spec, Tracer *tracer)
{
    const std::string &source = core::workload(spec.workload).source;
#ifdef NDEBUG
    const bool plain = !spec.opts.verifyEach && !spec.opts.validateEach;
#else
    const bool plain = false;
#endif
    if (!plain) {
        Span s(tracer, "mc.compile");
        return core::build(source, spec.opts);
    }
    mc::CompileResult comp;
    {
        Span s(tracer, "mc.compile");
        comp = mc::compile(source, spec.opts);
    }
    Span s(tracer, "asm.link");
    assem::Assembler as(spec.opts.target());
    as.add(std::move(comp.items));
    return as.link();
}

/** Which simulator path a direct run takes: the block engine only for
 *  a probe-less run on the default machine with a block program (the
 *  Machine demotes everything else to step()). */
const char *
directRunSpan(const JobSpec &spec, bool haveBlocks)
{
    return spec.probe == ProbeKind::None && spec.uarch.isDefault() &&
                   haveBlocks
               ? "sim.run"
               : "sim.step";
}

/** core::sweep::replayJob(), one span per replay evaluator. */
JobResult
replayTraced(const JobSpec &spec, const core::replay::Trace &trace,
             Tracer *tracer)
{
    JobResult r;
    r.probe = spec.probe;
    r.uarch = spec.uarch;
    r.run = trace.base;
    {
        Span s(tracer, "replay.branch");
        const core::replay::BranchReplayStats bs =
            core::replay::branchStatsFor(trace, spec.uarch);
        r.run.stats.branchStalls = bs.branchStalls;
        r.run.stats.mispredicts = bs.mispredicts;
    }
    switch (spec.probe) {
      case ProbeKind::FetchBuffer: {
        Span s(tracer, "replay.fetch");
        r.fetch.busBytes = spec.busBytes;
        r.fetch.requests =
            core::replay::replayFetchRequests(trace, spec.busBytes);
        r.fetch.words = r.fetch.requests * (spec.busBytes / 4);
        break;
      }
      case ProbeKind::CacheSim: {
        Span s(tracer, "replay.cache");
        s.addWork(trace.fetchCount() + trace.accesses.size());
        r.icacheCfg = spec.icache;
        r.dcacheCfg = spec.dcache;
        const auto stats =
            core::replay::replayCache(trace, spec.icache, spec.dcache);
        r.icache = stats.first;
        r.dcache = stats.second;
        break;
      }
      default:
        break;
    }
    return r;
}

} // namespace

bool
GraphRunner::storeGet(store::Kind kind, const std::string &key,
                      std::vector<uint8_t> *bytes)
{
    Span s(tracer_, "store.get");
    const bool hit = artifacts_->get(kind, key, bytes);
    if (hit)
        s.addWork(bytes->size());
    return hit;
}

void
GraphRunner::storePut(store::Kind kind, const std::string &key,
                      const std::vector<uint8_t> &bytes)
{
    Span s(tracer_, "store.put");
    s.addWork(bytes.size());
    artifacts_->put(kind, key, bytes);
}

void
GraphRunner::commit(const std::string &key, const JobSpec &spec,
                    JobResult result)
{
    Span s(tracer_, "sweep.commit");
    const JobResult &stored = results_.put(key, std::move(result));
    if (artifacts_) {
        std::string contentKey;
        {
            Span k(tracer_, "store.key");
            contentKey = core::sweep::jobContentKey(spec);
        }
        std::vector<uint8_t> bytes;
        {
            Span e(tracer_, "store.encode");
            bytes = core::sweep::resultBytes(stored);
        }
        storePut(store::Kind::Result, contentKey, bytes);
    }
    if (onResult_)
        onResult_(key, stored);
}

void
GraphRunner::run(std::vector<JobSpec> jobs)
{
    Span runSpan(tracer_, "sweep.run");
    std::map<std::string, JobSpec> unique;
    {
        Span s(tracer_, "sweep.plan");
        for (JobSpec &spec : jobs) {
            std::string key = core::sweep::jobKey(spec);
            if (!results_.contains(key))
                unique.emplace(std::move(key), std::move(spec));
        }
    }

    if (artifacts_) {
        for (auto it = unique.begin(); it != unique.end();) {
            std::string contentKey;
            {
                Span k(tracer_, "store.key");
                contentKey = core::sweep::jobContentKey(it->second);
            }
            std::vector<uint8_t> bytes;
            bool loaded = false;
            JobResult row;
            if (storeGet(store::Kind::Result, contentKey, &bytes)) {
                Span s(tracer_, "store.decode");
                try {
                    row = core::sweep::resultFromBytes(bytes);
                    loaded = true;
                } catch (const Error &) {
                }
            }
            if (loaded) {
                Span s(tracer_, "sweep.commit");
                const JobResult &stored =
                    results_.put(it->first, std::move(row));
                if (onResult_)
                    onResult_(it->first, stored);
                it = unique.erase(it);
            } else {
                ++it;
            }
        }
    }

    std::map<std::string, Node> graph;
    {
        Span s(tracer_, "sweep.plan");
        for (auto &[key, spec] : unique)
            graph[core::sweep::buildKey(spec)].runs.push_back(
                std::move(spec));
    }
    for (auto &[bkey, node] : graph)
        runNode(node);
}

void
GraphRunner::runNode(Node &node)
{
    // Declared first, so it also times the node's teardown (freeing
    // its trace and image) as sweep bookkeeping.
    Span nodeSpan(tracer_, "sweep.node");
    const JobSpec *baseSpec = nullptr;
    int totalReplayable = 0;
    bool anyDirectProbe = false;
    for (const JobSpec &spec : node.runs) {
        if (spec.probe == ProbeKind::None && !baseSpec)
            baseSpec = &spec;
        if (core::sweep::replayable(spec))
            ++totalReplayable;
        else
            anyDirectProbe = true;
    }

    std::string contentKey;
    if (artifacts_) {
        Span k(tracer_, "store.key");
        contentKey = core::sweep::buildContentKey(node.runs.front());
    }

    std::shared_ptr<const core::replay::Trace> trace;
    if (artifacts_ && totalReplayable >= 1) {
        std::vector<uint8_t> bytes;
        if (storeGet(store::Kind::Trace, contentKey, &bytes)) {
            Span s(tracer_, "replay.deserialize");
            try {
                trace = std::make_shared<const core::replay::Trace>(
                    core::replay::Trace::deserialize(bytes));
            } catch (const Error &) {
                trace = nullptr;
            }
        }
    }
    const bool capture = !trace && totalReplayable >= 2;

    std::shared_ptr<const assem::Image> image;
    std::shared_ptr<const sim::DecodedText> predecoded;
    std::shared_ptr<const sim::BlockProgram> blocks;
    if (!trace || anyDirectProbe) {
        bool compiled = false;
        if (artifacts_) {
            std::vector<uint8_t> bytes;
            if (storeGet(store::Kind::Image, contentKey, &bytes)) {
                Span s(tracer_, "store.decode");
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
                buildImage(node.runs.front(), tracer_));
            compiled = true;
            if (artifacts_) {
                std::vector<uint8_t> bytes;
                {
                    Span s(tracer_, "store.encode");
                    bytes = image->serialize();
                }
                storePut(store::Kind::Image, contentKey, bytes);
            }
        }
        {
            Span s(tracer_, "sim.predecode");
            predecoded = std::make_shared<const sim::DecodedText>(*image);
        }
        sim::BlockTable table;
        bool haveTable = false;
        if (artifacts_ && !compiled) {
            std::vector<uint8_t> bytes;
            if (storeGet(store::Kind::Meta, contentKey, &bytes)) {
                Span s(tracer_, "store.decode");
                try {
                    table = core::sweep::blockTableFromBytes(bytes);
                    haveTable = true;
                } catch (const Error &) {
                }
            }
        }
        if (!haveTable) {
            {
                Span s(tracer_, "analysis.cfg_recover");
                table = core::recoverBlockTable(*image);
            }
            if (artifacts_) {
                std::vector<uint8_t> bytes;
                {
                    Span s(tracer_, "store.encode");
                    bytes = core::sweep::blockTableBytes(table);
                }
                storePut(store::Kind::Meta, contentKey, bytes);
            }
        }
        Span s(tracer_, "sim.block_translate");
        blocks = core::makeBlockProgram(*image, predecoded, table);
    }

    auto direct = [&](const JobSpec &spec) {
        JobResult r;
        {
            Span s(tracer_, directRunSpan(spec, blocks != nullptr));
            r = core::sweep::executeJob(spec, *image, predecoded, blocks);
            s.addWork(r.run.stats.instructions);
        }
        commit(core::sweep::jobKey(spec), spec, std::move(r));
    };
    auto replayed = [&](const JobSpec &spec,
                        const core::replay::Trace &t) {
        commit(core::sweep::jobKey(spec), spec,
               replayTraced(spec, t, tracer_));
    };

    if (trace) {
        for (const JobSpec &spec : node.runs) {
            if (core::sweep::replayable(spec))
                replayed(spec, *trace);
            else
                direct(spec);
        }
        return;
    }
    if (!capture) {
        for (const JobSpec &spec : node.runs)
            direct(spec);
        return;
    }

    sim::MachineConfig captureCfg;
    captureCfg.uarch = node.runs.front().uarch.captureConfig();
    std::shared_ptr<const core::replay::Trace> captured;
    {
        // A non-default capture slice demotes the Machine to step().
        Span s(tracer_,
               captureCfg.uarch.isDefault() ? "sim.capture" : "sim.step");
        captured = std::make_shared<const core::replay::Trace>(
            core::replay::capture(*image, predecoded, captureCfg, blocks));
        s.addWork(captured->base.stats.instructions);
    }
    traceBytes_ += captured->runs.size() * sizeof(core::replay::FetchRun) +
                   captured->accesses.size() *
                       sizeof(core::replay::DataAccess) +
                   captured->outcomes.size() *
                       sizeof(core::replay::BranchOutcome);
    if (artifacts_) {
        std::vector<uint8_t> bytes;
        {
            Span s(tracer_, "replay.serialize");
            bytes = captured->serialize();
        }
        storePut(store::Kind::Trace, contentKey, bytes);
    }
    if (baseSpec)
        replayed(*baseSpec, *captured);
    for (const JobSpec &spec : node.runs) {
        if (&spec == baseSpec)
            continue;
        if (core::sweep::replayable(spec))
            replayed(spec, *captured);
        else
            direct(spec);
    }
}

} // namespace perfbench
