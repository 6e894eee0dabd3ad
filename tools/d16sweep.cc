/**
 * @file
 * d16sweep — run the experiment matrix on the parallel sweep engine.
 *
 * Executes the deduplicated (workload x variant x memory-config) job
 * graph behind the paper's figures, one build node per worker task on
 * a fixed number of threads, and emits every raw metric the §4
 * formulas consume as canonical JSON.
 *
 *   d16sweep --jobs 8                      full matrix, 8 workers
 *   d16sweep --smoke                       golden-regression matrix
 *   d16sweep --uarch-matrix                microarchitectural sweep
 *                                          (DESIGN.md §16: forwarding,
 *                                          branch prediction, depth)
 *   d16sweep --workloads perm,queens       filter by workload
 *   d16sweep --variants D16,DLXe/32/3      filter by variant key
 *   d16sweep --json sweep.json             write the document (- = stdout)
 *   d16sweep --no-timing                   byte-comparable output only
 *   d16sweep --no-replay                   re-simulate every job (A/B
 *                                          check of the trace-replay path)
 *   d16sweep --no-block-engine             dispatch per instruction (A/B
 *                                          check of the block engine)
 *   d16sweep --golden FILE                 compare against a golden file
 *   d16sweep --list                        print the selected job keys
 *
 * Persistent artifact store (DESIGN.md §15):
 *
 *   d16sweep --store DIR                   reuse + fill a content-addressed
 *                                          store: a warm sweep executes
 *                                          zero builds and zero runs
 *   d16sweep --no-store                    ignore --store (A/B leg)
 *   d16sweep --assert-warm                 fail unless the sweep was fully
 *                                          served from the store
 *   d16sweep --store DIR --store-stats     print entry counts, bytes, and
 *                                          this process's hit rates; no sweep
 *   d16sweep --store DIR --gc              drop entries not referenced by
 *                                          the selected matrix; no sweep
 *
 * Served mode (d16sweepd):
 *
 *   d16sweep --connect SOCK                run the matrix on a d16sweepd
 *                                          server; rows stream back and the
 *                                          emitted JSON is byte-identical
 *                                          to a local run ("timing" is the
 *                                          server's)
 *   d16sweep --connect SOCK --store-stats  print the server's stats
 *   d16sweep --connect SOCK --shutdown     stop the server
 *
 * The results section is canonical (sorted keys, counters only, no
 * timestamps): two runs over the same matrix produce byte-identical
 * JSON whatever --jobs is, which is what the golden regression suite
 * (tests/sweep_test.cc, tests/golden/sweep_golden.json) pins. Timing
 * lives in a separate "timing" section (dropped by --no-timing) and
 * in the stderr summary; its speedup line — busy seconds over wall
 * seconds — is the engine's own parallelism measurement, its
 * thread-cpu line ends with the process's peak resident set, and its
 * rows-landed line gives the p50 and p90 of when the rows landed,
 * from the sweep's start.
 *
 * Exit status: 0 = swept (and matched the golden file, if given),
 * 1 = golden mismatch, 2 = bad usage or build failure.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/service/client.hh"
#include "core/store/store.hh"
#include "core/sweep/artifacts.hh"
#include "core/sweep/sweep.hh"
#include "core/workloads.hh"
#include "support/cli.hh"
#include "support/error.hh"

namespace
{

using namespace d16sim;
using namespace d16sim::core;

struct Args
{
    int jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    bool smoke = false;
    bool uarchMatrix = false;
    bool timing = true;
    bool replay = true;
    bool blockEngine = true;
    bool list = false;
    std::vector<std::string> workloads;  //!< empty = all
    std::vector<std::string> variants;   //!< empty = all
    std::string jsonPath;                //!< empty = no JSON output
    std::string goldenPath;              //!< empty = no comparison
    std::string storeDir;                //!< empty = no artifact store
    bool noStore = false;                //!< A/B: ignore --store
    bool storeStats = false;
    bool gc = false;
    bool assertWarm = false;
    std::string connectPath;             //!< empty = run locally
    bool shutdownServer = false;
};

/** Keep only jobs matching the workload/variant filters. */
std::vector<sweep::JobSpec>
filtered(std::vector<sweep::JobSpec> jobs, const Args &args)
{
    if (!args.workloads.empty()) {
        // Validate the names up front for a friendly error.
        for (const std::string &name : args.workloads)
            workload(name);
    }
    // Normalize variant filters through the parser so "dlxe/32/3"
    // matches "DLXe/32/3".
    std::set<std::string> variantKeys;
    for (const std::string &v : args.variants)
        variantKeys.insert(sweep::variantKey(sweep::parseVariant(v)));

    std::vector<sweep::JobSpec> out;
    for (sweep::JobSpec &j : jobs) {
        if (!args.workloads.empty() &&
            std::find(args.workloads.begin(), args.workloads.end(),
                      j.workload) == args.workloads.end())
            continue;
        if (!variantKeys.empty() &&
            !variantKeys.count(sweep::variantKey(j.opts)))
            continue;
        out.push_back(std::move(j));
    }
    return out;
}

/** The process's peak resident set so far (getrusage ru_maxrss). */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    cli::Cli parser("d16sweep",
                    "[--jobs N] [--smoke] [--uarch-matrix]\n"
                    "       [--workloads a,b,...]\n"
                    "       [--variants D16,DLXe/32/3,...] [--json FILE|-]\n"
                    "       [--no-timing] [--no-replay] [--no-block-engine]\n"
                    "       [--golden FILE] [--list]\n"
                    "       [--store DIR] [--no-store] [--assert-warm]\n"
                    "       [--store-stats] [--gc]\n"
                    "       [--connect SOCK] [--shutdown]");
    parser.value("--jobs", [&](const std::string &v) {
        args.jobs = std::max(1, std::atoi(v.c_str()));
        return true;
    });
    parser.flag("--smoke", &args.smoke);
    parser.flag("--uarch-matrix", &args.uarchMatrix);
    parser.value("--workloads", [&](const std::string &v) {
        args.workloads = cli::csvList(v);
        return true;
    });
    parser.value("--variants", [&](const std::string &v) {
        args.variants = cli::csvList(v);
        return true;
    });
    parser.stringValue("--json", &args.jsonPath);
    parser.flag("--no-timing", [&] { args.timing = false; });
    parser.flag("--no-replay", [&] { args.replay = false; });
    parser.flag("--no-block-engine", [&] { args.blockEngine = false; });
    parser.stringValue("--golden", &args.goldenPath);
    parser.flag("--list", &args.list);
    parser.stringValue("--store", &args.storeDir);
    parser.flag("--no-store", &args.noStore);
    parser.flag("--store-stats", &args.storeStats);
    parser.flag("--gc", &args.gc);
    parser.flag("--assert-warm", &args.assertWarm);
    parser.stringValue("--connect", &args.connectPath);
    parser.flag("--shutdown", &args.shutdownServer);
    switch (parser.parse(argc, argv)) {
      case cli::CliStatus::Help: return 0;
      case cli::CliStatus::Error: return 2;
      case cli::CliStatus::Ok: break;
    }

    try {
        if (args.noStore)
            args.storeDir.clear();

        std::vector<sweep::JobSpec> jobs = filtered(
            args.uarchMatrix ? sweep::uarchSmokeMatrix()
            : args.smoke     ? sweep::smokeMatrix()
                             : sweep::fullMatrix(),
            args);
        if (args.list) {
            std::set<std::string> keys;
            for (const sweep::JobSpec &j : jobs)
                keys.insert(sweep::jobKey(j));
            for (const std::string &k : keys)
                std::printf("%s\n", k.c_str());
            return 0;
        }

        // Server maintenance commands; no sweep.
        if (!args.connectPath.empty() && args.shutdownServer) {
            service::SweepClient(args.connectPath).shutdown();
            std::fprintf(stderr, "d16sweep: server at %s shut down\n",
                         args.connectPath.c_str());
            return 0;
        }
        if (!args.connectPath.empty() && args.storeStats) {
            std::cout
                << service::SweepClient(args.connectPath).stats().dump(2)
                << "\n";
            return 0;
        }

        // Store maintenance commands; no sweep. --gc keeps exactly
        // what the *selected* matrix (after filters) references.
        if (args.storeStats || args.gc) {
            if (args.storeDir.empty())
                fatal("--store-stats/--gc require --store DIR");
            store::ArtifactStore artifacts(args.storeDir);
            if (args.gc) {
                const store::ArtifactStore::GcResult r =
                    artifacts.gc(sweep::liveKeys(jobs));
                std::fprintf(
                    stderr,
                    "d16sweep: gc kept %llu entries, removed %llu "
                    "(%llu bytes freed)\n",
                    static_cast<unsigned long long>(r.kept),
                    static_cast<unsigned long long>(r.removed),
                    static_cast<unsigned long long>(r.bytesFreed));
            }
            if (args.storeStats) {
                Json j = artifacts.scan().json();
                const store::StoreCounters c = artifacts.counters();
                Json counters = Json::object();
                counters["hits"] = Json(c.hits);
                counters["misses"] = Json(c.misses);
                counters["puts"] = Json(c.puts);
                counters["corrupt"] = Json(c.corrupt);
                counters["hitRate"] = Json(c.hitRate());
                j["counters"] = std::move(counters);
                std::cout << j.dump(2) << "\n";
            }
            return 0;
        }

        sweep::ResultStore store;
        Json doc;
        if (!args.connectPath.empty()) {
            // Served mode: the server does every build/run; rows
            // stream back and are re-emitted canonically, so the
            // document is byte-identical to a local sweep. The
            // timing section (if kept) is the server's.
            service::SweepClient client(args.connectPath);
            const Json timing =
                client.sweep(jobs, store, args.replay, args.blockEngine);
            std::fprintf(stderr,
                         "d16sweep: %zu rows served by d16sweepd at %s\n",
                         store.size(), args.connectPath.c_str());
            doc = sweep::sweepJson(store, nullptr);
            if (args.timing)
                doc["timing"] = timing;
        } else {
            std::unique_ptr<store::ArtifactStore> artifacts;
            if (!args.storeDir.empty())
                artifacts = std::make_unique<store::ArtifactStore>(
                    args.storeDir);
            sweep::SweepEngine engine(store, args.jobs);
            engine.setReplay(args.replay);
            engine.setBlockEngine(args.blockEngine);
            engine.setArtifacts(artifacts.get());
            engine.add(std::move(jobs));
            engine.run();

            const sweep::SweepTiming &t = engine.timing();
            std::fprintf(
                stderr,
                "d16sweep: %d runs (%d builds, %d deduped, %d "
                "replayed from %d traces, %d slices retimed) on %d "
                "threads\n"
                "d16sweep: wall %.2fs, busy %.2fs (build %.2fs + "
                "simulate %.2fs + replay %.2fs), speedup %.2fx\n"
                "d16sweep: thread cpu: build %.2fs, simulate %.2fs, "
                "replay %.2fs; peak rss %.1f MB\n"
                "d16sweep: %llu instructions simulated, %.1f MIPS\n"
                "d16sweep: rows landed p50 %.2fs, p90 %.2fs\n",
                t.executedRuns, t.executedBuilds, t.dedupedRuns,
                t.replayedRuns, t.capturedTraces, t.retimedSlices,
                t.threads,
                t.wallSeconds, t.busySeconds(), t.buildSeconds,
                t.simulateSeconds, t.replaySeconds, t.speedup(),
                t.buildCpuSeconds, t.simulateCpuSeconds,
                t.replayCpuSeconds, peakRssMb(),
                static_cast<unsigned long long>(t.simulatedInstructions),
                t.simMips(), t.rowLandedSeconds(50), t.rowLandedSeconds(90));
            if (artifacts) {
                const store::StoreCounters c = artifacts->counters();
                std::fprintf(
                    stderr,
                    "d16sweep: store %s: %d result hits, %d image "
                    "hits, %d trace hits, %d misses (%.0f%% hit rate)\n",
                    args.storeDir.c_str(), t.storeResultHits,
                    t.storeImageHits, t.storeTraceHits, t.storeMisses,
                    100.0 * c.hitRate());
            }
            if (args.assertWarm &&
                (t.executedBuilds || t.executedRuns || t.capturedTraces)) {
                std::fprintf(
                    stderr,
                    "d16sweep: --assert-warm failed: %d builds, %d "
                    "runs, %d captures were not served from the store\n",
                    t.executedBuilds, t.executedRuns, t.capturedTraces);
                return 1;
            }
            doc = sweep::sweepJson(store, args.timing ? &t : nullptr);
        }
        if (!args.jsonPath.empty()) {
            if (args.jsonPath == "-") {
                std::cout << doc.dump(2) << "\n";
            } else {
                std::ofstream out(args.jsonPath);
                if (!out)
                    fatal("cannot write ", args.jsonPath);
                out << doc.dump(2) << "\n";
                std::fprintf(stderr, "d16sweep: wrote %s (%zu jobs)\n",
                             args.jsonPath.c_str(), store.size());
            }
        }

        if (!args.goldenPath.empty()) {
            std::ifstream in(args.goldenPath);
            if (!in)
                fatal("cannot read ", args.goldenPath);
            std::ostringstream text;
            text << in.rdbuf();
            const Json golden = Json::parse(text.str());
            std::string diff;
            if (!sweep::compareSweeps(doc, golden, &diff)) {
                std::fprintf(stderr,
                             "d16sweep: golden mismatch vs %s:\n%s",
                             args.goldenPath.c_str(), diff.c_str());
                return 1;
            }
            std::fprintf(stderr, "d16sweep: matches golden %s\n",
                         args.goldenPath.c_str());
        }
    } catch (const Error &e) {
        std::fprintf(stderr, "d16sweep: %s\n", e.what());
        return 2;
    }
    return 0;
}
