/**
 * @file
 * d16fuzz — differential fuzzer: MiniC reference interpreter vs the
 * full toolchain (compile + assemble + link + simulate) on all five
 * machine variants at opt levels 0-2.
 *
 *   d16fuzz                          200 seeds, all cores
 *   d16fuzz --seeds N                fuzz N seeds
 *   d16fuzz --seed-base B            first seed (default 1)
 *   d16fuzz --jobs N                 worker threads
 *   d16fuzz --corpus DIR             first replay every *.c in DIR as a
 *                                    regression gate — each program must
 *                                    agree across the oracle and all
 *                                    variants AND its dynamically
 *                                    observed block graph must be a
 *                                    subset of the statically recovered
 *                                    CFG — then fuzz; with --minimize,
 *                                    newly found divergent programs are
 *                                    written there
 *   d16fuzz --minimize               shrink each divergence before
 *                                    reporting it
 *   d16fuzz --dump SEED              print the program for one seed
 *
 * Exit status: 0 = zero divergences (and corpus replays green),
 * 1 = divergence or corpus failure, 2 = bad usage.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/xvalidate.hh"
#include "core/toolchain.hh"
#include "fuzz/fuzz.hh"
#include "mc/compiler.hh"
#include "support/cli.hh"

namespace
{

using namespace d16sim;

struct Args
{
    int seeds = 200;
    int seedBase = 1;
    int jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    bool minimize = false;
    std::string corpus;
    int dumpSeed = -1;
};

struct Finding
{
    uint64_t seed = 0;
    std::string source;
    fuzz::DiffOutcome outcome;
};

/** Static-CFG gate for one corpus program: on both base targets, the
 *  dynamically observed basic blocks and transfers must be a subset
 *  of the statically recovered CFG (exact cross-validation). Build or
 *  run limits are the differential harness's concern, not this
 *  gate's, so they are skipped silently here. */
int
cfgGate(const std::string &source, const std::string &name)
{
    int failures = 0;
    for (const auto &opts :
         {mc::CompileOptions::d16(), mc::CompileOptions::dlxe()}) {
        try {
            const assem::Image img = core::build(source, opts);
            const analysis::ImageCfg cfg = analysis::buildCfg(img);
            sim::Machine m(img);
            const analysis::PcProfile profile = analysis::profileRun(m);
            verify::DiagEngine diags;
            diags.setUnit(name + "/" + opts.name());
            if (analysis::crossValidate(cfg, profile, m.stats(), diags)) {
                ++failures;
                std::ostringstream os;
                diags.renderText(os);
                std::printf("corpus %-32s CFG GATE FAILED (%s)\n%s",
                            name.c_str(), opts.name().c_str(),
                            os.str().c_str());
            }
        } catch (const Error &) {
            // Didn't build or hit a run limit under these options.
        }
    }
    return failures;
}

/** Replay every checked-in reproducer; each must agree now. */
int
replayCorpus(const std::string &dir)
{
    namespace fs = std::filesystem;
    if (!fs::is_directory(dir)) {
        std::fprintf(stderr, "d16fuzz: corpus directory %s not found\n",
                      dir.c_str());
        return 1;
    }
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".c")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());

    int failures = 0;
    for (const fs::path &path : files) {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        const fuzz::DiffOutcome out = fuzz::runDifferential(ss.str());
        if (out.kind == fuzz::DiffKind::Agree) {
            const int cfgBad =
                cfgGate(ss.str(), path.filename().string());
            failures += cfgBad;
            if (!cfgBad)
                std::printf("corpus %-32s ok\n",
                            path.filename().c_str());
        } else {
            ++failures;
            std::printf("corpus %-32s FAILED\n  %s\n",
                        path.filename().c_str(),
                        out.detail.c_str());
        }
    }
    std::printf("corpus: %zu programs, %d failing\n", files.size(),
                failures);
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    cli::Cli cli("d16fuzz",
                 "[--seeds N] [--seed-base B] [--jobs N] [--minimize] "
                 "[--corpus DIR] [--dump SEED]");
    cli.intValue("--seeds", &args.seeds);
    cli.intValue("--seed-base", &args.seedBase);
    cli.intValue("--jobs", &args.jobs);
    cli.flag("--minimize", &args.minimize);
    cli.stringValue("--corpus", &args.corpus);
    cli.intValue("--dump", &args.dumpSeed);
    switch (cli.parse(argc, argv)) {
      case cli::CliStatus::Ok: break;
      case cli::CliStatus::Help: return 0;
      case cli::CliStatus::Error: return 2;
    }

    if (args.dumpSeed >= 0) {
        std::fputs(fuzz::generateProgram(
                       static_cast<uint64_t>(args.dumpSeed))
                       .c_str(),
                   stdout);
        return 0;
    }

    int status = 0;
    if (!args.corpus.empty())
        status = replayCorpus(args.corpus);

    if (args.seeds > 0) {
        std::atomic<int> nextIndex{0};
        std::atomic<int> agreeCount{0};
        std::atomic<int> skipCount{0};
        std::mutex mu;
        std::vector<Finding> findings;

        auto worker = [&] {
            for (;;) {
                const int i = nextIndex.fetch_add(1);
                if (i >= args.seeds)
                    return;
                const uint64_t seed =
                    static_cast<uint64_t>(args.seedBase) +
                    static_cast<uint64_t>(i);
                const std::string src = fuzz::generateProgram(seed);
                const fuzz::DiffOutcome out =
                    fuzz::runDifferential(src);
                switch (out.kind) {
                  case fuzz::DiffKind::Agree:
                    agreeCount.fetch_add(1);
                    break;
                  case fuzz::DiffKind::Skip:
                    skipCount.fetch_add(1);
                    break;
                  case fuzz::DiffKind::Divergence: {
                    std::lock_guard<std::mutex> lock(mu);
                    findings.push_back({seed, src, out});
                    break;
                  }
                }
            }
        };
        std::vector<std::thread> pool;
        const int n = std::max(1, std::min(args.jobs, args.seeds));
        pool.reserve(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();

        std::sort(findings.begin(), findings.end(),
                  [](const Finding &a, const Finding &b) {
                      return a.seed < b.seed;
                  });
        for (Finding &f : findings) {
            std::printf("seed %llu DIVERGED\n  %s\n",
                        static_cast<unsigned long long>(f.seed),
                        f.outcome.detail.c_str());
            std::string repro = f.source;
            if (args.minimize) {
                repro = fuzz::minimizeLines(
                    repro, fuzz::divergenceReproduces);
                std::printf("  minimized to %d lines\n",
                            static_cast<int>(std::count(
                                repro.begin(), repro.end(), '\n')));
            }
            if (!args.corpus.empty()) {
                const std::string path =
                    args.corpus + "/seed_" + std::to_string(f.seed) +
                    ".c";
                std::ofstream outFile(path);
                outFile << repro;
                std::printf("  wrote %s\n", path.c_str());
            } else if (args.minimize) {
                std::printf("---- reproducer ----\n%s"
                            "--------------------\n",
                            repro.c_str());
            }
        }
        std::printf(
            "fuzz: %d seeds, %d agree, %d skipped, %d divergent\n",
            args.seeds, agreeCount.load(), skipCount.load(),
            static_cast<int>(findings.size()));
        if (!findings.empty())
            status = 1;
    }
    return status;
}
