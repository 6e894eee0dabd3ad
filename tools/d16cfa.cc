/**
 * @file
 * d16cfa — whole-program binary CFG analyzer.
 *
 * Compiles workloads for the selected targets, recovers the
 * control-flow and call graphs from the *linked binaries*, and runs
 * every static pass (dominators/loops, unreachable code, register
 * dataflow, stack bounds, code-density accounting) over them.
 * Optionally re-runs each image in the simulator and cross-validates
 * the static analysis against the dynamic execution profile, exactly.
 *
 *   d16cfa                          analyze every workload, both targets
 *   d16cfa perm queens              specific workloads
 *   d16cfa --isa d16 --opt 0        one target, unoptimized code
 *   d16cfa --smoke                  the sweep's smoke matrix (all five
 *                                   paper variants incl. restricted DLXe)
 *   d16cfa --cross-validate         also simulate + check static vs dynamic
 *   d16cfa --json                   diagnostics + summaries as JSON
 *   d16cfa --cfg out.dot perm       CFG DOT export (one workload/target)
 *   d16cfa --calls out.dot perm     call-graph DOT export
 *   d16cfa --jobs N                 analysis worker threads
 *
 * Exit status: 0 = clean, 1 = findings reported, 2 = bad usage or
 * build failure.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.hh"
#include "analysis/dot.hh"
#include "analysis/xvalidate.hh"
#include "asm/assembler.hh"
#include "core/sweep/sweep.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "mc/compiler.hh"
#include "support/cli.hh"
#include "support/json.hh"

namespace
{

using namespace d16sim;

struct Args
{
    std::vector<std::string> workloads;  //!< empty = all
    bool d16 = true;
    bool dlxe = true;
    int optLevel = 2;
    bool smoke = false;
    bool json = false;
    bool crossValidate = false;
    std::string cfgDot;    //!< write CFG DOT here ("-" = stdout)
    std::string callsDot;  //!< write call-graph DOT here
    int jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
};

/** One (workload, variant) analysis unit and everything it produced. */
struct Unit
{
    const core::Workload *workload = nullptr;
    mc::CompileOptions opts;
    std::string name;  //!< "<workload>/<variant>"

    verify::DiagEngine diags;
    analysis::AnalysisResult result;
    std::unique_ptr<assem::Image> image;  //!< cfg points into this
    bool built = false;
    bool validated = false;  //!< cross-validation ran
};

/** Build + analyze (+ optionally simulate and cross-validate) one
 *  unit. Returns false on a build failure. */
bool
analyzeUnit(Unit &u, const Args &args)
{
    u.diags.setUnit(u.name);
    try {
        const mc::CompileOptions &opts = u.opts;
        mc::CompileResult comp = mc::compile(u.workload->source, opts);
        assem::Assembler as(opts.target());
        as.add(std::move(comp.items));
        u.image = std::make_unique<assem::Image>(as.link());
        u.result = analysis::analyzeImage(*u.image, u.diags,
                                          analysis::Abi::from(opts));
        if (args.crossValidate) {
            // The observed block graph must be a subset of the static
            // CFG, and the per-site counts must add up exactly.
            sim::Machine m(*u.image);
            const analysis::PcProfile profile = analysis::profileRun(m);
            u.result.findings += analysis::crossValidate(
                u.result.cfg, profile, m.stats(), u.diags);
            u.validated = true;
        }
    } catch (const Error &e) {
        std::fprintf(stderr, "d16cfa: %s: build failed: %s\n",
                     u.name.c_str(), e.what());
        return false;
    }
    u.built = true;
    return true;
}

Json
unitJson(const Unit &u)
{
    Json j = Json::object();
    j["unit"] = u.name;
    std::ostringstream os;
    u.result.renderJson(os);
    j["summary"] = Json::parse(os.str());
    Json diags = Json::array();
    std::ostringstream ds;
    u.diags.renderJson(ds);
    j["diags"] = Json::parse(ds.str());
    j["crossValidated"] = u.validated;
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    cli::Cli parser(
        "d16cfa",
        "[--isa d16|dlxe|both] [--opt 0|1|2] [--smoke]\n"
        "       [--cross-validate] [--json] [--cfg FILE|-] "
        "[--calls FILE|-]\n"
        "       [--jobs N] [--list] [workload...]");
    parser.value("--isa", [&](const std::string &v) {
        args.d16 = v == "d16" || v == "both";
        args.dlxe = v == "dlxe" || v == "both";
        return args.d16 || args.dlxe;
    });
    parser.intValue("--opt", &args.optLevel);
    parser.flag("--smoke", &args.smoke);
    parser.flag("--json", &args.json);
    parser.flag("--cross-validate", &args.crossValidate);
    parser.stringValue("--cfg", &args.cfgDot);
    parser.stringValue("--calls", &args.callsDot);
    parser.intValue("--jobs", &args.jobs);
    parser.flag("--list", [] {
        for (const core::Workload &w : core::workloadSuite())
            std::printf("%s\n", w.name.c_str());
        std::exit(0);
    });
    parser.positionals(&args.workloads);
    switch (parser.parse(argc, argv)) {
      case cli::CliStatus::Help: return 0;
      case cli::CliStatus::Error: return 2;
      case cli::CliStatus::Ok: break;
    }
    args.jobs = std::max(1, args.jobs);

    std::vector<std::unique_ptr<Unit>> units;
    try {
        auto wanted = [&](const std::string &name) {
            return args.workloads.empty() ||
                   std::find(args.workloads.begin(), args.workloads.end(),
                             name) != args.workloads.end();
        };
        for (const std::string &name : args.workloads)
            core::workload(name);  // validate up front
        if (args.smoke) {
            // The golden-regression matrix: every workload under all
            // five paper variants, at each variant's own settings.
            for (core::sweep::JobSpec &j : core::sweep::smokeBaseMatrix()) {
                if (!wanted(j.workload))
                    continue;
                auto u = std::make_unique<Unit>();
                u->workload = &core::workload(j.workload);
                u->opts = j.opts;
                u->name =
                    j.workload + "/" + core::sweep::variantKey(j.opts);
                units.push_back(std::move(u));
            }
        } else {
            for (const core::Workload &w : core::workloadSuite()) {
                if (!wanted(w.name))
                    continue;
                for (auto opts : {mc::CompileOptions::d16(),
                                  mc::CompileOptions::dlxe()}) {
                    if (opts.isa == isa::IsaKind::D16 ? !args.d16
                                                      : !args.dlxe)
                        continue;
                    opts.optLevel = args.optLevel;
                    auto u = std::make_unique<Unit>();
                    u->workload = &w;
                    u->opts = opts;
                    u->name = w.name + "/" + opts.name();
                    units.push_back(std::move(u));
                }
            }
        }
    } catch (const Error &e) {
        std::fprintf(stderr, "d16cfa: %s\n", e.what());
        return 2;
    }

    if ((!args.cfgDot.empty() || !args.callsDot.empty()) &&
        units.size() != 1) {
        std::fprintf(stderr,
                     "d16cfa: --cfg/--calls need exactly one unit "
                     "(got %zu): name one workload and one --isa\n",
                     units.size());
        return 2;
    }

    // Analyze in parallel; report in deterministic unit order below.
    std::atomic<size_t> next{0};
    std::atomic<bool> buildFailed{false};
    auto worker = [&] {
        for (size_t i = next.fetch_add(1); i < units.size();
             i = next.fetch_add(1)) {
            if (!analyzeUnit(*units[i], args))
                buildFailed = true;
        }
    };
    std::vector<std::thread> pool;
    const int threads =
        std::min<size_t>(args.jobs, units.size() ? units.size() : 1);
    for (int t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();

    // DOT export (single unit by construction).
    if (!args.cfgDot.empty() || !args.callsDot.empty()) {
        const Unit &u = *units[0];
        if (!u.built)
            return 2;
        auto dump = [&](const std::string &path, auto writer) {
            if (path.empty())
                return true;
            if (path == "-") {
                writer(u.result.cfg, std::cout);
                return true;
            }
            std::ofstream out(path);
            if (!out) {
                std::fprintf(stderr, "d16cfa: cannot write %s\n",
                             path.c_str());
                return false;
            }
            writer(u.result.cfg, out);
            return true;
        };
        if (!dump(args.cfgDot, analysis::writeCfgDot) ||
            !dump(args.callsDot, analysis::writeCallGraphDot))
            return 2;
    }

    int errors = 0, warnings = 0, notes = 0, findings = 0;
    if (args.json) {
        Json doc = Json::array();
        for (const auto &u : units)
            if (u->built)
                doc.push(unitJson(*u));
        std::cout << doc.dump(2) << "\n";
    } else {
        for (const auto &u : units) {
            if (!u->built)
                continue;
            std::printf("%s:%s\n", u->name.c_str(),
                        u->validated ? " (cross-validated)" : "");
            std::ostringstream os;
            u->result.renderText(os);
            std::fputs(os.str().c_str(), stdout);
            u->diags.renderText(std::cout);
        }
    }
    for (const auto &u : units) {
        errors += u->diags.errors();
        warnings += u->diags.warnings();
        notes += u->diags.notes();
        findings += u->diags.failures();
    }
    std::fprintf(stderr,
                 "d16cfa: %zu units, %d errors, %d warnings, %d notes%s\n",
                 units.size(), errors, warnings, notes,
                 args.crossValidate ? " (cross-validated)" : "");

    if (buildFailed)
        return 2;
    return findings ? 1 : 0;
}
