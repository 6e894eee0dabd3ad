/**
 * @file
 * d16timing — static pipeline-timing analyzer, cross-validated against
 * the simulator.
 *
 * Compiles workloads for the selected targets, recovers the CFG from
 * each *linked binary*, and runs the abstract-interpretation timing
 * pass (analysis/timing.hh): per-site hazard classification (load-use
 * interlocks, math-unit busy stalls, branch bubbles, fetch-buffer
 * refills), per-block static cycle costs, and loop-aware whole-program
 * best/worst base-cycle bounds. Reports the stall hotspots — the
 * blocks with the highest static stall density — for the D16 and DLXe
 * encodings side by side, plus the scheduler feedback (load-use
 * interlocks the final image retains that an in-block move could have
 * hidden). With --cross-validate every image is also simulated into a
 * per-PC profile (analysis::profileRun) and the dynamic stalls are
 * checked, exactly, against the static classification.
 *
 *   d16timing                         analyze every workload, both targets
 *   d16timing perm queens             specific workloads
 *   d16timing --isa d16 --opt 0       one target, unoptimized code
 *   d16timing --smoke                 the sweep's smoke matrix (all five
 *                                     paper variants)
 *   d16timing --cross-validate        also simulate + check static vs dynamic
 *   d16timing --notes                 per-site tim-* hazard notes
 *   d16timing --top N                 hotspot rows per unit (default 3)
 *   d16timing --bus N                 fetch-buffer width in bytes (default 4)
 *   d16timing --uarch SPEC            non-default microarchitecture
 *                                     ("fwd=on,bp=bimodal6,depth=7");
 *                                     the analysis and the
 *                                     cross-validated machine both
 *                                     follow it
 *   d16timing --json                  summaries + diagnostics as JSON
 *   d16timing --jobs N                analysis worker threads
 *
 * Exit status: 0 = clean, 1 = findings reported, 2 = bad usage or
 * build failure.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/timing.hh"
#include "asm/assembler.hh"
#include "core/sweep/sweep.hh"
#include "core/toolchain.hh"
#include "core/workloads.hh"
#include "mc/compiler.hh"
#include "support/cli.hh"
#include "support/json.hh"
#include "support/table.hh"

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
    bool notes = false;
    int top = 3;
    int bus = 4;
    sim::UarchConfig uarch;
    int jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
};

/** One (workload, variant) timing unit and everything it produced. */
struct Unit
{
    const core::Workload *workload = nullptr;
    mc::CompileOptions opts;
    std::string name;     //!< "<workload>/<variant>"
    std::string variant;  //!< the variant segment alone

    verify::DiagEngine diags;
    std::unique_ptr<assem::Image> image;
    std::unique_ptr<analysis::ImageCfg> cfg;  //!< timing points into this
    analysis::TimingResult timing;
    mc::SchedFeedback feedback;
    int findings = 0;
    bool built = false;
    bool validated = false;
};

bool
analyzeUnit(Unit &u, const Args &args)
{
    u.diags.setUnit(u.name);
    try {
        mc::CompileResult comp = mc::compile(u.workload->source, u.opts);
        assem::Assembler as(u.opts.target());
        as.add(std::move(comp.items));
        u.image = std::make_unique<assem::Image>(as.link());
        u.cfg = std::make_unique<analysis::ImageCfg>(
            analysis::buildCfg(*u.image));
        analysis::TimingOptions topts;
        topts.busBytes = static_cast<uint32_t>(args.bus);
        topts.siteDiags = args.notes;
        topts.uarch = args.uarch;
        u.timing = analysis::analyzeTiming(*u.cfg, u.diags, topts);
        u.feedback = analysis::schedFeedback(u.timing, u.diags);
        if (args.crossValidate) {
            sim::MachineConfig mcfg;
            mcfg.uarch = args.uarch;
            sim::Machine m(*u.image, mcfg);
            const analysis::PcProfile profile = analysis::profileRun(m);
            u.findings += analysis::crossValidateTiming(
                u.timing, profile, m.stats(), u.diags);
            u.validated = true;
        }
    } catch (const Error &e) {
        std::fprintf(stderr, "d16timing: %s: build failed: %s\n",
                     u.name.c_str(), e.what());
        return false;
    }
    u.built = true;
    return true;
}

/** Block ids of `u`'s top stall hotspots, densest first. */
std::vector<int>
hotspots(const Unit &u, int top)
{
    std::vector<int> ids;
    for (const analysis::Block &b : u.cfg->blocks)
        if (b.func >= 0 && u.timing.blocks[b.id].stallHi > 0)
            ids.push_back(b.id);
    std::sort(ids.begin(), ids.end(), [&](int a, int b) {
        const auto &ta = u.timing.blocks[a];
        const auto &tb = u.timing.blocks[b];
        // Density descending; ties by total stalls, then block order.
        const uint64_t da = uint64_t{ta.stallHi} * tb.size;
        const uint64_t db = uint64_t{tb.stallHi} * ta.size;
        if (da != db)
            return da > db;
        if (ta.stallHi != tb.stallHi)
            return ta.stallHi > tb.stallHi;
        return a < b;
    });
    if (static_cast<int>(ids.size()) > top)
        ids.resize(top);
    return ids;
}

/** The D16-vs-DLXe side-by-side hotspot table for one workload. */
void
printHotspots(const std::vector<const Unit *> &group, int top,
              std::ostream &os)
{
    Table table({"variant", "block", "insns", "stall lo", "stall hi",
                 "bubbles", "stalls/insn"});
    table.setTitle(group.front()->workload->name + ": stall hotspots");
    for (const Unit *u : group) {
        for (int id : hotspots(*u, top)) {
            const analysis::BlockTiming &bt = u->timing.blocks[id];
            char density[32];
            std::snprintf(density, sizeof density, "%.2f",
                          bt.stallDensity());
            table.addRow({u->variant, u->timing.blockLabel(id),
                          std::to_string(bt.size),
                          std::to_string(bt.stallLo),
                          std::to_string(bt.stallHi),
                          std::to_string(bt.bubbles), density});
        }
    }
    if (table.rowCount())
        table.print(os);
}

Json
unitJson(const Unit &u)
{
    Json j = Json::object();
    j["unit"] = u.name;
    std::ostringstream os;
    u.timing.renderJson(os);
    j["summary"] = Json::parse(os.str());
    Json fb = Json::object();
    fb["residualLoadUse"] = Json(int64_t{u.feedback.loadUseSites});
    fb["avoidableLoadUse"] = Json(int64_t{u.feedback.avoidableSites});
    j["schedFeedback"] = fb;
    Json hot = Json::array();
    for (int id : hotspots(u, 3)) {
        const analysis::BlockTiming &bt = u.timing.blocks[id];
        Json h = Json::object();
        h["block"] = u.timing.blockLabel(id);
        h["insns"] = Json(int64_t{bt.size});
        h["stallLo"] = Json(int64_t{bt.stallLo});
        h["stallHi"] = Json(int64_t{bt.stallHi});
        h["bubbles"] = Json(int64_t{bt.bubbles});
        hot.push(h);
    }
    j["hotspots"] = hot;
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
        "d16timing",
        "[--isa d16|dlxe|both] [--opt 0|1|2] [--smoke]\n"
        "       [--cross-validate] [--notes] [--top N] [--bus N]\n"
        "       [--uarch SPEC] [--json] [--jobs N] [--list]\n"
        "       [workload...]");
    parser.value("--isa", [&](const std::string &v) {
        args.d16 = v == "d16" || v == "both";
        args.dlxe = v == "dlxe" || v == "both";
        return args.d16 || args.dlxe;
    });
    parser.intValue("--opt", &args.optLevel);
    parser.flag("--smoke", &args.smoke);
    parser.flag("--json", &args.json);
    parser.flag("--cross-validate", &args.crossValidate);
    parser.flag("--notes", &args.notes);
    parser.intValue("--top", &args.top);
    parser.intValue("--bus", &args.bus);
    parser.value("--uarch", [&](const std::string &v) {
        try {
            args.uarch = core::sweep::parseUarch(v);
        } catch (const Error &e) {
            std::fprintf(stderr, "d16timing: %s\n", e.what());
            return false;
        }
        return true;
    });
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
    args.top = std::max(1, args.top);
    if (args.bus < 4 || (args.bus & (args.bus - 1)) != 0) {
        std::fprintf(stderr,
                     "d16timing: --bus must be a power of two >= 4\n");
        return 2;
    }

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
            for (core::sweep::JobSpec &j : core::sweep::smokeBaseMatrix()) {
                if (!wanted(j.workload))
                    continue;
                auto u = std::make_unique<Unit>();
                u->workload = &core::workload(j.workload);
                u->opts = j.opts;
                u->variant = core::sweep::variantKey(j.opts);
                u->name = j.workload + "/" + u->variant;
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
                    u->variant = core::sweep::variantKey(opts);
                    u->name = w.name + "/" + u->variant;
                    units.push_back(std::move(u));
                }
            }
        }
    } catch (const Error &e) {
        std::fprintf(stderr, "d16timing: %s\n", e.what());
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

    int errors = 0, warnings = 0, notes = 0, findings = 0;
    if (args.json) {
        Json doc = Json::array();
        for (const auto &u : units)
            if (u->built)
                doc.push(unitJson(*u));
        std::cout << doc.dump(2) << "\n";
    } else {
        // Per-unit summaries, then the per-workload side-by-side
        // hotspot tables (the units of one workload are adjacent by
        // construction in both matrix orders).
        for (const auto &u : units) {
            if (!u->built)
                continue;
            std::printf("%s:%s\n", u->name.c_str(),
                        u->validated ? " (cross-validated)" : "");
            std::ostringstream os;
            u->timing.renderText(os);
            os << "  scheduler feedback: " << u->feedback.loadUseSites
               << " residual load-use interlock(s), "
               << u->feedback.avoidableSites << " avoidable\n";
            std::fputs(os.str().c_str(), stdout);
            u->diags.renderText(std::cout);
        }
        std::vector<const Unit *> group;
        for (const auto &u : units) {
            if (u->built && !group.empty() &&
                group.back()->workload != u->workload) {
                printHotspots(group, args.top, std::cout);
                group.clear();
            }
            if (u->built)
                group.push_back(u.get());
        }
        if (!group.empty())
            printHotspots(group, args.top, std::cout);
    }
    for (const auto &u : units) {
        errors += u->diags.errors();
        warnings += u->diags.warnings();
        notes += u->diags.notes();
        findings += u->findings + u->diags.failures();
    }
    std::fprintf(
        stderr,
        "d16timing: %zu units, %d errors, %d warnings, %d notes%s\n",
        units.size(), errors, warnings, notes,
        args.crossValidate ? " (cross-validated)" : "");

    if (buildFailed)
        return 2;
    return findings ? 1 : 0;
}
