/**
 * @file
 * Figures 11-12 + Table 5: the full feature-interaction summary.
 *
 * Code-size and path-length ratios (DLXe variant / D16) for the four
 * DLXe compiler variants, per program and averaged — the paper's
 * Table 5 / Figures 11-12 rollup of the register-count, operand-count,
 * and immediate-field effects.
 *
 * The summary also cross-tabulates pipeline interlocks two ways:
 * dynamic counts from the simulator next to the static timing
 * analyzer's execution-weighted bounds (src/analysis/timing) — the
 * dynamic count must land inside the static [lo, hi] on every
 * program/variant pair, and does.
 */

#include <atomic>
#include <thread>

#include "analysis/cfg.hh"
#include "analysis/timing.hh"
#include "common.hh"

using namespace d16bench;

namespace
{

/** One (workload, variant) static-vs-dynamic interlock comparison:
 *  the simulator's interlock count and the timing analyzer's per-site
 *  stall bounds weighted by how often each site actually ran. */
struct InterlockCell
{
    uint64_t dynamicStalls = 0;
    uint64_t staticLo = 0;
    uint64_t staticHi = 0;

    bool
    bracketed() const
    {
        return staticLo <= dynamicStalls && dynamicStalls <= staticHi;
    }
};

InterlockCell
interlocks(const Workload &w, const CompileOptions &opts)
{
    const assem::Image img = core::build(w.source, opts);
    const analysis::ImageCfg cfg = analysis::buildCfg(img);
    verify::DiagEngine diags;
    analysis::TimingOptions topts;
    topts.siteDiags = false;
    const analysis::TimingResult timing =
        analysis::analyzeTiming(cfg, diags, topts);

    sim::Machine m(img);
    const analysis::PcProfile profile = analysis::profileRun(m);

    InterlockCell cell;
    cell.dynamicStalls =
        m.stats().loadInterlocks + m.stats().fpInterlocks;
    for (const auto &[pc, pt] : profile.sites) {
        const int i = cfg.insnAt(pc);
        if (i < 0)
            continue;
        cell.staticLo += pt.execs * timing.sites[i].stallLo;
        cell.staticHi += pt.execs * timing.sites[i].stallHi;
    }
    return cell;
}

} // namespace

int
main()
{
    header("Figures 11-12 / Table 5: density and path-length summary",
           "Bunda et al. 1993, Figs. 11-12 and Table 5");

    const auto variants = allVariants();
    std::vector<JobSpec> plan;
    for (const Workload &w : workloadSuite())
        for (const auto &[name, opts] : variants)
            plan.push_back(JobSpec::base(w.name, opts));
    prefetch(std::move(plan));

    Table size({"Program", "DLXe/16/2", "DLXe/16/3", "DLXe/32/2",
                "DLXe/32/3"});
    Table path({"Program", "DLXe/16/2", "DLXe/16/3", "DLXe/32/2",
                "DLXe/32/3"});
    double sizeSum[4] = {0, 0, 0, 0}, pathSum[4] = {0, 0, 0, 0};
    int n = 0;

    for (const Workload &w : workloadSuite()) {
        const auto &base = measure(w.name, variants[0].second);
        std::vector<std::string> srow = {w.name}, prow = {w.name};
        for (int v = 1; v <= 4; ++v) {
            const auto &m = measure(w.name, variants[v].second);
            const double s = static_cast<double>(m.run.sizeBytes) /
                             base.run.sizeBytes;
            const double p =
                static_cast<double>(m.run.stats.instructions) /
                base.run.stats.instructions;
            sizeSum[v - 1] += s;
            pathSum[v - 1] += p;
            srow.push_back(fixed(s, 2));
            prow.push_back(fixed(p, 2));
        }
        size.addRow(std::move(srow));
        path.addRow(std::move(prow));
        ++n;
    }
    std::vector<std::string> savg = {"(average)"}, pavg = {"(average)"};
    for (int v = 0; v < 4; ++v) {
        savg.push_back(fixed(sizeSum[v] / n, 2));
        pavg.push_back(fixed(pathSum[v] / n, 2));
    }
    size.addRow(std::move(savg));
    path.addRow(std::move(pavg));

    size.setTitle("Code size, D16 = 1.00 (paper avg: "
                  "1.62 / 1.61 / 1.57 / 1.53)");
    size.print(std::cout);
    std::cout << "\n";
    path.setTitle("Path length, D16 = 1.00 (paper avg: "
                  "0.95 / 0.94 / 0.90 / 0.87)");
    path.print(std::cout);

    // Static timing analysis vs the simulator: per program/variant,
    // the dynamic interlock count next to the analyzer's
    // execution-weighted static stall bounds.
    const auto &suite = workloadSuite();
    std::vector<InterlockCell> cells(suite.size() * 5);
    std::atomic<size_t> nextCell{0};
    auto worker = [&] {
        for (size_t i = nextCell.fetch_add(1); i < cells.size();
             i = nextCell.fetch_add(1))
            cells[i] = interlocks(suite[i / 5],
                                  variants[i % 5].second);
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < defaultJobs(); ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();

    Table locks({"Program", variants[0].first, variants[1].first,
                 variants[2].first, variants[3].first,
                 variants[4].first});
    int unbracketed = 0;
    for (size_t w = 0; w < suite.size(); ++w) {
        std::vector<std::string> row = {suite[w].name};
        for (int v = 0; v < 5; ++v) {
            const InterlockCell &c = cells[w * 5 + v];
            std::string s = std::to_string(c.dynamicStalls) + " [" +
                            std::to_string(c.staticLo) + "," +
                            std::to_string(c.staticHi) + "]";
            if (!c.bracketed()) {
                s += " !";
                ++unbracketed;
            }
            row.push_back(std::move(s));
        }
        locks.addRow(std::move(row));
    }
    std::cout << "\n";
    locks.setTitle("Interlock cycles: dynamic [static lo,hi] "
                   "(exec-weighted; dynamic must fall in bounds)");
    locks.print(std::cout);
    if (unbracketed) {
        std::cout << "\n!! " << unbracketed
                  << " cell(s) fell outside the static bounds\n";
        return 1;
    }
    std::cout << "\nAll dynamic interlock counts inside the static "
                 "bounds.\n";
    return 0;
}
