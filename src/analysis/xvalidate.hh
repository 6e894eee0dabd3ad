/**
 * @file
 * Static/dynamic cross-validation.
 *
 * profileRun() steps a machine to halt and records how many times each
 * PC executed and which non-sequential transfers it took;
 * crossValidate() then checks the static analysis against that ground
 * truth *exactly* (no tolerances):
 *
 *  - every executed PC is a decoded instruction site inside a block
 *    the static call-graph traversal claimed (nothing executed code the
 *    analyzer called unreachable);
 *  - the per-site counts sum to SimStats::instructions;
 *  - the counts at branch/jump sites sum to SimStats::branches;
 *  - within each block, execution is prefix-shaped: counts are
 *    non-increasing from the block head (a block can only be entered
 *    at its head; only a halting trap may exit it early);
 *  - every observed non-sequential transfer is an edge the static CFG
 *    predicts: it leaves from the last site of its block and lands on
 *    a successor head, the resolved callee's entry, or a valid return
 *    point of the returning function — i.e. the dynamically observed
 *    block graph is a subset of the static one.
 *
 * Violations are Error-severity `cfa-xval-*` diagnostics.
 */

#ifndef D16SIM_ANALYSIS_XVALIDATE_HH
#define D16SIM_ANALYSIS_XVALIDATE_HH

#include <cstdint>
#include <map>

#include "analysis/cfg.hh"
#include "sim/machine.hh"
#include "sim/stats.hh"
#include "verify/diag.hh"

namespace d16sim::analysis
{

/**
 * A run's per-PC profile in the machine's own attribution (ordered so
 * validation is deterministic). Each site holds its execution count
 * and the interlock and branch-policy stall cycles its instruction was
 * charged; `edges` holds every non-sequential PC transition — the
 * dynamically taken CFG edges (branch/jump/call/return transfers,
 * delay slot to target).
 */
struct PcProfile
{
    struct Site
    {
        uint64_t execs = 0;
        uint64_t loadStall = 0;    //!< delayed-load stall cycles
        uint64_t fpStall = 0;      //!< math-unit stall cycles
        uint64_t branchStall = 0;  //!< branch-policy stall cycles
    };

    std::map<uint32_t, Site> sites;
    /** Observed non-sequential transfers (from, to) -> count. */
    std::map<std::pair<uint32_t, uint32_t>, uint64_t> edges;
};

/** Run `machine` to halt through step() (an attached block program is
 *  not used) and credit each step's change in SimStats::instructions,
 *  loadInterlocks, fpInterlocks and branchStalls to the PC the step
 *  began at: the machine charges each inside its instruction's step.
 *  Errors the run raises propagate. */
PcProfile profileRun(sim::Machine &machine);

/** Validate a recorded run against the static CFG. Returns the number
 *  of findings reported (0 = the analyses agree exactly). */
int crossValidate(const ImageCfg &cfg, const PcProfile &profile,
                  const sim::SimStats &stats, verify::DiagEngine &diags);

} // namespace d16sim::analysis

#endif // D16SIM_ANALYSIS_XVALIDATE_HH
