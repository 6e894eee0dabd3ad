/**
 * @file
 * Static pipeline-timing analysis over a recovered CFG.
 *
 * An abstract interpretation of the five-stage interlocked pipeline:
 * the machine's issue-time scoreboard (sim::Machine) is abstracted per
 * program point into, for every register resource (32 GPRs, 32 FPRs,
 * and the FP status word), an interval of *remaining delay* cycles —
 * how many cycles a consumer issuing next would still stall. The
 * transfer function reads each op's scoreboard effect from
 * sim::issueSlot(), the table the block translator and trace retiming
 * share (including the D16 quirk that r0 is a real register there, so
 * even a canonical `mv r0, r0` nop can interlock against a pool load);
 * crossValidateTiming() checks it against Machine::execute(). Block
 * entry states join by interval hull over all predecessors, and call /
 * return edges propagate states through the supergraph so FP latencies
 * are tracked across block and function boundaries.
 *
 * Per instruction site the pass classifies the pipeline hazards:
 *
 *  - load-use interlocks (a delayed-load producer feeding a consumer
 *    too early: any GPR remaining-delay can only come from a load);
 *  - FP/math-unit busy stalls (FPR or status remaining-delay);
 *  - branch bubbles (a canonical nop in a branch/jump shadow);
 *  - fetch-buffer refill boundaries (sequential fetch crossing a
 *    bus-aligned block, and taken transfers that always leave the
 *    fetch buffer's current block);
 *  - branch-policy stalls (sim/uarch.hh): per transfer site an upper
 *    bound on the additive branch charge (taken-transfer extras under
 *    the delay-slot policy on a deep pipe, mispredict penalties under
 *    the predictor policies; the lower bound is always zero since any
 *    transfer may fall through or predict correctly). The model also
 *    follows the uarch's load delay and the store-data forwarding
 *    path's reduced rs2 stall.
 *
 * Rollups: per-block static cycle-cost intervals and stall densities,
 * and loop-aware whole-program best/worst-case base-cycle bounds
 * (shortest supergraph path for the best case; for the worst case a
 * longest path that is finite only when every natural loop is a
 * self-loop with an immediate-bounded countdown counter and the call
 * graph is acyclic — anything else reports "unbounded", never a wrong
 * bound).
 *
 * The exactness contract (checked by crossValidateTiming against a
 * run's per-PC profile, analysis::profileRun()):
 *
 *  - soundness everywhere: at every PC the observed stall cycles lie
 *    in [execs * stallLo, execs * stallHi], and a stall category is
 *    only observed where statically possible;
 *  - exactness on precise sites: wherever the interval is a point
 *    (in particular on straight-line/acyclic regions whose predecessor
 *    states agree), dynamic equals static exactly;
 *  - whole-program bounds bracket SimStats::baseCycles().
 *
 * Diag codes (all through verify::DiagEngine):
 *   tim-load-use            Note   guaranteed load-use interlock
 *   tim-fp-busy             Note   guaranteed math-unit busy stall
 *   tim-branch-bubble       Note   canonical nop in a delay slot
 *   tim-fetch-refill        Note   taken transfer always refills the
 *                                  fetch buffer
 *   tim-branch-mispredict   Note   conditional branch may pay the
 *                                  mispredict penalty (predictor
 *                                  policies only)
 *   tim-bht-alias           Note   two conditional branches share a
 *                                  bimodal BHT entry
 *   tim-avoidable-load-use  Note   a later independent instruction
 *                                  could have been scheduled into the
 *                                  load delay slot
 *   tim-xval-unknown-pc     Error  executed PC is not a decoded site
 *   tim-xval-unreachable    Error  executed PC the supergraph missed
 *   tim-xval-stall-range    Error  observed stalls outside the bounds
 *   tim-xval-category       Error  stall category statically impossible
 *   tim-xval-total          Error  per-PC stalls don't sum to SimStats
 *   tim-xval-bubbles        Error  bubble taxonomy disagrees
 *   tim-xval-branch-range   Error  branch stalls exceed the per-site
 *                                  static upper bound
 *   tim-xval-branch-total   Error  per-PC branch stalls don't sum to
 *                                  SimStats::branchStalls
 *   tim-xval-bounds         Error  baseCycles outside [best, worst]
 */

#ifndef D16SIM_ANALYSIS_TIMING_HH
#define D16SIM_ANALYSIS_TIMING_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/xvalidate.hh"
#include "mc/sched.hh"
#include "sim/machine.hh"
#include "sim/stats.hh"
#include "verify/diag.hh"

namespace d16sim::analysis
{

struct TimingOptions
{
    /** FPU result latencies; must match the simulated machine's for
     *  the cross-validation contract to hold. */
    sim::FpLatencies fpu;

    /** Fetch-buffer width for refill classification (bytes). */
    uint32_t busBytes = 4;

    /** Microarchitecture of the modeled machine; must match the
     *  simulated machine's for the cross-validation contract to hold
     *  (load delay, forwarding, and branch-policy charges all follow
     *  it). */
    sim::UarchConfig uarch;

    /** Emit per-site tim-* hazard notes through the DiagEngine. */
    bool siteDiags = true;
};

/** Static hazard classification of one instruction site. Stall bounds
 *  are cycles per execution of the site. */
struct SiteTiming
{
    uint16_t stallLo = 0;
    uint16_t stallHi = 0;
    /** Upper bound on the additive branch-policy charge per execution
     *  of this (transfer) site; the lower bound is always zero. */
    uint16_t branchStallHi = 0;
    bool loadUse = false;       //!< a GPR read may interlock (delayed load)
    bool fpBusy = false;        //!< an FPR/status read may stall
    bool guaranteedLoad = false;  //!< the GPR interlock always happens
    bool guaranteedFp = false;    //!< the FP stall always happens
    bool branchBubble = false;  //!< canonical nop in a branch shadow
    bool seqRefill = false;     //!< sequential fetch crosses a bus block
    bool branchRefill = false;  //!< taken transfer always refills
    bool reachable = false;     //!< the supergraph propagation got here

    bool precise() const { return stallLo == stallHi; }
};

/** Static cycle cost of one block, per execution. */
struct BlockTiming
{
    uint32_t size = 0;        //!< instruction sites
    uint32_t stallLo = 0;     //!< summed guaranteed stall cycles
    uint32_t stallHi = 0;     //!< summed worst-case stall cycles
    uint32_t branchStallHi = 0;  //!< worst-case branch-policy charge
    uint32_t bubbles = 0;     //!< nop delay slots
    uint32_t seqRefills = 0;  //!< in-block sequential fetch refills

    uint32_t cycleLo() const { return size + stallLo; }
    uint32_t cycleHi() const { return size + stallHi + branchStallHi; }

    /** Worst-case stall cycles per instruction. */
    double
    stallDensity() const
    {
        return size ? static_cast<double>(stallHi) /
                          static_cast<double>(size)
                    : 0.0;
    }
};

/** Whole-function base-cycle bounds (entry to return). -1 = unbounded
 *  (an unprovable loop, recursion, or an unresolved call). */
struct FuncTiming
{
    int64_t bestCycles = 0;
    int64_t worstCycles = -1;
    int boundedLoops = 0;
    int unboundedLoops = 0;
};

struct TimingResult
{
    const ImageCfg *cfg = nullptr;
    TimingOptions opts;

    std::vector<SiteTiming> sites;    //!< parallel to cfg->insns
    std::vector<BlockTiming> blocks;  //!< parallel to cfg->blocks
    std::vector<FuncTiming> funcs;    //!< parallel to cfg->funcs

    /** Whole-program base-cycle bounds from the entry point to any
     *  halt (trap or return-to-sentinel). worstCycles = -1 means
     *  unbounded. */
    int64_t bestCycles = 0;
    int64_t worstCycles = -1;

    // Summary counters over all sites.
    int loadUseSites = 0;       //!< sites that may interlock on a load
    int fpBusySites = 0;        //!< sites that may stall on the FPU
    int guaranteedStallSites = 0;  //!< stallLo > 0
    int maybeStallSites = 0;       //!< stallHi > 0, stallLo == 0
    int preciseSites = 0;          //!< stallLo == stallHi
    int bubbleSites = 0;
    int seqRefillSites = 0;
    int branchRefillSites = 0;
    int boundedLoops = 0;
    int unboundedLoops = 0;

    /** Summed per-execution guaranteed/worst stall cycles (static,
     *  unweighted by execution counts). */
    int64_t staticStallLo = 0;
    int64_t staticStallHi = 0;

    // Branch-policy summary (all zero on the default machine).
    int branchSites = 0;         //!< sites with branchStallHi > 0
    int bhtAliasSites = 0;       //!< conditionals sharing a BHT entry
    int64_t staticBranchHi = 0;  //!< summed per-execution branch hi

    void renderText(std::ostream &os) const;
    void renderJson(std::ostream &os) const;

    /** "symbol+0x10" style label for a block (hotspot reports). */
    std::string blockLabel(int blockId) const;
};

/** Run the timing analysis. `cfg` must outlive the result. */
TimingResult analyzeTiming(const ImageCfg &cfg, verify::DiagEngine &diags,
                           const TimingOptions &opts = {});

/** Check a recorded run against the static classification, exactly
 *  (see the contract above). Returns the number of findings (0 = the
 *  static and dynamic timing models agree). */
int crossValidateTiming(const TimingResult &timing, const PcProfile &profile,
                        const sim::SimStats &stats,
                        verify::DiagEngine &diags);

/**
 * Feed hazard annotations back to the scheduler's report: find every
 * guaranteed load-use interlock in the image and decide, by the
 * scheduler's own legality rules (in-block, dependence- and
 * memory-safe, delay slots untouched), whether a later instruction of
 * the same block could have been moved into the load delay to hide it.
 * Emits a tim-avoidable-load-use note per avoidable site.
 */
mc::SchedFeedback schedFeedback(const TimingResult &timing,
                                verify::DiagEngine &diags);

} // namespace d16sim::analysis

#endif // D16SIM_ANALYSIS_TIMING_HH
