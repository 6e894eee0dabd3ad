/**
 * @file
 * Microarchitectural configuration of the pipeline model — the three
 * sweep axes of DESIGN.md §16: data forwarding, branch handling, and
 * pipeline depth.
 *
 * The default-constructed config is exactly the paper's machine (a
 * five-stage interlocked pipeline with one architectural branch delay
 * slot and one load delay slot): every derived penalty is zero or the
 * baseline value, `key()` is empty, and no new statistic moves — so
 * the pre-existing goldens are byte-identical under the default.
 *
 * The axes:
 *
 *  - `forward`: a MEM-stage late bypass for the store's data operand.
 *    The baseline pipeline already forwards ALU results (only loads
 *    interlock); the remaining win of a full EX/MEM bypass network is
 *    load->store data forwarding, which removes one cycle from a
 *    pending data-operand stall (`stall = max(0, stall - 1)`). Cycles
 *    saved are counted in SimStats::fwdSavedStalls.
 *
 *  - `branch`: delay-slot-only (the paper), static predict-not-taken,
 *    or a 2-bit bimodal predictor with a `1 << bhtLog2`-entry history
 *    table. Penalties are additive accounting in
 *    SimStats::branchStalls: they never advance the issue scoreboard,
 *    so load/FP interlocks are branch-policy-invariant and one
 *    captured trace (with its branch-outcome stream) replays every
 *    predictor config exactly.
 *
 *  - `depth`: 5 (paper) or 7 stages. A deeper pipe lengthens the load
 *    delay (`loadDelay()`), charges extra fetch cycles on taken
 *    transfers under the delay-slot policy (`takenExtra()`), and
 *    scales the mispredict penalty (`mispredictPenalty()`, per the
 *    RV-IM100 depth-derived-penalty methodology).
 */

#ifndef D16SIM_SIM_UARCH_HH
#define D16SIM_SIM_UARCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/error.hh"

namespace d16sim::sim
{

enum class BranchPolicy : uint8_t
{
    DelaySlot = 0,       //!< paper baseline: delay slot only
    StaticNotTaken = 1,  //!< taken conditionals pay the penalty
    Bimodal = 2,         //!< 2-bit counters, 1<<bhtLog2 entries
};

struct UarchConfig
{
    bool forward = false;
    BranchPolicy branch = BranchPolicy::DelaySlot;
    int bhtLog2 = 6;  //!< meaningful only under Bimodal
    int depth = 5;    //!< pipeline stages, 5 or 7

    /** The paper's machine: every penalty zero/baseline, empty key. */
    bool
    isDefault() const
    {
        return !forward && branch == BranchPolicy::DelaySlot &&
               depth == 5;
    }

    /** The deepest loadDelay() any config has; block translation is
     *  exact up to it (sim/block_engine.hh). */
    static constexpr int MaxLoadDelay = 2;

    /** Load delay slots (cycles before a loaded register is ready). */
    int loadDelay() const { return depth <= 5 ? 1 : MaxLoadDelay; }

    /** Extra fetch cycles per taken transfer, delay-slot policy. */
    int takenExtra() const { return depth - 5; }

    /** Stall cycles per mispredicted conditional branch. */
    int mispredictPenalty() const { return depth - 4; }

    /** Semantic equality: bhtLog2 only matters under Bimodal. */
    bool
    operator==(const UarchConfig &o) const
    {
        return forward == o.forward && branch == o.branch &&
               depth == o.depth &&
               (branch != BranchPolicy::Bimodal ||
                bhtLog2 == o.bhtLog2);
    }

    /** Canonical key segment: empty for the default config, else a
     *  comma-joined list of the non-default axes, e.g.
     *  "fwd=on,bp=bimodal6,depth=7". */
    std::string
    key() const
    {
        std::string k;
        auto add = [&k](const std::string &part) {
            if (!k.empty())
                k += ',';
            k += part;
        };
        if (forward)
            add("fwd=on");
        if (branch == BranchPolicy::StaticNotTaken)
            add("bp=static");
        else if (branch == BranchPolicy::Bimodal)
            add("bp=bimodal" + std::to_string(bhtLog2));
        if (depth != 5)
            add("depth=" + std::to_string(depth));
        return k;
    }

    /** The slice of the config that shapes a capture's measurement:
     *  the forwarding and depth axes change the scoreboard (and so
     *  the recorded interlock counts), while the branch policy is pure
     *  additive accounting replayed from the outcome stream. The
     *  recorded streams themselves are the same at every slice, so
     *  the sweep engine captures each image once, on the default
     *  machine, and retimes every other slice from that trace
     *  (core::replay::replayTiming). */
    UarchConfig
    captureConfig() const
    {
        UarchConfig c;
        c.forward = forward;
        c.depth = depth;
        return c;
    }

    /** Key segment of `captureConfig()` (empty at the baseline). */
    std::string captureKey() const { return captureConfig().key(); }
};

/**
 * The branch policy's cost model: the penalty each resolved transfer
 * pays and, under Bimodal, the 2-bit counter table (initialized
 * weakly-not-taken, indexed by `pc >> insnShift`). The machine feeds
 * it every transfer in execution order; trace replay feeds it the
 * recorded outcome stream, which is the same sequence.
 */
class BranchModel
{
  public:
    BranchModel() = default;

    BranchModel(const UarchConfig &uarch, uint32_t insnShift)
        : uarch_(uarch), insnShift_(insnShift)
    {
        if (uarch.branch == BranchPolicy::Bimodal) {
            panicIf(uarch.bhtLog2 < 1 || uarch.bhtLog2 > 20,
                    "bhtLog2 out of range");
            bht_.assign(size_t{1} << uarch.bhtLog2, 1);
            bhtMask_ = static_cast<uint32_t>(bht_.size() - 1);
        }
    }

    /** Resolve the conditional branch at `pc` to `taken`, training the
     *  predictor; returns its stall cycles and reports whether the
     *  policy mispredicted it. */
    int
    conditional(uint32_t pc, bool taken, bool &mispredicted)
    {
        switch (uarch_.branch) {
          case BranchPolicy::DelaySlot:
            mispredicted = false;
            return taken ? uarch_.takenExtra() : 0;
          case BranchPolicy::StaticNotTaken:
            mispredicted = taken;
            break;
          case BranchPolicy::Bimodal:
            mispredicted = bimodal(pc, taken);
            break;
        }
        return mispredicted ? uarch_.mispredictPenalty() : 0;
    }

    /** Under Bimodal: predict the conditional at `pc` from its 2-bit
     *  counter, train the counter on `taken`, and return whether the
     *  prediction missed. */
    bool
    bimodal(uint32_t pc, bool taken)
    {
        // Saturating step, by table so that the host never branches on
        // the outcome: rows not-taken, taken.
        static constexpr uint8_t Next[2][4] = {{0, 0, 1, 2}, {1, 2, 3, 3}};
        uint8_t &ctr = bht_[(pc >> insnShift_) & bhtMask_];
        const bool missed = (ctr >= 2) != taken;
        ctr = Next[taken][ctr];
        return missed;
    }

    /** Stall cycles of an unconditional transfer: only the delay-slot
     *  policy pays the depth-derived fetch extra (the predicted
     *  policies resolve the target at decode, an idealized BTB). */
    int
    jump() const
    {
        return uarch_.branch == BranchPolicy::DelaySlot
                   ? uarch_.takenExtra()
                   : 0;
    }

  private:
    UarchConfig uarch_;
    uint32_t insnShift_ = 2;
    uint32_t bhtMask_ = 0;
    std::vector<uint8_t> bht_;
};

} // namespace d16sim::sim

#endif // D16SIM_SIM_UARCH_HH
