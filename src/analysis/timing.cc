#include "analysis/timing.hh"

#include <algorithm>
#include <deque>

#include "analysis/dom.hh"
#include "sim/issue_slot.hh"
#include "sim/trap.hh"
#include "support/error.hh"
#include "support/strings.hh"

namespace d16sim::analysis
{

using isa::DecodedInst;
using isa::Op;
using isa::OpClass;
using isa::TargetInfo;
using verify::Diag;
using verify::DiagEngine;
using verify::Severity;

namespace
{

// ----- abstract domain ------------------------------------------------
//
// Resource indices: GPR r -> r, FPR f -> 32 + f, FP status -> 64.
// Per resource we keep an interval of *remaining delay*: how many
// cycles a consumer issuing next would stall (the machine's
// ready - (cycle_ + 1), clamped at zero). The maximum possible value
// is maxLatency - 1, so the domain has finite height and the hull
// join converges.

constexpr int NumRes = 65;

struct Rem
{
    uint16_t lo = 0;
    uint16_t hi = 0;
};

struct State
{
    bool valid = false;  //!< bottom until the propagation reaches it
    std::array<Rem, NumRes> r{};
};

State
topState(uint16_t cap)
{
    State s;
    s.valid = true;
    for (Rem &x : s.r)
        x = {0, cap};
    return s;
}

/** Hull join; returns true if `into` changed. */
bool
join(State &into, const State &from)
{
    if (!from.valid)
        return false;
    if (!into.valid) {
        into = from;
        return true;
    }
    bool changed = false;
    for (int i = 0; i < NumRes; ++i) {
        if (from.r[i].lo < into.r[i].lo) {
            into.r[i].lo = from.r[i].lo;
            changed = true;
        }
        if (from.r[i].hi > into.r[i].hi) {
            into.r[i].hi = from.r[i].hi;
            changed = true;
        }
    }
    return changed;
}

// ----- per-op timing effects ------------------------------------------
//
// Each site's scoreboard effect is its sim::issueSlot(), the table the
// block translator and trace retiming read too; its resources are
// numbered as the State's. This is deliberately NOT regEffects(): the
// canonical D16 nop really does read and write the at register for
// timing purposes, and Trap's timing model reads/writes only r2.

using Slot = sim::IssueSlot;

bool
isHaltTrap(const DecodedInst &d)
{
    return d.op == Op::Trap && d.imm == sim::TrapHalt;
}

struct StallIv
{
    uint16_t lo = 0;
    uint16_t hi = 0;
};

struct SiteStep
{
    StallIv gpr;    //!< stall contributed by GPR reads (load-use)
    StallIv fp;     //!< stall contributed by FPR/status reads
    StallIv total;  //!< the instruction's stall interval
};

/** Advance `s` across one instruction; returns the stall intervals.
 *  Exact (point intervals stay points) because the machine's stall is
 *  the max of the used resources' remaining delays, the cycle counter
 *  then advances by 1 + stall, and every other resource's remaining
 *  delay decays by exactly that amount. */
SiteStep
stepSite(State &s, const Slot &slot, const sim::UarchConfig &uarch)
{
    SiteStep st;
    const uint8_t srcs[2] = {slot.src0, slot.src1};
    for (int k = 0; k < 2; ++k) {
        if (srcs[k] == Slot::None)
            continue;
        const Rem &r = s.r[srcs[k]];
        uint16_t lo = r.lo;
        uint16_t hi = r.hi;
        if (k == 1 && slot.lat == Slot::StoreData && uarch.forward) {
            // With the EX/MEM bypass the store-data operand is read a
            // stage late: effective stall is max(0, rem-1).
            lo = lo > 0 ? static_cast<uint16_t>(lo - 1) : 0;
            hi = hi > 0 ? static_cast<uint16_t>(hi - 1) : 0;
        }
        StallIv &cat = Slot::isGpr(srcs[k]) ? st.gpr : st.fp;
        cat.lo = std::max(cat.lo, lo);
        cat.hi = std::max(cat.hi, hi);
    }
    st.total.lo = std::max(st.gpr.lo, st.fp.lo);
    st.total.hi = std::max(st.gpr.hi, st.fp.hi);

    // Time advances by 1 + stall; remaining delays decay by that much.
    for (Rem &r : s.r) {
        const int lo = static_cast<int>(r.lo) - 1 - st.total.hi;
        const int hi = static_cast<int>(r.hi) - 1 - st.total.lo;
        r.lo = static_cast<uint16_t>(std::max(0, lo));
        r.hi = static_cast<uint16_t>(std::max(0, hi));
    }
    if (slot.dst != Slot::Sink) {
        // A load's result is ready 1 + loadDelay() cycles after issue.
        const auto rem = static_cast<uint16_t>(
            slot.lat == Slot::LoadLatency ? uarch.loadDelay() : slot.lat - 1);
        s.r[slot.dst] = {rem, rem};
    }
    return st;
}

int
emitXval(DiagEngine &diags, const ImageCfg &cfg, const char *code,
         uint32_t addr, bool hasAddr, std::string message)
{
    Diag d;
    d.severity = Severity::Error;
    d.code = code;
    d.message = std::move(message);
    d.addr = addr;
    d.hasAddr = hasAddr;
    if (hasAddr)
        d.symbol = cfg.enclosingSymbol(addr);
    diags.report(std::move(d));
    return 1;
}

// ----- the analyzer ---------------------------------------------------

class TimingAnalyzer
{
  public:
    TimingAnalyzer(const ImageCfg &cfg, DiagEngine &diags,
                   const TimingOptions &opts)
        : cfg_(cfg), diags_(diags), opts_(opts)
    {}

    TimingResult run();

  private:
    void computeEffects();
    void propagate();
    void finalizeSites(TimingResult &tr);
    void analyzeLoops(TimingResult &tr);
    void computeBounds(TimingResult &tr);
    void note(const char *code, int insn, std::string message);

    uint16_t
    cap() const
    {
        const int m = std::max(1 + static_cast<int>(opts_.uarch.loadDelay()),
                               sim::maxFpLatency(opts_.fpu));
        return static_cast<uint16_t>(m - 1);
    }

    const ImageCfg &cfg_;
    DiagEngine &diags_;
    const TimingOptions &opts_;

    std::vector<Slot> slots_;            //!< per insn site
    std::vector<State> in_;              //!< per block entry
    std::vector<std::vector<int>> returnPoints_;  //!< per function
    std::vector<int64_t> haltPrefixLo_;  //!< per block, -1 = no halt site
    std::vector<int> selfTrip_;  //!< per block: 0 none, -1 unknown, >0 trips
    bool imprecise_ = false;     //!< an indirect transfer defeated tracking
};

void
TimingAnalyzer::computeEffects()
{
    const TargetInfo &t = *cfg_.image->target;
    slots_.reserve(cfg_.insns.size());
    for (const Insn &i : cfg_.insns) {
        panicIf(i.d.op >= Op::NumOps, "timing: unexecutable op ",
                static_cast<int>(i.d.op));
        slots_.push_back(sim::issueSlot(t, i.d, opts_.fpu));
    }
}

void
TimingAnalyzer::propagate()
{
    const size_t nb = cfg_.blocks.size();
    in_.assign(nb, State{});
    returnPoints_.assign(cfg_.funcs.size(), {});

    for (const Block &b : cfg_.blocks) {
        if (b.func < 0)
            continue;
        if (b.hasIndirect)
            imprecise_ = true;
        if (b.isCall && b.callee >= 0)
            for (int s : b.succs)
                returnPoints_[b.callee].push_back(s);
    }

    if (imprecise_) {
        // An unresolvable transfer could land anywhere: every claimed
        // block conservatively starts in the top state. Still sound,
        // no longer precise. Toolchain-emitted images never get here
        // (the linter rejects unresolved indirection).
        const State top = topState(cap());
        for (const Block &b : cfg_.blocks)
            if (b.func >= 0)
                in_[b.id] = top;
        return;
    }

    if (cfg_.entryFunc < 0)
        return;
    const int entry = cfg_.funcs[cfg_.entryFunc].entryBlock;
    in_[entry].valid = true;  // machine starts with every register ready

    std::deque<int> work{entry};
    std::vector<bool> queued(nb, false);
    queued[entry] = true;
    const State top = topState(cap());

    while (!work.empty()) {
        const int id = work.front();
        work.pop_front();
        queued[id] = false;
        const Block &b = cfg_.blocks[id];

        State s = in_[id];
        for (int i = b.first; i <= b.last; ++i)
            stepSite(s, slots_[i], opts_.uarch);

        auto push = [&](int t, const State &out) {
            if (join(in_[t], out) && !queued[t]) {
                queued[t] = true;
                work.push_back(t);
            }
        };

        if (b.isCall && b.callee >= 0 &&
            cfg_.funcs[b.callee].entryBlock >= 0) {
            // The callee sees the caller's scoreboard; its return
            // blocks flow back to every return point of the callee
            // (context-insensitive, handled by the isReturn case).
            push(cfg_.funcs[b.callee].entryBlock, s);
        } else if (b.isCall) {
            // Unresolved call: the callee could leave anything in
            // flight when it returns.
            for (int t : b.succs)
                push(t, top);
        } else if (b.isReturn) {
            for (int t : returnPoints_[b.func])
                push(t, s);
        } else {
            for (int t : b.succs)
                push(t, s);
        }
    }
}

void
TimingAnalyzer::note(const char *code, int insn, std::string message)
{
    if (!opts_.siteDiags)
        return;
    Diag d;
    d.severity = Severity::Note;
    d.code = code;
    d.message = std::move(message);
    d.addr = cfg_.insns[insn].addr;
    d.hasAddr = true;
    d.symbol = cfg_.enclosingSymbol(d.addr);
    d.line = cfg_.insns[insn].line;
    diags_.report(std::move(d));
}

void
TimingAnalyzer::finalizeSites(TimingResult &tr)
{
    const TargetInfo &t = *cfg_.image->target;
    const uint32_t bus = opts_.busBytes;
    tr.sites.assign(cfg_.insns.size(), SiteTiming{});
    tr.blocks.assign(cfg_.blocks.size(), BlockTiming{});
    haltPrefixLo_.assign(cfg_.blocks.size(), -1);
    const State top = topState(cap());

    for (const Block &b : cfg_.blocks) {
        BlockTiming &bt = tr.blocks[b.id];
        bt.size = static_cast<uint32_t>(b.size());
        const bool reachable = in_[b.id].valid;
        State s = reachable ? in_[b.id] : top;
        int64_t prefixLo = 0;

        for (int i = b.first; i <= b.last; ++i) {
            const SiteStep st = stepSite(s, slots_[i], opts_.uarch);
            SiteTiming &site = tr.sites[i];
            site.stallLo = st.total.lo;
            site.stallHi = st.total.hi;
            site.loadUse = st.gpr.hi > 0;
            site.fpBusy = st.fp.hi > 0;
            site.guaranteedLoad = st.gpr.lo > 0;
            site.guaranteedFp = st.fp.lo > 0;
            site.reachable = reachable;
            bt.stallLo += st.total.lo;
            bt.stallHi += st.total.hi;
            prefixLo += 1 + st.total.lo;
            if (isHaltTrap(cfg_.insns[i].d) && haltPrefixLo_[b.id] < 0)
                haltPrefixLo_[b.id] = prefixLo;

            const Insn &insn = cfg_.insns[i];
            // Branch bubble: a canonical nop in the terminator's shadow.
            if (b.cfIndex >= 0 && i == b.cfIndex + 1 &&
                isa::isCanonicalNop(t, insn.d)) {
                site.branchBubble = true;
                bt.bubbles += 1;
                note("tim-branch-bubble", i,
                     "unfilled delay slot: canonical nop in a " +
                         std::string(opName(
                             cfg_.insns[b.cfIndex].d.op)) +
                         " shadow");
            }
            // Sequential fetch refill: straight-line execution crosses
            // into a new bus-aligned fetch block at this site.
            if (insn.addr % bus == 0) {
                site.seqRefill = true;
                if (i > b.first)
                    bt.seqRefills += 1;
            }
            // Taken-transfer refill: the target is outside the fetch
            // block that held the delay slot, so taking the branch
            // always costs a buffer refill.
            if (i == b.cfIndex) {
                const Op op = insn.d.op;
                if (op == Op::Br || op == Op::Bz || op == Op::Bnz ||
                    op == Op::J || op == Op::Jl) {
                    const uint32_t target =
                        insn.addr + static_cast<uint32_t>(insn.d.imm);
                    const uint32_t slotAddr =
                        i < b.last ? cfg_.insns[i + 1].addr
                                   : insn.addr;
                    if (target / bus != slotAddr / bus) {
                        site.branchRefill = true;
                        note("tim-fetch-refill", i,
                             "taken " + std::string(opName(op)) +
                                 " to " + hexString(target) +
                                 " always refills the " +
                                 std::to_string(bus) +
                                 "-byte fetch buffer");
                    }
                }
            }
            if (site.guaranteedLoad) {
                note("tim-load-use", i,
                     "load-use interlock: stalls " +
                         std::to_string(st.gpr.lo) +
                         " cycle(s) on a delayed load");
            }
            if (site.guaranteedFp) {
                note("tim-fp-busy", i,
                     "math-unit busy: stalls " +
                         std::to_string(st.fp.lo) +
                         " cycle(s) on an FP result");
            }
            // Branch-policy charge: an additive per-execution upper
            // bound at transfer sites (lower bound zero — any transfer
            // may fall through or predict correctly; see machine.cc).
            {
                const Op op = insn.d.op;
                const bool condTransfer =
                    op == Op::Bz || op == Op::Bnz || op == Op::Jrz ||
                    op == Op::Jrnz;
                const bool uncondTransfer =
                    op == Op::Br || op == Op::J || op == Op::Jl ||
                    op == Op::Jr || op == Op::Jlr;
                if (condTransfer || uncondTransfer) {
                    int bHi = 0;
                    switch (opts_.uarch.branch) {
                      case sim::BranchPolicy::DelaySlot:
                        bHi = opts_.uarch.takenExtra();
                        break;
                      case sim::BranchPolicy::StaticNotTaken:
                      case sim::BranchPolicy::Bimodal:
                        bHi = condTransfer
                                  ? opts_.uarch.mispredictPenalty()
                                  : 0;
                        break;
                    }
                    site.branchStallHi = static_cast<uint16_t>(bHi);
                    bt.branchStallHi += static_cast<uint32_t>(bHi);
                    if (bHi > 0 && condTransfer &&
                        opts_.uarch.branch !=
                            sim::BranchPolicy::DelaySlot) {
                        note("tim-branch-mispredict", i,
                             "conditional " + std::string(opName(op)) +
                                 " may mispredict: up to " +
                                 std::to_string(bHi) +
                                 " stall cycle(s)");
                    }
                }
            }
        }
    }

    // Bimodal BHT aliasing: conditional transfer sites that index the
    // same 2-bit counter interfere with each other's predictions. One
    // note per aliasing pair (the later site against the first).
    if (opts_.uarch.branch == sim::BranchPolicy::Bimodal) {
        const uint32_t shift = t.insnBytes() == 2 ? 1 : 2;
        const uint32_t mask =
            (uint32_t{1} << opts_.uarch.bhtLog2) - 1;
        std::map<uint32_t, uint32_t> firstAtIndex;  // idx -> site addr
        for (size_t i = 0; i < cfg_.insns.size(); ++i) {
            const Op op = cfg_.insns[i].d.op;
            if (op != Op::Bz && op != Op::Bnz && op != Op::Jrz &&
                op != Op::Jrnz)
                continue;
            const uint32_t addr = cfg_.insns[i].addr;
            const uint32_t idx = (addr >> shift) & mask;
            const auto [it, inserted] =
                firstAtIndex.emplace(idx, addr);
            if (!inserted) {
                tr.bhtAliasSites += 1;
                note("tim-bht-alias", static_cast<int>(i),
                     "shares BHT entry " + std::to_string(idx) +
                         " of the " +
                         std::to_string(uint32_t{1}
                                        << opts_.uarch.bhtLog2) +
                         "-entry bimodal predictor with the branch at " +
                         hexString(it->second));
            }
        }
    }

    for (size_t i = 0; i < tr.sites.size(); ++i) {
        const SiteTiming &s = tr.sites[i];
        tr.loadUseSites += s.loadUse;
        tr.fpBusySites += s.fpBusy;
        tr.guaranteedStallSites += s.stallLo > 0;
        tr.maybeStallSites += s.stallHi > 0 && s.stallLo == 0;
        tr.preciseSites += s.precise();
        tr.bubbleSites += s.branchBubble;
        tr.seqRefillSites += s.seqRefill;
        tr.branchRefillSites += s.branchRefill;
        tr.staticStallLo += s.stallLo;
        tr.staticStallHi += s.stallHi;
        tr.branchSites += s.branchStallHi > 0;
        tr.staticBranchHi += s.branchStallHi;
    }
}

void
TimingAnalyzer::analyzeLoops(TimingResult &tr)
{
    // Trip bounds for the one shape we can prove: a single-block
    // self-loop whose terminator tests a counter that every entry
    // initializes with an immediate and the block steps by a constant.
    selfTrip_.assign(cfg_.blocks.size(), 0);

    auto lastDefOf = [&](const Block &b, int res) -> int {
        for (int i = b.last; i >= b.first; --i)
            if (slots_[i].dst == res)
                return i;
        return -1;
    };

    for (const Block &b : cfg_.blocks) {
        if (b.func < 0)
            continue;
        const bool self =
            std::find(b.succs.begin(), b.succs.end(), b.id) !=
            b.succs.end();
        if (!self)
            continue;
        selfTrip_[b.id] = -1;  // a loop; unknown trip count until proven
        if (b.cfIndex < 0)
            continue;
        const DecodedInst &cf = cfg_.insns[b.cfIndex].d;
        if (cf.op != Op::Bnz)
            continue;
        const int counter = cf.rs1;
        if (counter == 0 && cfg_.image->target->r0IsZero())
            continue;

        // Exactly one in-block write to the counter: a constant step.
        int writeSite = -1;
        int writes = 0;
        for (int i = b.first; i <= b.last; ++i)
            if (slots_[i].dst == counter) {
                writeSite = i;
                ++writes;
            }
        if (writes != 1)
            continue;
        const DecodedInst &w = cfg_.insns[writeSite].d;
        int64_t step = 0;
        if (w.op == Op::AddI && w.rd == counter && w.rs1 == counter)
            step = -static_cast<int64_t>(w.imm);
        else if (w.op == Op::SubI && w.rd == counter && w.rs1 == counter)
            step = static_cast<int64_t>(w.imm);
        else
            continue;
        if (step <= 0)
            continue;

        // Every outside entry must load the counter with one and the
        // same immediate whose countdown hits zero exactly. An
        // immediate load is mvi, or the DLXe assembler's lowering of
        // it: addi rX, r0, N.
        auto immInit = [&](const DecodedInst &d) -> int64_t {
            if (d.op == Op::MvI && d.rd == counter)
                return d.imm;
            if (d.op == Op::AddI && d.rd == counter && d.rs1 == 0 &&
                cfg_.image->target->r0IsZero())
                return d.imm;
            return -1;
        };
        int64_t init = -1;
        bool ok = true;
        for (int p : b.preds) {
            if (p == b.id)
                continue;
            const int def = lastDefOf(cfg_.blocks[p], counter);
            if (def < 0) {
                ok = false;
                break;
            }
            const int64_t n = immInit(cfg_.insns[def].d);
            if (n <= 0 || n % step != 0 || (init >= 0 && n != init)) {
                ok = false;
                break;
            }
            init = n;
        }
        if (!ok || init < 0)
            continue;
        // Decrement before the test: the tested values are
        // init-step .. 0 and the block runs init/step times; a
        // decrement in the delay slot is tested one iteration late.
        const int64_t trips = init / step +
                              (writeSite > b.cfIndex ? 1 : 0);
        selfTrip_[b.id] = static_cast<int>(trips);
    }

    // Classify every natural loop per function.
    for (size_t fi = 0; fi < cfg_.funcs.size(); ++fi) {
        const Function &fn = cfg_.funcs[fi];
        if (fn.entryBlock < 0)
            continue;
        const DomInfo dom = computeDoms(cfg_, fn);
        FuncTiming &ft = tr.funcs[fi];
        for (int h : dom.loopHeaders) {
            bool bounded = selfTrip_[h] > 0;
            // A bounded self-loop must be the loop's only back edge.
            if (bounded)
                for (int b : fn.blocks)
                    for (int s : cfg_.blocks[b].succs)
                        if (s == h && b != h && dom.dominates(h, b))
                            bounded = false;
            (bounded ? ft.boundedLoops : ft.unboundedLoops) += 1;
        }
        tr.boundedLoops += ft.boundedLoops;
        tr.unboundedLoops += ft.unboundedLoops;
    }
}

void
TimingAnalyzer::computeBounds(TimingResult &tr)
{
    constexpr int64_t INF = int64_t{1} << 60;
    const size_t nf = cfg_.funcs.size();

    // Map block id -> dense index per function for the path searches.
    auto intraSuccs = [&](const Block &b) -> const std::vector<int> & {
        return b.succs;  // call blocks' succs are their return points
    };

    // --- best case: shortest supergraph path (cycles are lower-bounded
    // by cost.lo, callees by their own best return cost). Iterate to a
    // fixpoint; values only decrease and are bounded below by zero.
    std::vector<int64_t> bestRet(nf, INF), bestHalt(nf, INF);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t fi = 0; fi < nf; ++fi) {
            const Function &fn = cfg_.funcs[fi];
            if (fn.entryBlock < 0)
                continue;
            std::vector<int64_t> dist(cfg_.blocks.size(), INF);
            dist[fn.entryBlock] = 0;
            // Bellman-Ford over the function's blocks (small graphs;
            // weights are non-negative so |blocks| passes suffice).
            for (size_t pass = 0; pass < fn.blocks.size(); ++pass) {
                bool relaxed = false;
                for (int bid : fn.blocks) {
                    if (dist[bid] >= INF)
                        continue;
                    const Block &b = cfg_.blocks[bid];
                    int64_t w = tr.blocks[bid].cycleLo();
                    if (b.isCall)
                        w += b.callee >= 0 ? bestRet[b.callee] : 1;
                    if (w >= INF)
                        continue;  // the callee never returns (yet)
                    for (int s : intraSuccs(b))
                        if (dist[bid] + w < dist[s]) {
                            dist[s] = dist[bid] + w;
                            relaxed = true;
                        }
                }
                if (!relaxed)
                    break;
            }
            int64_t ret = INF, halt = INF;
            for (int bid : fn.blocks) {
                if (dist[bid] >= INF)
                    continue;
                const Block &b = cfg_.blocks[bid];
                if (b.isReturn)
                    ret = std::min(ret,
                                   dist[bid] + tr.blocks[bid].cycleLo());
                if (haltPrefixLo_[bid] >= 0)
                    halt = std::min(halt, dist[bid] + haltPrefixLo_[bid]);
                if (b.isCall) {
                    // The callee may halt the program outright.
                    const int64_t inCallee =
                        b.callee >= 0 ? bestHalt[b.callee] : 0;
                    halt = std::min(halt, dist[bid] +
                                              tr.blocks[bid].cycleLo() +
                                              inCallee);
                }
            }
            if (ret < bestRet[fi]) {
                bestRet[fi] = ret;
                changed = true;
            }
            if (halt < bestHalt[fi]) {
                bestHalt[fi] = halt;
                changed = true;
            }
        }
    }

    // --- worst case: finite only when every loop is a proven
    // self-loop, the call graph is acyclic, and every call resolves.
    // Longest path over the self-loop-collapsed DAG, callee costs
    // included; -1 anywhere means unbounded.
    std::vector<int64_t> worstRet(nf, -1), worstAny(nf, -1);
    std::vector<char> onCycle(nf, 0);
    {
        // Call-graph cycles via iterative DFS colors.
        std::vector<int> color(nf, 0);
        for (size_t root = 0; root < nf; ++root) {
            if (color[root])
                continue;
            std::vector<std::pair<int, size_t>> stack{
                {static_cast<int>(root), 0}};
            color[root] = 1;
            while (!stack.empty()) {
                auto &[f, ci] = stack.back();
                const auto &callees = cfg_.funcs[f].callees;
                if (ci < callees.size()) {
                    const int c = callees[ci++];
                    if (color[c] == 1) {
                        onCycle[c] = 1;
                        onCycle[f] = 1;
                    } else if (color[c] == 0) {
                        color[c] = 1;
                        stack.push_back({c, 0});
                    }
                } else {
                    color[f] = 2;
                    stack.pop_back();
                }
            }
        }
    }

    changed = true;
    while (changed) {
        changed = false;
        for (size_t fi = 0; fi < nf; ++fi) {
            const Function &fn = cfg_.funcs[fi];
            if (fn.entryBlock < 0)
                continue;
            if (fn.hasUnresolvedCall || onCycle[fi])
                continue;
            if (tr.funcs[fi].unboundedLoops > 0)
                continue;
            bool calleesReady = true;
            for (int c : fn.callees)
                if (worstRet[c] < 0)
                    calleesReady = false;
            if (!calleesReady)
                continue;

            // Topological order over intra edges minus self-loops.
            std::vector<int> order;
            {
                std::vector<int> indeg(cfg_.blocks.size(), 0);
                for (int bid : fn.blocks)
                    for (int s : intraSuccs(cfg_.blocks[bid]))
                        if (s != bid && cfg_.blocks[s].func ==
                                            static_cast<int>(fi))
                            ++indeg[s];
                std::deque<int> q;
                for (int bid : fn.blocks)
                    if (indeg[bid] == 0)
                        q.push_back(bid);
                while (!q.empty()) {
                    const int bid = q.front();
                    q.pop_front();
                    order.push_back(bid);
                    for (int s : intraSuccs(cfg_.blocks[bid]))
                        if (s != bid && cfg_.blocks[s].func ==
                                            static_cast<int>(fi))
                            if (--indeg[s] == 0)
                                q.push_back(s);
                }
            }
            if (order.size() != fn.blocks.size())
                continue;  // residual cycle: stays unbounded

            auto weight = [&](int bid) -> int64_t {
                const Block &b = cfg_.blocks[bid];
                int64_t w = tr.blocks[bid].cycleHi();
                if (b.isCall)
                    w += worstRet[b.callee];
                else if (selfTrip_[bid] > 0)
                    w *= selfTrip_[bid];
                return w;
            };

            std::vector<int64_t> dist(cfg_.blocks.size(), -1);
            dist[fn.entryBlock] = 0;
            int64_t ret = -1, any = -1;
            for (int bid : order) {
                if (dist[bid] < 0)
                    continue;
                const Block &b = cfg_.blocks[bid];
                const int64_t w = weight(bid);
                any = std::max(any, dist[bid] + w);
                if (b.isReturn)
                    ret = std::max(ret, dist[bid] + w);
                if (b.isCall && worstAny[b.callee] >= 0)
                    any = std::max(any,
                                   dist[bid] + tr.blocks[bid].cycleHi() +
                                       worstAny[b.callee]);
                for (int s : intraSuccs(b))
                    if (s != bid &&
                        cfg_.blocks[s].func == static_cast<int>(fi))
                        dist[s] = std::max(dist[s], dist[bid] + w);
            }
            // A function with no reachable return keeps worstRet = -1:
            // callers treat that as unbounded (conservative). Its own
            // halting paths are still bounded via worstAny.
            if (ret >= 0 && ret != worstRet[fi]) {
                worstRet[fi] = ret;
                changed = true;
            }
            const int64_t newAny = std::max(any, ret);
            if (newAny >= 0 && newAny != worstAny[fi]) {
                worstAny[fi] = newAny;
                changed = true;
            }
        }
    }

    for (size_t fi = 0; fi < nf; ++fi) {
        tr.funcs[fi].bestCycles = bestRet[fi] >= INF ? 0 : bestRet[fi];
        tr.funcs[fi].worstCycles = worstRet[fi];
    }
    if (cfg_.entryFunc >= 0) {
        const int64_t best = std::min(bestRet[cfg_.entryFunc],
                                      bestHalt[cfg_.entryFunc]);
        tr.bestCycles = best >= INF ? 0 : best;
        tr.worstCycles = worstAny[cfg_.entryFunc];
    }
}

TimingResult
TimingAnalyzer::run()
{
    TimingResult tr;
    tr.cfg = &cfg_;
    tr.opts = opts_;
    tr.funcs.assign(cfg_.funcs.size(), FuncTiming{});
    computeEffects();
    propagate();
    finalizeSites(tr);
    analyzeLoops(tr);
    computeBounds(tr);
    return tr;
}

} // namespace

TimingResult
analyzeTiming(const ImageCfg &cfg, DiagEngine &diags,
              const TimingOptions &opts)
{
    panicIf(!cfg.image, "timing: CFG has no image");
    return TimingAnalyzer(cfg, diags, opts).run();
}

std::string
TimingResult::blockLabel(int blockId) const
{
    const uint32_t addr = cfg->insns[cfg->blocks[blockId].first].addr;
    std::string sym;
    uint32_t symAddr = 0;
    for (const auto &[a, name] : cfg->textSyms) {
        if (a > addr)
            break;
        sym = name;
        symAddr = a;
    }
    if (sym.empty())
        return hexString(addr);
    if (addr == symAddr)
        return sym;
    return sym + "+" + hexString(addr - symAddr);
}

void
TimingResult::renderText(std::ostream &os) const
{
    os << "  " << sites.size() << " sites: " << loadUseSites
       << " load-use, " << fpBusySites << " fp-busy ("
       << guaranteedStallSites << " guaranteed, " << maybeStallSites
       << " possible), " << bubbleSites << " bubbles, "
       << seqRefillSites << "+" << branchRefillSites
       << " fetch refills (seq+branch)\n";
    os << "  static stalls per pass: [" << staticStallLo << ", "
       << staticStallHi << "] cycles; " << preciseSites
       << " precise sites\n";
    if (!opts.uarch.isDefault()) {
        os << "  uarch " << opts.uarch.key() << ": " << branchSites
           << " branch-charge sites (hi " << staticBranchHi
           << " cycles/pass), " << bhtAliasSites << " BHT aliases\n";
    }
    os << "  loops: " << boundedLoops << " bounded, " << unboundedLoops
       << " unbounded\n";
    os << "  program base cycles: best " << bestCycles << ", worst ";
    if (worstCycles < 0)
        os << "unbounded";
    else
        os << worstCycles;
    os << "\n";
}

void
TimingResult::renderJson(std::ostream &os) const
{
    os << "{\"sites\":" << sites.size()
       << ",\"loadUseSites\":" << loadUseSites
       << ",\"fpBusySites\":" << fpBusySites
       << ",\"guaranteedStallSites\":" << guaranteedStallSites
       << ",\"maybeStallSites\":" << maybeStallSites
       << ",\"preciseSites\":" << preciseSites
       << ",\"bubbleSites\":" << bubbleSites
       << ",\"seqRefillSites\":" << seqRefillSites
       << ",\"branchRefillSites\":" << branchRefillSites
       << ",\"staticStallLo\":" << staticStallLo
       << ",\"staticStallHi\":" << staticStallHi
       << ",\"boundedLoops\":" << boundedLoops
       << ",\"unboundedLoops\":" << unboundedLoops;
    // Emitted only off the default machine so the pre-uarch golden
    // documents stay byte-identical.
    if (!opts.uarch.isDefault()) {
        os << ",\"uarch\":\"" << opts.uarch.key() << "\""
           << ",\"branchSites\":" << branchSites
           << ",\"bhtAliasSites\":" << bhtAliasSites
           << ",\"staticBranchHi\":" << staticBranchHi;
    }
    os << ",\"bestCycles\":" << bestCycles
       << ",\"worstCycles\":" << worstCycles << "}";
}

int
crossValidateTiming(const TimingResult &timing, const PcProfile &profile,
                    const sim::SimStats &stats, DiagEngine &diags)
{
    const ImageCfg &cfg = *timing.cfg;
    int findings = 0;
    uint64_t sumLoad = 0, sumFp = 0, sumBranch = 0, bubbleExecs = 0;

    for (const auto &[pc, pt] : profile.sites) {
        sumLoad += pt.loadStall;
        sumFp += pt.fpStall;
        sumBranch += pt.branchStall;
        const int i = cfg.insnAt(pc);
        if (i < 0) {
            findings += emitXval(
                diags, cfg, "tim-xval-unknown-pc", pc, true,
                "executed PC is not a decoded instruction site");
            continue;
        }
        const SiteTiming &s = timing.sites[i];
        if (!s.reachable) {
            findings += emitXval(
                diags, cfg, "tim-xval-unreachable", pc, true,
                "executed a site the timing propagation never reached");
        }
        const uint64_t total = pt.loadStall + pt.fpStall;
        const uint64_t lo = pt.execs * s.stallLo;
        const uint64_t hi = pt.execs * s.stallHi;
        if (total < lo || total > hi) {
            findings += emitXval(
                diags, cfg, "tim-xval-stall-range", pc, true,
                "observed " + std::to_string(total) +
                    " stall cycles over " + std::to_string(pt.execs) +
                    " executions, outside the static bounds [" +
                    std::to_string(lo) + ", " + std::to_string(hi) +
                    "]");
        }
        if (pt.loadStall > 0 && !s.loadUse) {
            findings += emitXval(
                diags, cfg, "tim-xval-category", pc, true,
                "a load interlock occurred where the static model "
                "proves none is possible");
        }
        if (pt.fpStall > 0 && !s.fpBusy) {
            findings += emitXval(
                diags, cfg, "tim-xval-category", pc, true,
                "an FP stall occurred where the static model proves "
                "none is possible");
        }
        if (pt.branchStall > pt.execs * s.branchStallHi) {
            findings += emitXval(
                diags, cfg, "tim-xval-branch-range", pc, true,
                "observed " + std::to_string(pt.branchStall) +
                    " branch stall cycles over " +
                    std::to_string(pt.execs) +
                    " executions, above the static bound " +
                    std::to_string(pt.execs * s.branchStallHi));
        }
        if (s.branchBubble)
            bubbleExecs += pt.execs;
    }

    if (sumLoad != stats.loadInterlocks || sumFp != stats.fpInterlocks) {
        findings += emitXval(
            diags, cfg, "tim-xval-total", 0, false,
            "per-PC stalls sum to " + std::to_string(sumLoad) + "+" +
                std::to_string(sumFp) + " but the machine counted " +
                std::to_string(stats.loadInterlocks) + "+" +
                std::to_string(stats.fpInterlocks) +
                " load+fp interlock cycles");
    }
    if (sumBranch != stats.branchStalls) {
        findings += emitXval(
            diags, cfg, "tim-xval-branch-total", 0, false,
            "per-PC branch stalls sum to " + std::to_string(sumBranch) +
                " but the machine counted " +
                std::to_string(stats.branchStalls) +
                " branch stall cycles");
    }
    if (bubbleExecs != stats.branchBubbles) {
        findings += emitXval(
            diags, cfg, "tim-xval-bubbles", 0, false,
            "static bubble sites executed " +
                std::to_string(bubbleExecs) +
                " times but the machine counted " +
                std::to_string(stats.branchBubbles) +
                " branch bubbles");
    }
    const uint64_t base = stats.baseCycles();
    if (static_cast<int64_t>(base) < timing.bestCycles ||
        (timing.worstCycles >= 0 &&
         static_cast<int64_t>(base) > timing.worstCycles)) {
        findings += emitXval(
            diags, cfg, "tim-xval-bounds", 0, false,
            "run took " + std::to_string(base) +
                " base cycles, outside the static bounds [" +
                std::to_string(timing.bestCycles) + ", " +
                (timing.worstCycles < 0
                     ? std::string("unbounded")
                     : std::to_string(timing.worstCycles)) +
                "]");
    }
    return findings;
}

mc::SchedFeedback
schedFeedback(const TimingResult &timing, DiagEngine &diags)
{
    const ImageCfg &cfg = *timing.cfg;
    const TargetInfo &t = *cfg.image->target;
    mc::SchedFeedback fb;

    auto slotAt = [&](int i) {
        return sim::issueSlot(t, cfg.insns[i].d, timing.opts.fpu);
    };
    auto memClass = [](Op op) {
        const OpClass c = opClass(op);
        return c == OpClass::Load || c == OpClass::Store ||
               c == OpClass::LoadConst;
    };
    auto isStore = [](Op op) { return opClass(op) == OpClass::Store; };
    auto reads = [](const Slot &s, uint8_t res) {
        return s.src0 == res || s.src1 == res;
    };

    for (const Block &b : cfg.blocks) {
        if (b.func < 0)
            continue;
        for (int u = b.first + 1; u <= b.last; ++u) {
            if (!timing.sites[u].guaranteedLoad)
                continue;
            // The producer must be the load directly before the
            // consumer in this block (a cross-block interlock is not
            // the scheduler's to fix).
            const Slot le = slotAt(u - 1);
            if (le.lat != Slot::LoadLatency || !reads(slotAt(u), le.dst))
                continue;
            fb.loadUseSites += 1;

            // Could some later instruction of the block legally move
            // into the load delay? Same rules the scheduler applies:
            // stay inside the block, leave the terminator and its
            // delay slot alone, respect register dependences against
            // everything jumped over (and don't move a consumer of
            // the load itself — that just relocates the stall), and
            // order memory operations conservatively (a store never
            // crosses another memory op, a load never crosses a
            // store).
            const int limit = b.cfIndex >= 0 ? b.cfIndex - 1 : b.last;
            bool avoidable = false;
            for (int m = u + 1; m <= limit && !avoidable; ++m) {
                const DecodedInst &md = cfg.insns[m].d;
                if (md.op == Op::Trap)
                    break;  // syscalls are scheduling barriers
                if (isa::isCanonicalNop(t, md))
                    continue;  // moving a nop hides nothing
                const Slot me = slotAt(m);
                bool ok = true;
                for (int k = u - 1; k < m && ok; ++k) {
                    const Slot ke = slotAt(k);
                    if (me.dst != Slot::Sink &&
                        (ke.dst == me.dst || reads(ke, me.dst)))
                        ok = false;
                    if (ke.dst != Slot::Sink && reads(me, ke.dst))
                        ok = false;
                }
                if (ok && isStore(md.op)) {
                    for (int k = u - 1; k < m && ok; ++k)
                        ok = !memClass(cfg.insns[k].d.op);
                } else if (ok && memClass(md.op)) {
                    for (int k = u; k < m && ok; ++k)
                        ok = !isStore(cfg.insns[k].d.op);
                }
                avoidable = ok;
            }
            if (!avoidable)
                continue;
            fb.avoidableSites += 1;
            fb.avoidableAddrs.push_back(cfg.insns[u].addr);
            Diag d;
            d.severity = Severity::Note;
            d.code = "tim-avoidable-load-use";
            d.message = "this load-use interlock could be hidden by "
                        "scheduling a later independent instruction "
                        "into the load delay";
            d.addr = cfg.insns[u].addr;
            d.hasAddr = true;
            d.symbol = cfg.enclosingSymbol(d.addr);
            d.line = cfg.insns[u].line;
            diags.report(std::move(d));
        }
    }
    return fb;
}

} // namespace d16sim::analysis
