#include "analysis/xvalidate.hh"

#include <algorithm>
#include <sstream>

#include "support/strings.hh"

namespace d16sim::analysis
{

using verify::Diag;
using verify::DiagEngine;
using verify::Severity;

namespace
{

int
emit(DiagEngine &diags, const ImageCfg &cfg, const char *code,
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

} // namespace

PcProfile
profileRun(sim::Machine &machine)
{
    PcProfile profile;
    const auto ib = static_cast<uint32_t>(machine.target().insnBytes());
    const sim::SimStats &stats = machine.stats();
    bool havePrev = false;
    uint32_t prevPc = 0;
    while (!machine.halted()) {
        const uint32_t pc = machine.pc();
        const sim::SimStats before = stats;
        machine.step();
        if (stats.instructions == before.instructions)
            break;  // the halt sentinel: nothing executed
        PcProfile::Site &s = profile.sites[pc];
        s.execs += 1;
        s.loadStall += stats.loadInterlocks - before.loadInterlocks;
        s.fpStall += stats.fpInterlocks - before.fpInterlocks;
        s.branchStall += stats.branchStalls - before.branchStalls;
        if (havePrev && pc != prevPc + ib)
            ++profile.edges[{prevPc, pc}];
        havePrev = true;
        prevPc = pc;
    }
    return profile;
}

int
crossValidate(const ImageCfg &cfg, const PcProfile &profile,
              const sim::SimStats &stats, DiagEngine &diags)
{
    int findings = 0;
    uint64_t total = 0;
    uint64_t cfTotal = 0;

    // Per-site checks + totals.
    std::vector<uint64_t> siteCount(cfg.insns.size(), 0);
    for (const auto &[pc, site] : profile.sites) {
        const uint64_t count = site.execs;
        total += count;
        const int i = cfg.insnAt(pc);
        if (i < 0) {
            findings += emit(
                diags, cfg, "cfa-xval-unknown-pc", pc, true,
                "executed PC is not a decoded instruction site");
            continue;
        }
        siteCount[i] = count;
        const isa::OpClass cls = isa::opClass(cfg.insns[i].d.op);
        if (cls == isa::OpClass::Branch || cls == isa::OpClass::Jump)
            cfTotal += count;
        const int b = cfg.blockOf(i);
        if (cfg.blocks[b].func < 0) {
            findings += emit(
                diags, cfg, "cfa-xval-unreachable-executed", pc, true,
                "executed PC lies in a block the static analysis "
                "found unreachable");
        }
    }

    // Exact dynamic totals.
    if (total != stats.instructions) {
        findings += emit(
            diags, cfg, "cfa-xval-count-mismatch", 0, false,
            "per-site execution counts sum to " + std::to_string(total) +
                " but the machine retired " +
                std::to_string(stats.instructions) + " instructions");
    }
    if (cfTotal != stats.branches) {
        findings += emit(
            diags, cfg, "cfa-xval-count-mismatch", 0, false,
            "branch/jump-site counts sum to " + std::to_string(cfTotal) +
                " but the machine counted " +
                std::to_string(stats.branches) + " branches");
    }

    // The dynamically taken edges must be a subset of the static
    // graph: each observed transfer leaves from the end of its block
    // and lands exactly where the CFG says control can go. Valid
    // return points per function: the fall-through heads of every
    // resolved call site of that function.
    std::vector<std::vector<uint32_t>> returnPoints(cfg.funcs.size());
    for (const Block &b : cfg.blocks)
        if (b.func >= 0 && b.isCall && b.callee >= 0)
            for (int s : b.succs)
                returnPoints[b.callee].push_back(
                    cfg.insns[cfg.blocks[s].first].addr);

    for (const auto &[edge, count] : profile.edges) {
        const auto [from, to] = edge;
        const int fi = cfg.insnAt(from);
        const int ti = cfg.insnAt(to);
        if (fi < 0 || ti < 0)
            continue;  // already reported as cfa-xval-unknown-pc
        const Block &b = cfg.blocks[cfg.blockOf(fi)];
        if (b.func < 0)
            continue;  // already cfa-xval-unreachable-executed
        if (b.hasIndirect)
            continue;  // statically unresolved: anything goes
        std::string reason;
        if (fi != b.last) {
            reason = "control left mid-block";
        } else if (b.isCall && b.callee >= 0) {
            if (to != cfg.funcs[b.callee].entryAddr)
                reason = "call did not enter the resolved callee " +
                         cfg.funcs[b.callee].name;
        } else if (b.isCall) {
            // Unresolved callee: no static claim to check.
        } else if (b.isReturn) {
            const auto &rps = returnPoints[b.func];
            if (std::find(rps.begin(), rps.end(), to) == rps.end())
                reason = "return landed on a PC that is not a "
                         "return point of " + cfg.funcs[b.func].name;
        } else {
            bool found = false;
            for (int s : b.succs)
                found |= to == cfg.insns[cfg.blocks[s].first].addr;
            if (!found)
                reason = "transfer target is not a static "
                         "successor head";
        }
        if (!reason.empty()) {
            findings += emit(
                diags, cfg, "cfa-xval-edge", from, true,
                "observed edge to " + hexString(to) + " (taken " +
                    std::to_string(count) + " time(s)) is not in "
                    "the static CFG: " + reason);
        }
    }

    // Prefix-shaped execution within each block.
    for (const Block &b : cfg.blocks) {
        for (int i = b.first; i < b.last; ++i) {
            if (siteCount[i + 1] > siteCount[i]) {
                findings += emit(
                    diags, cfg, "cfa-xval-block-profile",
                    cfg.insns[i + 1].addr, true,
                    "instruction executed " +
                        std::to_string(siteCount[i + 1]) +
                        " times, more than its block predecessor (" +
                        std::to_string(siteCount[i]) +
                        "): block boundaries are wrong");
                break;  // one finding per block is enough
            }
        }
    }

    return findings;
}

} // namespace d16sim::analysis
