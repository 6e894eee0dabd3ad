#include "mc/regalloc.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>

#include "mc/liveness.hh"
#include "support/error.hh"

namespace d16sim::mc
{

namespace
{

IrInst
makeMov(VReg dst, VReg src)
{
    IrInst m;
    m.op = IrOp::Mov;
    m.dst = dst;
    m.a = src;
    return m;
}

} // namespace

void
lowerCallsAbi(IrFunction &fn, const MachineEnv &env)
{
    // Entry: parameters arrive in precolored registers (or on the
    // stack beyond the register count).
    {
        std::vector<IrInst> prologue;
        int intIdx = 0, fpIdx = 0;
        const auto &iArgs = env.argRegs(RegClass::Int);
        const auto &fArgs = env.argRegs(RegClass::Fp);
        int stackIdx = 0;
        for (VReg p : fn.params) {
            const bool isInt = p.cls == RegClass::Int;
            int &idx = isInt ? intIdx : fpIdx;
            const auto &regs = isInt ? iArgs : fArgs;
            if (idx < static_cast<int>(regs.size())) {
                const VReg pin = fn.newReg(p.cls);
                fn.setPrecolor(pin, regs[idx]);
                prologue.push_back(makeMov(p, pin));
                ++idx;
            } else {
                if (!isInt)
                    fatal("too many floating-point parameters in ",
                          fn.name);
                IrInst load;
                load.op = IrOp::Load;
                load.dst = p;
                load.addr = Address::frame(incomingArgSlot(stackIdx));
                load.size = 4;
                prologue.push_back(std::move(load));
                ++stackIdx;
            }
        }
        fn.blocks[0].insts.insert(fn.blocks[0].insts.begin(),
                                  std::make_move_iterator(prologue.begin()),
                                  std::make_move_iterator(prologue.end()));
    }

    for (BasicBlock &bb : fn.blocks) {
        std::vector<IrInst> out;
        out.reserve(bb.insts.size());
        for (IrInst &inst : bb.insts) {
            if (inst.op == IrOp::Ret && inst.a.valid()) {
                const VReg pret = fn.newReg(inst.a.cls);
                fn.setPrecolor(pret, env.retReg(inst.a.cls));
                out.push_back(makeMov(pret, inst.a));
                inst.a = pret;
                out.push_back(std::move(inst));
                continue;
            }
            if (inst.op != IrOp::Call) {
                out.push_back(std::move(inst));
                continue;
            }

            // Arguments into precolored registers / outgoing area.
            std::vector<VReg> newArgs;
            int intIdx = 0, fpIdx = 0, stackIdx = 0;
            const auto &iArgs = env.argRegs(RegClass::Int);
            const auto &fArgs = env.argRegs(RegClass::Fp);
            for (VReg arg : inst.args) {
                const bool isInt = arg.cls == RegClass::Int;
                int &idx = isInt ? intIdx : fpIdx;
                const auto &regs = isInt ? iArgs : fArgs;
                if (idx < static_cast<int>(regs.size())) {
                    const VReg p = fn.newReg(arg.cls);
                    fn.setPrecolor(p, regs[idx]);
                    out.push_back(makeMov(p, arg));
                    newArgs.push_back(p);
                    ++idx;
                } else {
                    if (!isInt)
                        fatal("too many floating-point arguments to ",
                              inst.sym);
                    IrInst st;
                    st.op = IrOp::Store;
                    st.a = arg;
                    st.addr =
                        Address::frame(outgoingArgSlot(stackIdx));
                    st.size = 4;
                    out.push_back(std::move(st));
                    ++stackIdx;
                }
            }
            inst.args = std::move(newArgs);

            // Result out of the precolored return register.
            if (inst.dst.valid()) {
                const VReg pret = fn.newReg(inst.dst.cls);
                fn.setPrecolor(pret, env.retReg(inst.dst.cls));
                const VReg realDst = inst.dst;
                inst.dst = pret;
                out.push_back(std::move(inst));
                out.push_back(makeMov(realDst, pret));
                continue;
            }
            out.push_back(std::move(inst));
        }
        bb.insts = std::move(out);
    }
}

namespace
{

/**
 * The interference-graph colorer for one attempt. Adjacency is a list
 * per node plus an n x n bit matrix for the membership test (Briggs,
 * Cooper & Torczon; George & Appel). After build() and after every
 * merge the lists hold only representatives and stay symmetric, so a
 * node's degree is its list's length.
 */
struct Colorer
{
    IrFunction &fn;
    const MachineEnv &env;

    int n = 0;
    std::vector<std::vector<int>> adj;
    std::vector<bool> bits;  //!< the n x n interference matrix
    std::vector<bool> crossesCall;
    std::vector<double> spillCost;
    std::vector<int> loopDepth;  //!< per block

    // Union-find for coalescing.
    std::vector<int> alias;

    int
    find(int v)
    {
        while (alias[v] != v)
            v = alias[v] = alias[alias[v]];
        return v;
    }

    bool
    precolored(int v) const
    {
        return fn.precolorOf(v) >= 0;
    }

    bool
    interferes(int u, int v) const
    {
        return bits[static_cast<size_t>(u) * n + v];
    }

    void
    addEdge(int u, int v)
    {
        if (u == v || fn.vregClass[u] != fn.vregClass[v] ||
            interferes(u, v)) {
            return;
        }
        bits[static_cast<size_t>(u) * n + v] = true;
        bits[static_cast<size_t>(v) * n + u] = true;
        adj[u].push_back(v);
        adj[v].push_back(u);
    }

    void
    computeLoopDepth()
    {
        const int nb = static_cast<int>(fn.blocks.size());
        loopDepth.assign(nb, 0);
        std::vector<std::vector<int>> preds(nb);
        for (int b = 0; b < nb; ++b)
            for (int s : fn.blocks[b].successors())
                preds[s].push_back(b);
        for (int header = 0; header < nb; ++header) {
            std::vector<int> latches;
            for (int p : preds[header])
                if (p >= header)
                    latches.push_back(p);
            if (latches.empty())
                continue;
            std::vector<bool> inLoop(nb, false);
            inLoop[header] = true;
            std::vector<int> work;
            for (int l : latches) {
                if (!inLoop[l]) {
                    inLoop[l] = true;
                    work.push_back(l);
                }
            }
            while (!work.empty()) {
                const int b = work.back();
                work.pop_back();
                if (b == header)
                    continue;
                for (int p : preds[b]) {
                    if (!inLoop[p]) {
                        inLoop[p] = true;
                        work.push_back(p);
                    }
                }
            }
            for (int b = 0; b < nb; ++b)
                if (inLoop[b])
                    ++loopDepth[b];
        }
    }

    void
    build()
    {
        n = fn.numVRegs();
        adj.assign(n, {});
        bits.assign(static_cast<size_t>(n) * n, false);
        crossesCall.assign(n, false);
        spillCost.assign(n, 0.0);
        alias.resize(n);
        for (int i = 0; i < n; ++i)
            alias[i] = i;

        computeLoopDepth();
        const Liveness lv = computeLiveness(fn);

        for (size_t b = 0; b < fn.blocks.size(); ++b) {
            RegSet live = lv.liveOut[b];
            const double weight =
                std::min(1e9, std::pow(10.0, loopDepth[b]));
            auto &insts = fn.blocks[b].insts;
            for (auto it = insts.rbegin(); it != insts.rend(); ++it) {
                const IrInst &inst = *it;
                const VReg d = defOf(inst);

                if (inst.op == IrOp::Call && inst.trapCode < 0) {
                    // Everything live across a real call must avoid
                    // caller-saved registers (traps preserve
                    // registers other than their r2/f2 interface).
                    RegSet after = live;
                    if (d.valid())
                        after.remove(d.id);
                    after.forEach(
                        [&](int id) { crossesCall[id] = true; });
                }

                if (d.valid()) {
                    spillCost[d.id] += weight;
                    live.forEach([&](int id) {
                        if (id != d.id) {
                            // Move sources do not interfere with the
                            // destination (coalescing candidates).
                            if (inst.op == IrOp::Mov && inst.a.valid() &&
                                inst.a.id == id) {
                                return;
                            }
                            addEdge(d.id, id);
                        }
                    });
                    live.remove(d.id);
                }
                // Two-address tie: the second operand must not share
                // the destination's register.
                if (env.twoAddress() && d.valid() && inst.b.isReg() &&
                    inst.a.valid() && inst.a.id == d.id) {
                    addEdge(d.id, inst.b.reg.id);
                }
                forEachUse(inst, [&](VReg r) {
                    spillCost[r.id] += weight;
                    live.add(r.id);
                });
            }
        }
    }

    /** Conservative (Briggs) coalescing of move-related nodes. */
    int
    coalesce()
    {
        int merged = 0;
        bool changed = true;
        while (changed) {
            changed = false;
            for (BasicBlock &bb : fn.blocks) {
                for (IrInst &inst : bb.insts) {
                    if (inst.op != IrOp::Mov || !inst.a.valid() ||
                        !inst.dst.valid()) {
                        continue;
                    }
                    int u = find(inst.dst.id);
                    int v = find(inst.a.id);
                    if (u == v)
                        continue;
                    if (fn.vregClass[u] != fn.vregClass[v])
                        continue;
                    if (interferes(u, v))
                        continue;  // interfere: cannot merge
                    if (precolored(u) && precolored(v))
                        continue;
                    // Merge into the precolored node if any.
                    if (precolored(v))
                        std::swap(u, v);
                    if (precolored(u)) {
                        // Merging v into a fixed register u is only
                        // safe if v never interferes with another node
                        // bound to the same register, and the register
                        // remains legal across any calls v spans.
                        const int phys = fn.precolorOf(u);
                        const RegClass cls = fn.vregClass[u];
                        if (crossesCall[v] && !env.isCalleeSaved(phys, cls))
                            continue;
                        const bool clash = std::any_of(
                            adj[v].begin(), adj[v].end(), [&](int w) {
                                return fn.precolorOf(w) == phys;
                            });
                        if (clash)
                            continue;
                    }
                    // Briggs test: the combined node has < K
                    // significant neighbors. Neither list holds u or v.
                    const size_t k = env.allocatable(fn.vregClass[u]).size();
                    auto significant = [&](int w) {
                        return adj[w].size() >= k || precolored(w);
                    };
                    size_t count = 0;
                    for (int w : adj[u])
                        count += significant(w);
                    for (int w : adj[v])
                        count += !interferes(u, w) && significant(w);
                    if (count >= k)
                        continue;
                    // Merge v into u: each neighbour of v trades its
                    // edge to v for one to u. v's bits go stale, as only
                    // representatives are ever tested.
                    alias[v] = u;
                    crossesCall[u] =
                        crossesCall[u] || crossesCall[v];
                    spillCost[u] += spillCost[v];
                    for (int w : adj[v]) {
                        std::erase(adj[w], v);
                        addEdge(u, w);
                    }
                    adj[v].clear();
                    ++merged;
                    changed = true;
                }
            }
        }
        return merged;
    }

    /** Color; returns spilled representative nodes (empty = success).
     *  On success fills `color` for every representative. */
    std::vector<int>
    select(std::vector<int> &color)
    {
        color.assign(n, -1);
        // The legal colours depend only on (class, crossesCall).
        std::array<std::vector<int>, 4> allowed;
        for (const RegClass cls : {RegClass::Int, RegClass::Fp}) {
            for (int r : env.allocatable(cls)) {
                allowed[2 * (cls == RegClass::Fp)].push_back(r);
                if (env.isCalleeSaved(r, cls))
                    allowed[2 * (cls == RegClass::Fp) + 1].push_back(r);
            }
        }
        auto allowedColors = [&](int v) -> const std::vector<int> & {
            return allowed[2 * (fn.vregClass[v] == RegClass::Fp) +
                           crossesCall[v]];
        };

        std::vector<int> reps;
        for (int v = 0; v < n; ++v)
            if (find(v) == v && (adj[v].size() || isUsed(v)))
                reps.push_back(v);

        // Precolored get their colors immediately.
        for (int v : reps)
            if (precolored(v))
                color[v] = fn.precolorOf(v);

        // Simplify: repeatedly remove min-degree uncolored nodes.
        // degree[v] counts v's neighbours not yet removed.
        std::vector<int> stack;
        std::vector<uint8_t> removed(n, 0);
        std::vector<int> degree(n, 0);
        std::vector<int> work;
        for (int v : reps) {
            degree[v] = static_cast<int>(adj[v].size());
            if (!precolored(v))
                work.push_back(v);
        }

        while (stack.size() < work.size()) {
            // Pick a node with degree < K if possible, else the one
            // with the lowest spill cost / degree (optimistic push).
            int best = -1;
            double bestScore = 0;
            for (int v : work) {
                if (removed[v])
                    continue;
                const int k = static_cast<int>(allowedColors(v).size());
                const int d = degree[v];
                if (d < k) {
                    best = v;
                    break;
                }
                const double score = spillCost[v] / std::max(1, d);
                if (best < 0 || score < bestScore) {
                    best = v;
                    bestScore = score;
                }
            }
            stack.push_back(best);
            removed[best] = 1;
            for (int w : adj[best])
                --degree[w];
        }

        // Select in reverse order.
        std::vector<int> spilled;
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            const int v = *it;
            uint64_t taken = 0;
            for (int w : adj[v])
                if (color[w] >= 0)
                    taken |= uint64_t{1} << color[w];
            int chosen = -1;
            for (int c : allowedColors(v)) {
                if (!((taken >> c) & 1)) {
                    chosen = c;
                    break;
                }
            }
            if (chosen < 0)
                spilled.push_back(v);
            else
                color[v] = chosen;
        }
        return spilled;
    }

    bool
    isUsed(int v) const
    {
        return spillCost[v] > 0 || precolored(v);
    }
};

/** Rewrite a spilled vreg into load/store around each use/def. */
void
rewriteSpills(IrFunction &fn, const std::vector<int> &spilledIds,
              const std::vector<int> &aliasRoot,
              std::map<int, int> &slotOfVReg)
{
    // Map every vreg whose representative spilled to one slot
    // (FP registers are 64 bits wide and need 8-byte slots).
    std::map<int, int> slotOf;  // representative -> frame slot
    for (int rep : spilledIds) {
        const bool fp = fn.vregClass[rep] == RegClass::Fp;
        slotOf[rep] = fn.newSlot(fp ? 8 : 4, fp ? 8 : 4, "spill");
    }
    // Record the home slot of every alias of a spilled representative
    // (for Allocation::spillSlot; accumulates across attempts).
    for (int v = 0; v < fn.numVRegs(); ++v) {
        auto it = slotOf.find(aliasRoot[v]);
        if (it != slotOf.end())
            slotOfVReg[v] = it->second;
    }

    auto spillSlot = [&](VReg r) -> int {
        auto it = slotOf.find(aliasRoot[r.id]);
        return it == slotOf.end() ? -1 : it->second;
    };

    for (BasicBlock &bb : fn.blocks) {
        std::vector<IrInst> out;
        out.reserve(bb.insts.size());
        for (IrInst &inst : bb.insts) {
            // Reload uses.
            std::map<int, VReg> reloaded;
            auto reload = [&](VReg &r) {
                const int slot = spillSlot(r);
                if (slot < 0)
                    return;
                auto it = reloaded.find(r.id);
                if (it != reloaded.end()) {
                    r = it->second;
                    return;
                }
                const VReg t = fn.newReg(r.cls);
                if (r.cls == RegClass::Fp) {
                    // 64-bit reload through two words and mif pairs.
                    for (int half = 0; half < 2; ++half) {
                        const VReg w = fn.newReg(RegClass::Int);
                        IrInst ld;
                        ld.op = IrOp::Load;
                        ld.dst = w;
                        ld.addr = Address::frame(slot, 4 * half);
                        ld.size = 4;
                        out.push_back(std::move(ld));
                        IrInst mif;
                        mif.op = half ? IrOp::MifH : IrOp::MifL;
                        mif.dst = t;
                        mif.a = w;
                        out.push_back(std::move(mif));
                    }
                } else {
                    IrInst ld;
                    ld.op = IrOp::Load;
                    ld.dst = t;
                    ld.addr = Address::frame(slot);
                    ld.size = 4;
                    out.push_back(std::move(ld));
                }
                reloaded[r.id] = t;
                r = t;
            };
            if (inst.a.valid() && spillSlot(inst.a) >= 0)
                reload(inst.a);
            if (inst.b.isReg() && spillSlot(inst.b.reg) >= 0)
                reload(inst.b.reg);
            if (inst.addr.kind == AddrKind::Reg &&
                inst.addr.base.valid() &&
                spillSlot(inst.addr.base) >= 0) {
                reload(inst.addr.base);
            }
            for (VReg &arg : inst.args)
                if (spillSlot(arg) >= 0)
                    reload(arg);

            // Spill definitions. A terminator's destination (a DLXe
            // fused-compare temp) dies immediately: redirect it to a
            // fresh temp without a store so the block still ends in
            // the terminator.
            if (inst.isTerminator() && defOf(inst).valid() &&
                spillSlot(defOf(inst)) >= 0) {
                inst.dst = fn.newReg(inst.dst.cls);
                out.push_back(std::move(inst));
                continue;
            }
            const VReg d = defOf(inst);
            const int dslot = d.valid() ? spillSlot(d) : -1;
            if (dslot >= 0) {
                // Reuse the reload temp when the instruction also read
                // this register (two-address ties and MifH partial
                // updates stay intact).
                VReg t;
                auto prev = reloaded.find(d.id);
                if (prev != reloaded.end())
                    t = prev->second;
                else
                    t = fn.newReg(d.cls);
                // MifH partially updates its destination, so the
                // previous value must be present in the temp.
                if (inst.op == IrOp::MifH && prev == reloaded.end()) {
                    for (int half = 0; half < 2; ++half) {
                        const VReg w = fn.newReg(RegClass::Int);
                        IrInst ld;
                        ld.op = IrOp::Load;
                        ld.dst = w;
                        ld.addr = Address::frame(dslot, 4 * half);
                        ld.size = 4;
                        out.push_back(std::move(ld));
                        IrInst mif;
                        mif.op = half ? IrOp::MifH : IrOp::MifL;
                        mif.dst = t;
                        mif.a = w;
                        out.push_back(std::move(mif));
                    }
                }
                inst.dst = t;
                out.push_back(std::move(inst));
                if (d.cls == RegClass::Fp) {
                    for (int half = 0; half < 2; ++half) {
                        const VReg w = fn.newReg(RegClass::Int);
                        IrInst mfi;
                        mfi.op = half ? IrOp::MfiH : IrOp::MfiL;
                        mfi.dst = w;
                        mfi.a = t;
                        out.push_back(std::move(mfi));
                        IrInst st;
                        st.op = IrOp::Store;
                        st.a = w;
                        st.addr = Address::frame(dslot, 4 * half);
                        st.size = 4;
                        out.push_back(std::move(st));
                    }
                } else {
                    IrInst st;
                    st.op = IrOp::Store;
                    st.a = t;
                    st.addr = Address::frame(dslot);
                    st.size = 4;
                    out.push_back(std::move(st));
                }
                continue;
            }
            out.push_back(std::move(inst));
        }
        bb.insts = std::move(out);
    }
}

} // namespace

Allocation
allocateRegisters(IrFunction &fn, const MachineEnv &env)
{
    Allocation result;
    std::map<int, int> slotOfVReg;  // spilled vreg id -> home slot

    for (int attempt = 0;; ++attempt) {
        panicIf(attempt > 16, "register allocation failed to converge in ",
                fn.name);
        Colorer col{fn, env};
        col.build();
        result.coalescedMoves += col.coalesce();
        std::vector<int> color;
        const std::vector<int> spilled = col.select(color);
        if (spilled.empty()) {
            // Map every vreg through its alias to its color.
            result.color.assign(fn.numVRegs(), -1);
            for (int v = 0; v < fn.numVRegs(); ++v) {
                const int rep = col.find(v);
                result.color[v] =
                    color[rep] >= 0 ? color[rep] : fn.precolorOf(rep);
            }
            result.spillSlot.assign(fn.numVRegs(), -1);
            for (const auto &[v, slot] : slotOfVReg)
                result.spillSlot[v] = slot;
            // Record callee-saved usage.
            std::set<int> csInt, csFp;
            for (int v = 0; v < fn.numVRegs(); ++v) {
                const int c = result.color[v];
                if (c < 0)
                    continue;
                if (fn.vregClass[v] == RegClass::Int) {
                    if (env.isCalleeSaved(c, RegClass::Int))
                        csInt.insert(c);
                } else if (env.isCalleeSaved(c, RegClass::Fp)) {
                    csFp.insert(c);
                }
            }
            result.usedCalleeSavedInt.assign(csInt.begin(), csInt.end());
            result.usedCalleeSavedFp.assign(csFp.begin(), csFp.end());

            // Outgoing argument area.
            int maxOut = 0;
            for (const BasicBlock &bb : fn.blocks) {
                for (const IrInst &inst : bb.insts) {
                    if ((inst.op == IrOp::Store ||
                         inst.op == IrOp::Load) &&
                        inst.addr.kind == AddrKind::Frame &&
                        isOutgoingArgSlot(inst.addr.frameSlot)) {
                        maxOut = std::max(
                            maxOut,
                            4 * (outgoingArgIndex(inst.addr.frameSlot) +
                                 1));
                    }
                }
            }
            result.outgoingArgBytes = maxOut;
            return result;
        }

        // Spill and retry.
        result.spilledRegs += static_cast<int>(spilled.size());
        std::vector<int> roots(fn.numVRegs());
        for (int v = 0; v < fn.numVRegs(); ++v)
            roots[v] = col.find(v);
        rewriteSpills(fn, spilled, roots, slotOfVReg);
    }
}

} // namespace d16sim::mc
