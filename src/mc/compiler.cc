#include "mc/compiler.hh"

#include "asm/parser.hh"
#include "mc/codegen.hh"
#include "mc/irgen.hh"
#include "mc/legalize.hh"
#include "mc/opt.hh"
#include "mc/parser.hh"
#include "mc/regalloc.hh"
#include "mc/sema.hh"
#include "mc/runtime.hh"

namespace d16sim::mc
{

namespace
{

/** String literals can appear in global initializers, which sema does
 *  not walk; pool them here. */
void
poolGlobalInitStrings(Program &prog)
{
    auto pool = [&](Expr &e) {
        if (e.kind == ExprKind::StringLit) {
            prog.strings.push_back(e.strValue);
            e.intValue = static_cast<int64_t>(prog.strings.size()) - 1;
        }
    };
    for (GlobalDecl &g : prog.globals) {
        if (g.init)
            pool(*g.init);
        for (ExprPtr &e : g.initList)
            pool(*e);
    }
}

} // namespace

CompileResult
compile(std::string_view source, const CompileOptions &opts)
{
    Program prog = parseProgram(source);
    poolGlobalInitStrings(prog);
    analyze(prog);

    IrModule mod = generateIr(prog);

    const MachineEnv env(opts);
    CodeGen cg(prog, env);
    cg.layoutGlobals();
    const GpOffsetFn gpOff = [&cg](const std::string &sym) {
        return cg.gpOffset(sym);
    };

    // Stage-boundary verification (src/verify installs the hook). The
    // per-pass form is opt-in: the coarse boundaries already bracket
    // every stage, the per-pass hook just names the culprit directly.
    const auto verify = [&](const IrFunction &fn, const char *stage,
                            const MachineEnv *stageEnv) {
        if (opts.verifyHook)
            opts.verifyHook(fn, stage, stageEnv);
    };
    const std::shared_ptr<PassValidator> &tv = opts.validator;
    PassHook afterPass;
    const bool perPassVerify = opts.verifyHook && opts.verifyEach;
    if (perPassVerify || tv) {
        afterPass = [&](const IrFunction &before, const IrFunction &after,
                        const char *pass) {
            if (perPassVerify)
                opts.verifyHook(after, pass, nullptr);
            if (tv)
                tv->afterIrPass(before, after, pass, nullptr);
        };
    }
    // Snapshot-and-validate wrapper for the whole-function stages.
    const auto staged = [&](IrFunction &fn, const char *stage,
                            const auto &stageFn) {
        if (tv) {
            const IrFunction before = fn;
            stageFn();
            tv->afterIrPass(before, fn, stage, &env);
        } else {
            stageFn();
        }
    };

    CompileResult result;
    for (IrFunction &fn : mod.functions) {
        verify(fn, "irgen", nullptr);
        optimize(fn, opts.optLevel, afterPass);
        verify(fn, "optimize", nullptr);
        staged(fn, "legalize", [&] { legalize(fn, env, gpOff); });
        verify(fn, "legalize", &env);
        staged(fn, "lower-calls-abi", [&] { lowerCallsAbi(fn, env); });
        verify(fn, "lower-calls-abi", &env);
        Allocation alloc;
        if (tv) {
            const IrFunction before = fn;
            alloc = allocateRegisters(fn, env);
            tv->afterRegalloc(before, fn, alloc, env);
        } else {
            alloc = allocateRegisters(fn, env);
        }
        result.spilledRegs += alloc.spilledRegs;
        result.coalescedMoves += alloc.coalescedMoves;
        cg.emitFunction(fn, alloc);
    }
    cg.emitData();

    std::vector<assem::AsmItem> items;
    items.push_back(assem::AsmItem::section(true));
    for (assem::AsmItem &item : cg.take())
        items.push_back(std::move(item));

    // Runtime library (identical algorithms on both machines).
    items.push_back(assem::AsmItem::section(true));
    for (assem::AsmItem &item :
         assem::parseAsm(env.target(), runtimeSource(opts.isa))) {
        items.push_back(std::move(item));
    }

    if (opts.optLevel >= 2) {
        if (tv) {
            const std::vector<assem::AsmItem> before = items;
            result.sched = schedule(items, env.target());
            tv->afterSchedule(before, items, env);
        } else {
            result.sched = schedule(items, env.target());
        }
    }

    result.items = std::move(items);
    return result;
}

} // namespace d16sim::mc
