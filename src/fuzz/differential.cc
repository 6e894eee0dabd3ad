#include "fuzz/fuzz.hh"

#include <array>

#include "core/replay/replay.hh"
#include "core/toolchain.hh"
#include "oracle/interp.hh"
#include "support/error.hh"

namespace d16sim::fuzz
{

namespace
{

struct Variant
{
    const char *name;
    mc::CompileOptions opts;
};

std::array<Variant, 5>
variants()
{
    return {{
        {"D16", mc::CompileOptions::d16()},
        {"DLXe/16/2", mc::CompileOptions::dlxe(16, false)},
        {"DLXe/16/3", mc::CompileOptions::dlxe(16, true)},
        {"DLXe/32/2", mc::CompileOptions::dlxe(32, false)},
        {"DLXe/32/3", mc::CompileOptions::dlxe(32, true)},
    }};
}

bool
isInstructionLimit(const std::string &msg)
{
    return msg.find("instruction limit") != std::string::npos;
}

std::string
excerpt(const std::string &s)
{
    if (s.size() <= 160)
        return s;
    return s.substr(0, 160) + "...";
}

} // namespace

DiffOutcome
runDifferential(const std::string &source)
{
    DiffOutcome out;

    // The oracle runs first: a program that traps or blows a budget
    // has no pinned meaning, so it is discarded without ever building
    // (CSmith-style discard of undefined candidates).
    oracle::RunResult ref;
    try {
        oracle::Limits lim;
        lim.maxSteps = 20'000'000;
        ref = oracle::interpretSource(source, lim);
    } catch (const FatalError &e) {
        // The front end (parse + sema) is shared with the compiler: a
        // rejection means the program is simply invalid, not that the
        // toolchain diverged.  Skip keeps the minimizer from shrinking
        // reproducers into syntax errors.
        out.kind = DiffKind::Skip;
        out.detail = std::string("front end rejected program: ") +
                     e.what();
        return out;
    }
    if (ref.outcome != oracle::Outcome::Exit) {
        out.kind = DiffKind::Skip;
        out.detail = ref.reason;
        return out;
    }

    for (const Variant &v : variants()) {
        for (int opt = 0; opt <= 2; ++opt) {
            mc::CompileOptions opts = v.opts;
            opts.optLevel = opt;
            // Static arm of the differential: every pass of every
            // fuzz compile is also translation-validated, so a
            // miscompile the runtime comparison happens not to
            // exercise still surfaces as a PanicError divergence.
            opts.validateEach = true;
            const std::string where =
                std::string(v.name) + " -O" + std::to_string(opt);

            // Three-way differential per variant: the reference
            // interpreter, step dispatch, and the block-compiled
            // threaded-code engine must all agree; step vs block
            // additionally compares every SimStats counter, on the
            // paper's machine and with every uarch axis off it. A
            // fourth leg retimes the default run's trace to the uarch
            // machine (timing replay), which must match its step run.
            core::RunMeasurement run;
            core::RunMeasurement blockRun;
            core::RunMeasurement uarchRun;
            core::RunMeasurement uarchBlockRun;
            core::RunMeasurement uarchReplay;
            bool retimed = false;
            try {
                const assem::Image image = core::build(source, opts);
                const auto predecoded =
                    std::make_shared<const sim::DecodedText>(image);
                const auto blocks =
                    core::buildBlockProgram(image, predecoded);
                // A step-dispatched capture: its measurement is the
                // plain step run's.
                const core::replay::Trace trace =
                    core::replay::capture(image, predecoded);
                run = trace.base;
                blockRun = core::run(image, {}, {}, predecoded, blocks);
                sim::MachineConfig uarch;
                uarch.uarch.forward = true;
                uarch.uarch.branch = sim::BranchPolicy::Bimodal;
                uarch.uarch.depth = 7;
                uarchRun = core::run(image, {}, uarch, predecoded);
                uarchBlockRun =
                    core::run(image, {}, uarch, predecoded, blocks);
                const core::replay::TimingTable table(image, *predecoded);
                retimed = core::replay::timingReplayable(trace, table);
                if (retimed) {
                    const core::replay::TimingReplayStats timed =
                        core::replay::replayTiming(trace, table,
                                                   uarch.uarch);
                    uarchReplay = core::replay::replayRun(
                        trace, uarch.uarch, &timed);
                }
            } catch (const PanicError &e) {
                out.kind = DiffKind::Divergence;
                out.variant = v.name;
                out.optLevel = opt;
                out.detail = where + " hit an internal error: " +
                             e.what();
                return out;
            } catch (const FatalError &e) {
                if (isInstructionLimit(e.what())) {
                    // The oracle's step budget and the simulator's
                    // instruction budget are incomparable; give the
                    // program the benefit of the doubt.
                    out.kind = DiffKind::Skip;
                    out.detail = where + ": " + e.what();
                    return out;
                }
                out.kind = DiffKind::Divergence;
                out.variant = v.name;
                out.optLevel = opt;
                out.detail = where + " failed: " + e.what();
                return out;
            }

            if (run.output != ref.output ||
                run.exitStatus != ref.exitStatus) {
                out.kind = DiffKind::Divergence;
                out.variant = v.name;
                out.optLevel = opt;
                out.detail =
                    where + " diverged from the oracle\n  oracle: [" +
                    excerpt(ref.output) + "] exit " +
                    std::to_string(ref.exitStatus) + "\n  " + where +
                    ": [" + excerpt(run.output) + "] exit " +
                    std::to_string(run.exitStatus);
                return out;
            }

            const auto diverged = [&](const core::RunMeasurement &step,
                                      const core::RunMeasurement &other,
                                      const char *machine,
                                      const char *path) {
                if (other.output == step.output &&
                    other.exitStatus == step.exitStatus &&
                    other.stats == step.stats)
                    return false;
                out.kind = DiffKind::Divergence;
                out.variant = v.name;
                out.optLevel = opt;
                out.detail =
                    where + machine + ": " + path + " diverged from "
                    "step dispatch\n  step:  [" + excerpt(step.output) +
                    "] exit " + std::to_string(step.exitStatus) + ", " +
                    std::to_string(step.stats.instructions) +
                    " insns, " + std::to_string(step.stats.baseCycles()) +
                    " cycles\n  " + path + ": [" + excerpt(other.output) +
                    "] exit " + std::to_string(other.exitStatus) + ", " +
                    std::to_string(other.stats.instructions) +
                    " insns, " +
                    std::to_string(other.stats.baseCycles()) + " cycles";
                return true;
            };
            const char *uarchName = " (fwd=on,bp=bimodal6,depth=7)";
            if (diverged(run, blockRun, "", "block engine") ||
                diverged(uarchRun, uarchBlockRun, uarchName,
                         "block engine") ||
                (retimed && diverged(uarchRun, uarchReplay, uarchName,
                                     "timing replay")))
                return out;
        }
    }

    out.kind = DiffKind::Agree;
    return out;
}

bool
divergenceReproduces(const std::string &source)
{
    try {
        return runDifferential(source).kind == DiffKind::Divergence;
    } catch (...) {
        return false;
    }
}

} // namespace d16sim::fuzz
