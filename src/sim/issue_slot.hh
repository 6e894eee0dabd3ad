/**
 * @file
 * The issue-time scoreboard rule of every op, defined once.
 *
 * An interlock is one op reading a register whose result is not ready
 * yet, so each op's timing is three facts: which registers it reads,
 * in what order, and which one it writes, how many cycles later.
 * issueSlot() is that rule for every consumer that reasons about the
 * scoreboard without executing: the block translator's hazard flags
 * (sim/block_engine.cc), trace retiming (replay::TimingTable) and the
 * static timing analyzer (analysis/timing.cc).
 *
 * Machine::execute() is deliberately NOT derived from this table. It
 * stays the hand-written reference, so step vs block dispatch, trace
 * replay vs capture, and crossValidateTiming() each compare the shared
 * table against an independent statement of the same rule.
 */

#ifndef D16SIM_SIM_ISSUE_SLOT_HH
#define D16SIM_SIM_ISSUE_SLOT_HH

#include <cstddef>
#include <cstdint>

#include "isa/decoded.hh"
#include "isa/target.hh"

namespace d16sim::sim
{

/** FPU result latencies in cycles (result ready latency-1 cycles after
 *  the consumer would first want it). */
struct FpLatencies
{
    int addSub = 2;
    int mul = 4;
    int divS = 10;
    int divD = 16;
    int convert = 2;
    int compare = 2;
    int move = 1;
};

/**
 * One instruction's scoreboard effect, in 4 bytes: up to two sources
 * in the order execute() reads them (useGpr / useFpr / useStatus), and
 * one destination with its ready-time latency relative to the issue
 * cycle. Resources are numbered GPR r -> r, FPR f -> FprBase + f, the
 * FP status word -> Status; None is a source that is never written
 * (absent, or a register that reads as zero) and Sink a destination
 * that is never read (absent, or a write the register file discards).
 */
struct IssueSlot
{
    static constexpr uint8_t FprBase = 32;
    static constexpr uint8_t Status = 64;
    static constexpr uint8_t None = 65;
    static constexpr uint8_t Sink = 66;
    static constexpr size_t Resources = 67;

    /** Latencies that are not cycle counts: the machine's load delay
     *  (uarch-dependent), and a store, whose second source is the data
     *  operand the forwarding bypass serves. */
    static constexpr uint8_t LoadLatency = 0;
    static constexpr uint8_t StoreData = 0xff;

    uint8_t src0 = None;
    uint8_t src1 = None;
    uint8_t dst = Sink;
    uint8_t lat = 1;

    static bool isGpr(uint8_t res) { return res < FprBase; }
};

/**
 * The slot of `inst` on `target`. Ops with no scoreboard effect (Br,
 * J, Nop) and values that are not ops get an empty slot; latencies
 * are taken from `fpu` as given (see maxFpLatency()).
 */
IssueSlot issueSlot(const isa::TargetInfo &target,
                    const isa::DecodedInst &inst,
                    const FpLatencies &fpu = {});

/** The longest FP latency; panics unless every latency is a cycle
 *  count a slot can hold, in [1, IssueSlot::StoreData). */
int maxFpLatency(const FpLatencies &fpu);

} // namespace d16sim::sim

#endif // D16SIM_SIM_ISSUE_SLOT_HH
