#include <array>

#include "core/replay/replay.hh"
#include "isa/codec.hh"
#include "support/error.hh"

namespace d16sim::core::replay
{

namespace
{

using Slot = TimingTable::Slot;

/**
 * The scoreboard walk: Machine::useGpr/useFpr/useStatus and
 * finishIssue over the fetch runs. A source stalls the issue when its
 * ready time is past it; the larger stall wins and names the counter
 * (a tie keeps the earlier source). With `Forward`, a store's data
 * operand arrives a stage late, so a stall it alone raises is one
 * cycle shorter.
 */
template <bool Forward>
TimingReplayStats
walk(const Trace &trace, const TimingTable &table, uint64_t loadDelta)
{
    std::array<uint64_t, Slot::Resources> ready{};
    const Slot *slots = table.slots().data();
    const uint32_t base = table.base();
    const unsigned shift = table.insnShift();
    uint64_t cycle = 0;
    TimingReplayStats out;
    for (const FetchRun &r : trace.runs) {
        const Slot *s = slots + ((r.startPc - base) >> shift);
        for (const Slot *e = s + r.count; s != e; ++s) {
            const uint64_t issue = cycle + 1;
            uint64_t stall = 0;
            bool fp = false;
            const uint64_t a = ready[s->src0];
            if (a > issue) {
                stall = a - issue;
                fp = s->src0 >= Slot::FprBase;
            }
            const uint64_t b = ready[s->src1];
            if (b > issue && b - issue > stall) {
                stall = b - issue;
                fp = s->src1 >= Slot::FprBase;
                if (Forward && s->lat == Slot::StoreData) {
                    stall -= 1;
                    out.fwdSavedStalls += 1;
                }
            }
            (fp ? out.fpInterlocks : out.loadInterlocks) += stall;
            cycle = issue + stall;
            ready[s->dst] =
                cycle + (s->lat == Slot::LoadLatency ? loadDelta : s->lat);
        }
    }
    return out;
}

} // namespace

TimingTable::TimingTable(const assem::Image &image,
                         const sim::DecodedText &text,
                         const sim::FpLatencies &fpu)
{
    panicIf(!image.target, "image has no target");
    panicIf(text.base() != image.textBase,
            "predecoded table does not match image");
    sim::maxFpLatency(fpu);  // panics on a latency a slot cannot hold
    const isa::TargetInfo &target = *image.target;
    base_ = image.textBase;
    end_ = image.textBase + image.textSize;
    shift_ = text.insnShift();

    slots_.resize(text.size());
    const uint32_t ib = static_cast<uint32_t>(target.insnBytes());
    for (uint32_t i = 0; i < text.size(); ++i) {
        if (text.valid(i)) {
            slots_[i] = sim::issueSlot(target, text.at(i), fpu);
            continue;
        }
        // A pool word, decoded from the image the way the machine
        // decodes it from memory (which holds the image while no store
        // touches the text: timingReplayable).
        const uint32_t off = i << shift_;
        uint32_t word = 0;
        for (uint32_t k = 0; k < ib && off + k < image.bytes.size(); ++k)
            word |= static_cast<uint32_t>(image.bytes[off + k]) << (8 * k);
        try {
            slots_[i] = sim::issueSlot(target, isa::decode(target, word), fpu);
        } catch (const Error &) {
            slots_[i] = Slot{};
        }
    }
}

bool
timingReplayable(const Trace &trace, const TimingTable &table)
{
    const uint32_t ib = trace.insnBytes;
    if (ib != (1u << table.insnShift()))
        return false;
    const uint64_t slots = table.slots().size();
    for (const FetchRun &r : trace.runs) {
        if (r.startPc < table.base() || (r.startPc - table.base()) & (ib - 1))
            return false;
        if (((r.startPc - table.base()) >> table.insnShift()) +
                uint64_t{r.count} > slots)
            return false;
    }
    for (const DataAccess &a : trace.accesses)
        if (a.write && uint64_t{a.addr} + a.size > table.base() &&
            a.addr < table.end())
            return false;
    return true;
}

TimingReplayStats
replayTiming(const Trace &trace, const TimingTable &table,
             const sim::UarchConfig &uarch)
{
    if (!timingReplayable(trace, table))
        fatal("replay: trace writes its text section or leaves it; "
              "capture slice '", uarch.captureKey(), "' directly");
    const uint64_t loadDelta = 1 + static_cast<uint64_t>(uarch.loadDelay());
    TimingReplayStats out = uarch.forward
                                ? walk<true>(trace, table, loadDelta)
                                : walk<false>(trace, table, loadDelta);
    out.slice = uarch.captureConfig();
    return out;
}

} // namespace d16sim::core::replay
