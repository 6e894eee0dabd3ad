#include <array>

#include "core/replay/replay.hh"
#include "isa/codec.hh"
#include "support/error.hh"

namespace d16sim::core::replay
{

using Slot = TimingTable::Slot;

TimingFold::TimingFold(const TimingTable &table,
                       const sim::UarchConfig &uarch, uint32_t insnBytes)
    : table_(table), slice_(uarch.captureConfig()),
      loadDelta_(1 + static_cast<uint64_t>(uarch.loadDelay())),
      exact_(insnBytes == (1u << table.insnShift()))
{
    out_.slice = slice_;
}

void
TimingFold::feed(const sim::TraceChunk &chunk)
{
    if (!exact_)
        return;
    for (const DataAccess &a : chunk.accesses) {
        if (table_.writesText(a)) {
            exact_ = false;
            return;
        }
    }
    if (slice_.forward)
        walk<true>(chunk.runs);
    else
        walk<false>(chunk.runs);
}

/**
 * The scoreboard walk: Machine::useGpr/useFpr/useStatus and
 * finishIssue over the fetch runs, each checked against the table
 * before it is indexed. A source stalls the issue when its ready time
 * is past it; the larger stall wins and names the counter (a tie keeps
 * the earlier source). With `Forward`, a store's data operand arrives
 * a stage late, so a stall it alone raises is one cycle shorter.
 */
template <bool Forward>
void
TimingFold::walk(std::span<const FetchRun> runs)
{
    const Slot *slots = table_.slots().data();
    const uint32_t base = table_.base();
    const unsigned shift = table_.insnShift();
    uint64_t cycle = cycle_;
    for (const FetchRun &r : runs) {
        if (!table_.covers(r)) {
            exact_ = false;
            return;
        }
        const Slot *s = slots + ((r.startPc - base) >> shift);
        for (const Slot *e = s + r.count; s != e; ++s) {
            const uint64_t issue = cycle + 1;
            uint64_t stall = 0;
            bool fp = false;
            const uint64_t a = ready_[s->src0];
            if (a > issue) {
                stall = a - issue;
                fp = s->src0 >= Slot::FprBase;
            }
            const uint64_t b = ready_[s->src1];
            if (b > issue && b - issue > stall) {
                stall = b - issue;
                fp = s->src1 >= Slot::FprBase;
                if (Forward && s->lat == Slot::StoreData) {
                    stall -= 1;
                    out_.fwdSavedStalls += 1;
                }
            }
            (fp ? out_.fpInterlocks : out_.loadInterlocks) += stall;
            cycle = issue + stall;
            ready_[s->dst] =
                cycle + (s->lat == Slot::LoadLatency ? loadDelta_ : s->lat);
        }
    }
    cycle_ = cycle;
}

TimingReplayStats
TimingFold::finish() const
{
    if (!exact_)
        fatal("replay: trace writes its text section or leaves it; "
              "capture slice '", slice_.captureKey(), "' directly");
    return out_;
}

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
    if (trace.insnBytes != (1u << table.insnShift()))
        return false;
    for (const FetchRun &r : trace.runs)
        if (!table.covers(r))
            return false;
    for (const DataAccess &a : trace.accesses)
        if (table.writesText(a))
            return false;
    return true;
}

TimingReplayStats
replayTiming(const Trace &trace, const TimingTable &table,
             const sim::UarchConfig &uarch)
{
    TimingFold fold(table, uarch, trace.insnBytes);
    fold.feed(trace.chunk());
    return fold.finish();
}

} // namespace d16sim::core::replay
