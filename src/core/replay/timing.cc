#include <algorithm>
#include <array>

#include "core/replay/replay.hh"
#include "isa/codec.hh"
#include "support/error.hh"

namespace d16sim::core::replay
{

using Slot = TimingTable::Slot;

TimingFold::TimingFold(const TimingTable &table, uint32_t insnBytes)
    : table_(table), exact_(insnBytes == (1u << table.insnShift())),
      tags_(size_t{1} << MemoBits, {~0u, 0})
{
    laneOf_.fill(-1);
}

void
TimingFold::add(const sim::UarchConfig &uarch)
{
    const sim::UarchConfig slice = uarch.captureConfig();
    if (std::find(slices_.begin(), slices_.end(), slice) != slices_.end())
        return;
    slices_.push_back(slice);
    int8_t &lane = laneOf_[scoreboard(slice)];
    if (lane >= 0)
        return;
    lane = static_cast<int8_t>(lanes_.size());
    Lane &l = lanes_.emplace_back();
    l.forward = slice.forward;
    l.loadDelta = 1 + static_cast<uint64_t>(slice.loadDelay());
    l.memo.resize(tags_.size());
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
    const Slot *slots = table_.slots().data();
    for (const FetchRun &r : chunk.runs) {
        if (!table_.covers(r)) {
            exact_ = false;
            return;
        }
        const uint32_t start =
            (r.startPc - table_.base()) >> table_.insnShift();
        const size_t i = memoSlot(start, r.count);
        if (tags_[i] != std::pair{start, r.count}) {
            tags_[i] = {start, r.count};
            for (Lane &l : lanes_)
                l.memo[i].live = Effect::Unset;
        }
        for (Lane &l : lanes_) {
            Effect &e = l.memo[i];
            const bool clean = l.maxReady <= l.cycle + 1;
            if (clean && e.live <= MaxLive) {
                apply(l, e);
                continue;
            }
            const uint64_t cycle = l.cycle;
            const Counts counts = l.counts;
            if (l.forward)
                walk<true>(l, slots + start, r.count);
            else
                walk<false>(l, slots + start, r.count);
            if (clean && e.live == Effect::Unset)
                record(l, cycle, counts, e);
        }
    }
}

/**
 * The scoreboard walk of one run. A source stalls the issue when its
 * ready time is past it; the larger stall wins and names the counter
 * (a tie keeps the earlier source). With `Forward`, a store's data
 * operand arrives a stage late, so a stall it alone raises is one
 * cycle shorter.
 */
template <bool Forward>
void
TimingFold::walk(Lane &l, const Slot *s, uint32_t count)
{
    uint64_t cycle = l.cycle;
    uint64_t maxReady = l.maxReady;
    for (const Slot *e = s + count; s != e; ++s) {
        const uint64_t issue = cycle + 1;
        uint64_t stall = 0;
        bool fp = false;
        const uint64_t a = l.ready[s->src0];
        if (a > issue) {
            stall = a - issue;
            fp = s->src0 >= Slot::FprBase;
        }
        const uint64_t b = l.ready[s->src1];
        if (b > issue && b - issue > stall) {
            stall = b - issue;
            fp = s->src1 >= Slot::FprBase;
            if (Forward && s->lat == Slot::StoreData) {
                stall -= 1;
                l.counts[FwdSaved] += 1;
            }
        }
        l.counts[fp ? Fp : Load] += stall;
        cycle = issue + stall;
        const uint64_t ready =
            cycle + (s->lat == Slot::LoadLatency ? l.loadDelta : s->lat);
        l.ready[s->dst] = ready;
        if (s->dst != Slot::Sink)
            maxReady = std::max(maxReady, ready);
    }
    l.cycle = cycle;
    l.maxReady = maxReady;
}

/** Record the run `l` just walked from `cycle` and `counts`, having
 *  entered it clean: whatever is in flight now, the run wrote. */
void
TimingFold::record(const Lane &l, uint64_t cycle, const Counts &counts,
                   Effect &e)
{
    e.live = Effect::Overflow;
    if (l.cycle - cycle > UINT32_MAX)
        return;
    uint8_t live = 0;
    for (uint8_t res = 0; res < Slot::Sink; ++res) {
        if (l.ready[res] <= l.cycle + 1)
            continue;
        if (live == MaxLive)
            return;
        e.reg[live] = res;
        e.ahead[live++] = static_cast<uint8_t>(l.ready[res] - l.cycle);
    }
    e.cycles = static_cast<uint32_t>(l.cycle - cycle);
    for (size_t k = 0; k < counts.size(); ++k)
        e.counts[k] = static_cast<uint32_t>(l.counts[k] - counts[k]);
    e.live = live;
}

void
TimingFold::apply(Lane &l, const Effect &e)
{
    l.cycle += e.cycles;
    for (size_t k = 0; k < e.counts.size(); ++k)
        l.counts[k] += e.counts[k];
    for (uint8_t k = 0; k < e.live; ++k) {
        l.ready[e.reg[k]] = l.cycle + e.ahead[k];
        l.maxReady = std::max(l.maxReady, l.cycle + e.ahead[k]);
    }
}

TimingReplayStats
TimingFold::finish(const sim::UarchConfig &uarch) const
{
    const sim::UarchConfig slice = uarch.captureConfig();
    if (!exact_)
        fatal("replay: trace writes its text section or leaves it; "
              "capture slice '", slice.captureKey(), "' directly");
    const int lane = laneOf_[scoreboard(slice)];
    panicIf(lane < 0, "replay: capture slice '", slice.captureKey(),
            "' is not timed");
    const Counts &c = lanes_[lane].counts;
    return {slice, c[Load], c[Fp], c[FwdSaved]};
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
    TimingFold fold(table, trace.insnBytes);
    fold.add(uarch);
    fold.feed(trace.chunk());
    return fold.finish(uarch);
}

} // namespace d16sim::core::replay
