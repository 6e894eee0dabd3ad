/**
 * @file
 * Trace — the recorded reference streams of one simulated execution,
 * plus the probe that captures them.
 *
 * The paper's §4 memory experiments evaluate the *same* execution
 * under many cache/latency parameterizations; the machine deliberately
 * does not model memory latency, so those models consume nothing but
 * the reference streams and the base-cycle statistics. A Trace records
 * exactly that, once, so every memory configuration can be evaluated
 * without re-simulating:
 *
 *  - the fetch stream, run-length encoded as (startPc, count) runs of
 *    sequential fetches — a new run starts at every taken-branch
 *    target, so the run boundaries *are* the taken-branch markers;
 *  - the data-access stream in program order, each access classed as
 *    read or write with its byte size (the split I/D cache models of
 *    §4.1 consume the two streams independently, so no interleaving
 *    with the fetch stream is needed);
 *  - the branch-outcome stream (one taken/not-taken bit per executed
 *    conditional, in execution order), so branch-policy variants
 *    (DESIGN.md §16) can be replayed from one capture without
 *    re-simulating — penalties are additive accounting over exactly
 *    this stream;
 *  - the complete RunMeasurement of the capture run (path length,
 *    interlocks, static sizes, program output), identical to what a
 *    probe-less run reports, since probes never perturb execution.
 *
 * The serialized form is a compact little-endian binary ("D16T"): 8
 * bytes per fetch run, 5 bytes per data access, 4 bytes per branch
 * outcome, with header/trailer magics and structural cross-checks so
 * truncated or corrupted traces are rejected rather than replayed.
 * Only the current format (v3) is read: every store key carries the
 * toolchain fingerprint, so no older trace can reach replay.
 */

#ifndef D16SIM_CORE_REPLAY_TRACE_HH
#define D16SIM_CORE_REPLAY_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/toolchain.hh"
#include "sim/probe.hh"
#include "sim/uarch.hh"

namespace d16sim::core::replay
{

/** `count` sequential fetches starting at `startPc` (insnBytes apart). */
struct FetchRun
{
    uint32_t startPc = 0;
    uint32_t count = 0;
};

/** One data reference: `size` bytes at `addr`, read or write. */
struct DataAccess
{
    uint32_t addr = 0;
    uint8_t size = 0;
    bool write = false;
};

/** One executed conditional branch: the site and how it resolved. */
struct BranchOutcome
{
    uint32_t pc = 0;
    bool taken = false;
};

struct Trace
{
    uint32_t insnBytes = 4;  //!< fetch width of the traced machine
    RunMeasurement base;     //!< the capture run's full measurement
    std::vector<FetchRun> runs;
    std::vector<DataAccess> accesses;
    std::vector<BranchOutcome> outcomes;

    /** The microarchitecture the capture ran under (its capture slice:
     *  forwarding and depth; see sim::UarchConfig::captureConfig).
     *  Replays must match it axis-for-axis on that slice. */
    sim::UarchConfig capturedUarch;

    /** Total fetches recorded (== base.stats.instructions). */
    uint64_t fetchCount() const;

    /** Serialize to the compact binary format. */
    std::vector<uint8_t> serialize() const;

    /** Parse a serialized trace; FatalError on truncation, bad magic,
     *  or structural corruption. */
    static Trace deserialize(const std::vector<uint8_t> &bytes);

    /** File convenience wrappers around (de)serialize. */
    void writeFile(const std::string &path) const;
    static Trace readFile(const std::string &path);
};

/**
 * High-throughput capture probe. onIFetch folds sequential pcs into
 * the open run with one compare; data callbacks append fixed-size
 * records. Attach to one Machine, run to completion, then take() the
 * trace (with the run's measurement).
 *
 * Also a sim::TraceSink, so a machine with a block program keeps
 * block dispatch during capture: the engine hands over whole-block
 * fetch chunks (onFetchChunk) which merge into the same run-length
 * encoding the per-instruction path produces — all fetches inside a
 * block are sequential, so `count` fetches from `startPc` is exactly
 * `count` onIFetch calls. Step-fallback stretches keep using the
 * per-instruction callbacks on the same state, byte-identically.
 */
class TraceProbe : public sim::Probe, public sim::TraceSink
{
  public:
    explicit TraceProbe(uint32_t insnBytes) : insnBytes_(insnBytes)
    {
        trace_.insnBytes = insnBytes;
        trace_.runs.reserve(1024);
        trace_.accesses.reserve(4096);
    }

    void
    onIFetch(uint32_t pc) override
    {
        if (pc == nextPc_ && !trace_.runs.empty()) {
            ++trace_.runs.back().count;
        } else {
            trace_.runs.push_back({pc, 1});
        }
        nextPc_ = pc + insnBytes_;
    }

    void
    onFetchChunk(uint32_t startPc, uint32_t count) override
    {
        if (startPc == nextPc_ && !trace_.runs.empty())
            trace_.runs.back().count += count;
        else
            trace_.runs.push_back({startPc, count});
        nextPc_ = startPc + count * insnBytes_;
    }

    void
    onDataRead(uint32_t addr, int size) override
    {
        trace_.accesses.push_back(
            {addr, static_cast<uint8_t>(size), false});
    }

    void
    onDataWrite(uint32_t addr, int size) override
    {
        trace_.accesses.push_back(
            {addr, static_cast<uint8_t>(size), true});
    }

    /** Delivered through the Probe fan-out by both dispatch paths. */
    void
    onBranchOutcome(uint32_t pc, bool taken) override
    {
        trace_.outcomes.push_back({pc, taken});
    }

    /** Finish capture: attach the run's measurement and move the trace
     *  out (the probe is spent afterwards). */
    Trace
    take(RunMeasurement measurement)
    {
        trace_.base = std::move(measurement);
        return std::move(trace_);
    }

  private:
    uint32_t insnBytes_;
    uint32_t nextPc_ = 0;
    Trace trace_;
};

/** Simulate `image` once with a TraceProbe attached and return the
 *  recorded trace. `predecoded` and `blocks` are forwarded to the
 *  machine (block-compiled capture records identical traces). */
Trace capture(const assem::Image &image,
              std::shared_ptr<const sim::DecodedText> predecoded = nullptr,
              sim::MachineConfig config = {},
              std::shared_ptr<const sim::BlockProgram> blocks = nullptr);

} // namespace d16sim::core::replay

#endif // D16SIM_CORE_REPLAY_TRACE_HH
