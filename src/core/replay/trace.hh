/**
 * @file
 * Trace — the recorded reference streams of one simulated execution,
 * plus the tee that records them from a capture's sink.
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
 *    plain run reports, since a trace sink never perturbs execution.
 *
 * A Trace is the whole-run form of those streams. The sweep engine
 * holds one only around the artifact store: a capture streams its
 * records through a bounded sim::TraceSink straight into the replay
 * folds (replay.hh), teeing them into a Trace (TraceTee) only when the
 * trace is to be stored, and a stored trace is fed to the same folds
 * as one chunk (chunk()).
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
#include "sim/uarch.hh"

namespace d16sim::core::replay
{

/** The record types are the capture sink's (sim/block_engine.hh). */
using FetchRun = sim::FetchRun;
using DataAccess = sim::DataAccess;
using BranchOutcome = sim::BranchOutcome;

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

    /** The whole recording as one chunk, for the replay folds. */
    sim::TraceChunk
    chunk() const
    {
        return {runs, accesses, outcomes};
    }

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
 * The fold that records a capture: appends each chunk's records, so a
 * sink's chunks (which never split a run) reassemble exactly the
 * streams a whole-run recording holds. Attach behind a TraceSink, run
 * to completion, then take() the trace with the run's measurement.
 */
class TraceTee : public sim::TraceFold
{
  public:
    explicit TraceTee(uint32_t insnBytes) { trace_.insnBytes = insnBytes; }

    void feed(const sim::TraceChunk &chunk) override;

    /** Attach the run's measurement and the uarch it ran on, and move
     *  the trace out (the tee is spent afterwards). */
    Trace take(RunMeasurement measurement, const sim::UarchConfig &uarch);

  private:
    Trace trace_;
};

/** Simulate `image` once with a TraceSink teed into a Trace and return
 *  the recorded trace. `predecoded` and `blocks` are forwarded to the
 *  machine (block-compiled capture records identical traces). */
Trace capture(const assem::Image &image,
              std::shared_ptr<const sim::DecodedText> predecoded = nullptr,
              sim::MachineConfig config = {},
              std::shared_ptr<const sim::BlockProgram> blocks = nullptr);

} // namespace d16sim::core::replay

#endif // D16SIM_CORE_REPLAY_TRACE_HH
