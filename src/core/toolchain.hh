/**
 * @file
 * Toolchain facade: MiniC source -> image -> simulated run, with the
 * direct measurement folds the paper's experiments need.
 */

#ifndef D16SIM_CORE_TOOLCHAIN_HH
#define D16SIM_CORE_TOOLCHAIN_HH

#include <array>
#include <map>
#include <memory>
#include <string>

#include "asm/assembler.hh"
#include "mc/compiler.hh"
#include "mem/cache.hh"
#include "sim/machine.hh"

namespace d16sim::core
{

/** Compile + assemble + link one program for one machine variant. */
assem::Image build(std::string_view source,
                   const mc::CompileOptions &opts);

/** log2 of a fetch bus width; FatalError unless `busBytes` is a power
 *  of two of at least 4 (one 32-bit word). */
unsigned fetchBusShift(uint32_t busBytes);

/**
 * Fetch-buffer model of the cacheless machines (§4): the processor
 * holds the last fetched aligned block of `busBytes`; a fetch outside
 * it issues a memory request. Counts the paper's IRequests.
 *
 * A trace fold that checks the buffer once per fetched instruction:
 * the direct reference (d16sweep --no-replay) for replay's
 * FetchBufferFold, which counts whole runs at once. FatalError on a
 * bus width fetchBusShift() rejects.
 */
class FetchBufferProbe : public sim::TraceFold
{
  public:
    FetchBufferProbe(uint32_t busBytes, uint32_t insnBytes)
        : busBytes_(busBytes), insnBytes_(insnBytes)
    {
        fetchBusShift(busBytes);  // the reference keeps its division
    }

    void
    feed(const sim::TraceChunk &chunk) override
    {
        for (const sim::FetchRun &r : chunk.runs) {
            for (uint32_t i = 0; i < r.count; ++i) {
                const uint32_t block = (r.startPc + i * insnBytes_) / busBytes_;
                if (!valid_ || block != current_) {
                    valid_ = true;
                    current_ = block;
                    ++requests_;
                }
            }
        }
    }

    uint64_t requests() const { return requests_; }

    /** Instruction traffic in 32-bit words. */
    uint64_t words() const { return requests_ * (busBytes_ / 4); }

  private:
    uint32_t busBytes_;
    uint32_t insnBytes_;
    bool valid_ = false;
    uint32_t current_ = 0;
    uint64_t requests_ = 0;
};

/**
 * Split I/D cache model over the reference streams (§4.1): a trace
 * fold making one I-cache read per fetched instruction and one D-cache
 * access per data record. The two caches are separate objects, so
 * order within each stream is all they need. The direct reference
 * (d16sweep --no-replay) for replay's CacheFold.
 */
class CacheProbe : public sim::TraceFold
{
  public:
    CacheProbe(mem::CacheConfig icacheCfg, mem::CacheConfig dcacheCfg,
               int insnBytes)
        : icache_(icacheCfg), dcache_(dcacheCfg), insnBytes_(insnBytes)
    {}

    void
    feed(const sim::TraceChunk &chunk) override
    {
        const auto ib = static_cast<uint32_t>(insnBytes_);
        for (const sim::FetchRun &r : chunk.runs)
            for (uint32_t i = 0; i < r.count; ++i)
                icache_.read(r.startPc + i * ib, insnBytes_);
        for (const sim::DataAccess &a : chunk.accesses)
            dcache_.access(a.addr, a.size, a.write);
    }

    const mem::Cache &icache() const { return icache_; }
    const mem::Cache &dcache() const { return dcache_; }

  private:
    mem::Cache icache_;
    mem::Cache dcache_;
    int insnBytes_;
};

/**
 * Classifies executed instructions whose immediate operands exceed the
 * limits of the D16 instruction set (paper Table 4), measured on a
 * restricted-DLXe instruction stream: immediate compares, ALU
 * immediates beyond 5 unsigned bits, and memory displacements D16
 * cannot express.
 *
 * The class is a pure function of the decoded instruction
 * (classify()), so the classifier is a trace fold: built over the
 * image's predecode table it classifies every text site once and keeps
 * per-class prefix counts, so each fetch run (a live capture's sink
 * chunks or a recorded trace alike) costs one subtraction per class.
 * Sites are the original decode, not the block uops (those fold mvhi).
 */
class ImmediateClassProbe : public sim::TraceFold
{
  public:
    /** The one counter (if any) an instruction adds to. */
    enum class Class : uint8_t
    {
        Fits,
        CmpImmediate,
        AluImmediate,
        MemDisplacement,
    };

    static Class classify(const isa::DecodedInst &inst);

    explicit ImmediateClassProbe(const sim::DecodedText &text);

    void feed(const sim::TraceChunk &chunk) override;

    uint64_t total() const { return total_; }
    uint64_t cmpImmediate() const { return counter(Class::CmpImmediate); }
    uint64_t aluImmediate() const { return counter(Class::AluImmediate); }
    uint64_t
    memDisplacement() const
    {
        return counter(Class::MemDisplacement);
    }

    double
    pct(uint64_t v) const
    {
        return total_ ? 100.0 * static_cast<double>(v) /
                            static_cast<double>(total_)
                      : 0.0;
    }

  private:
    /** Counted classes: every one but Fits. */
    static constexpr size_t Counted = 3;
    using Counts = std::array<uint32_t, Counted>;

    uint64_t
    counter(Class c) const
    {
        return counts_[static_cast<size_t>(c) - 1];
    }

    uint32_t textBase_ = 0;
    unsigned insnShift_ = 0;
    std::vector<Counts> before_;  //!< per slot: counted sites before it
    uint64_t total_ = 0;
    std::array<uint64_t, Counted> counts_{};
};

/** Everything one simulated execution yields. */
struct RunMeasurement
{
    std::string output;
    int exitStatus = 0;
    sim::SimStats stats;
    uint32_t sizeBytes = 0;   //!< static size (text+data)
    uint32_t textBytes = 0;
    uint32_t textInsns = 0;   //!< static instruction count
};

/** Run CFG recovery over the image and export the analyzer-proved
 *  block spans. This is the expensive half of block compilation; the
 *  artifact store persists its result ("D16M" metadata) so reloaded
 *  images skip it. */
sim::BlockTable recoverBlockTable(const assem::Image &image);

/** Translate a known-good block table (fresh from recoverBlockTable()
 *  or reloaded from the store) into a shared block program. */
std::shared_ptr<const sim::BlockProgram>
makeBlockProgram(const assem::Image &image,
                 std::shared_ptr<const sim::DecodedText> predecoded,
                 const sim::BlockTable &table);

/** Compile the image's recovered CFG into a shared block program for
 *  the sim threaded-code engine (see sim::BlockProgram). Built once
 *  per image and shared read-only by every machine that runs it;
 *  `predecoded` reuses an existing decode table when available.
 *  Equivalent to makeBlockProgram(recoverBlockTable(image)). */
std::shared_ptr<const sim::BlockProgram>
buildBlockProgram(const assem::Image &image,
                  std::shared_ptr<const sim::DecodedText> predecoded =
                      nullptr);

/** Run to completion. `fold` (not owned), if given, takes the run's
 *  reference streams through a TraceSink that is finished when the
 *  run is. `predecoded` optionally shares one decode table across runs
 *  of the same image (see sim::DecodedText); `blocks` optionally
 *  enables block-compiled dispatch. Results, and the streams `fold`
 *  sees, are bit-identical either way. */
RunMeasurement run(const assem::Image &image,
                   sim::TraceFold *fold = nullptr,
                   sim::MachineConfig config = {},
                   std::shared_ptr<const sim::DecodedText> predecoded =
                       nullptr,
                   std::shared_ptr<const sim::BlockProgram> blocks =
                       nullptr);

/** Convenience: build + run. */
RunMeasurement buildAndRun(std::string_view source,
                           const mc::CompileOptions &opts);

// ----- the paper's performance formulas (§4, Appendix A) ---------------

/** Cacheless: Cycles = IC + Interlocks + latency * (IReq + DReq). */
inline uint64_t
cyclesNoCache(const sim::SimStats &stats, int waitStates,
              uint64_t ifetchRequests)
{
    return stats.baseCycles() +
           static_cast<uint64_t>(waitStates) *
               (ifetchRequests + stats.memOps());
}

/** With caches: Cycles = IC + Interlocks + missPenalty * misses. */
inline uint64_t
cyclesWithCache(const sim::SimStats &stats, int missPenalty,
                const mem::CacheStats &icache,
                const mem::CacheStats &dcache)
{
    return stats.baseCycles() +
           static_cast<uint64_t>(missPenalty) *
               (icache.misses() + dcache.misses());
}

} // namespace d16sim::core

#endif // D16SIM_CORE_TOOLCHAIN_HH
