/**
 * @file
 * Toolchain facade: MiniC source -> image -> simulated run, with the
 * measurement probes the paper's experiments need.
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

/**
 * Fetch-buffer model of the cacheless machines (§4): the processor
 * holds the last fetched aligned block of `busBytes`; a fetch outside
 * it issues a memory request. Counts the paper's IRequests.
 */
class FetchBufferProbe : public sim::Probe
{
  public:
    explicit FetchBufferProbe(uint32_t busBytes) : busBytes_(busBytes) {}

    void
    onIFetch(uint32_t pc) override
    {
        const uint32_t block = pc / busBytes_;
        if (!valid_ || block != current_) {
            valid_ = true;
            current_ = block;
            ++requests_;
        }
    }

    uint64_t requests() const { return requests_; }

    /** Instruction traffic in 32-bit words. */
    uint64_t words() const { return requests_ * (busBytes_ / 4); }

  private:
    uint32_t busBytes_;
    bool valid_ = false;
    uint32_t current_ = 0;
    uint64_t requests_ = 0;
};

/** Split I/D cache model attached to the reference streams (§4.1). */
class CacheProbe : public sim::Probe
{
  public:
    CacheProbe(mem::CacheConfig icacheCfg, mem::CacheConfig dcacheCfg)
        : icache_(icacheCfg), dcache_(dcacheCfg)
    {}

    void onIFetch(uint32_t pc) override { icache_.read(pc, insnBytes_); }

    void
    onDataRead(uint32_t addr, int size) override
    {
        dcache_.read(addr, size);
    }

    void
    onDataWrite(uint32_t addr, int size) override
    {
        dcache_.write(addr, size);
    }

    void setInsnBytes(int n) { insnBytes_ = n; }

    const mem::Cache &icache() const { return icache_; }
    const mem::Cache &dcache() const { return dcache_; }

  private:
    mem::Cache icache_;
    mem::Cache dcache_;
    int insnBytes_ = 4;
};

/**
 * Classifies executed instructions whose immediate operands exceed the
 * limits of the D16 instruction set (paper Table 4), measured on a
 * restricted-DLXe instruction stream: immediate compares, ALU
 * immediates beyond 5 unsigned bits, and memory displacements D16
 * cannot express.
 *
 * The class is a pure function of the decoded instruction
 * (classify()), so the classifier is also a trace fold: built over the
 * image's predecode table it classifies every text site once, and
 * counts each fetch run's sites (a live capture's sink chunks or a
 * recorded trace alike). Sites are the original decode, not the block
 * uops (those fold mvhi). A default-constructed probe counts through
 * onExec only, the per-instruction reference.
 */
class ImmediateClassProbe : public sim::Probe, public sim::TraceFold
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

    ImmediateClassProbe() = default;
    explicit ImmediateClassProbe(const sim::DecodedText &text);

    void
    onExec(const isa::DecodedInst &inst, uint32_t pc) override
    {
        (void)pc;
        ++total_;
        ++counts_[static_cast<size_t>(classify(inst))];
    }

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
    uint64_t counter(Class c) const { return counts_[static_cast<size_t>(c)]; }

    uint32_t textBase_ = 0;
    unsigned insnShift_ = 0;
    std::vector<Class> siteClass_;  //!< per text slot
    uint64_t total_ = 0;
    std::array<uint64_t, 4> counts_{};
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

/** Run to completion with optional probes (not owned). `predecoded`
 *  optionally shares one decode table across runs of the same image
 *  (see sim::DecodedText); `blocks` optionally enables block-compiled
 *  dispatch (ignored by probe-attached runs; results are bit-identical
 *  either way). `sink` (not owned) captures the run's reference
 *  streams and is finished when the run is. */
RunMeasurement run(const assem::Image &image,
                   std::vector<sim::Probe *> probes = {},
                   sim::MachineConfig config = {},
                   std::shared_ptr<const sim::DecodedText> predecoded =
                       nullptr,
                   std::shared_ptr<const sim::BlockProgram> blocks =
                       nullptr,
                   sim::TraceSink *sink = nullptr);

/** Convenience: build + run. */
RunMeasurement buildAndRun(std::string_view source,
                           const mc::CompileOptions &opts,
                           std::vector<sim::Probe *> probes = {});

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
