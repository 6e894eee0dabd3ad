#include "core/replay/trace.hh"

#include <fstream>

#include "support/error.hh"

namespace d16sim::core::replay
{

namespace
{

constexpr uint32_t HeaderMagic = 0x54363144;  // "D16T" little-endian
constexpr uint32_t TrailerMagic = 0x44363154; // "T16D" little-endian
// v3 added the capture-uarch tag, the branch-policy statistics and the
// branch-outcome stream; older versions are rejected.
constexpr uint32_t FormatVersion = 3;

void
put32(std::vector<uint8_t> &out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
}

void
put64(std::vector<uint8_t> &out, uint64_t v)
{
    put32(out, static_cast<uint32_t>(v));
    put32(out, static_cast<uint32_t>(v >> 32));
}

/** Bounds-checked little-endian reader over the serialized bytes. */
class Reader
{
  public:
    explicit Reader(const std::vector<uint8_t> &bytes) : bytes_(bytes) {}

    uint8_t
    u8()
    {
        need(1);
        return bytes_[pos_++];
    }

    uint32_t
    u32()
    {
        need(4);
        const uint32_t v = static_cast<uint32_t>(bytes_[pos_]) |
                           (static_cast<uint32_t>(bytes_[pos_ + 1]) << 8) |
                           (static_cast<uint32_t>(bytes_[pos_ + 2]) << 16) |
                           (static_cast<uint32_t>(bytes_[pos_ + 3]) << 24);
        pos_ += 4;
        return v;
    }

    uint64_t
    u64()
    {
        const uint64_t lo = u32();
        return lo | (static_cast<uint64_t>(u32()) << 32);
    }

    std::string
    str(uint64_t len)
    {
        need(len);
        std::string s(reinterpret_cast<const char *>(bytes_.data() + pos_),
                      static_cast<size_t>(len));
        pos_ += static_cast<size_t>(len);
        return s;
    }

    size_t remaining() const { return bytes_.size() - pos_; }

  private:
    void
    need(uint64_t n)
    {
        if (n > remaining())
            fatal("trace: truncated (need ", n, " bytes at offset ", pos_,
                  ", have ", remaining(), ")");
    }

    const std::vector<uint8_t> &bytes_;
    size_t pos_ = 0;
};

} // namespace

uint64_t
Trace::fetchCount() const
{
    uint64_t n = 0;
    for (const FetchRun &r : runs)
        n += r.count;
    return n;
}

std::vector<uint8_t>
Trace::serialize() const
{
    std::vector<uint8_t> out;
    out.reserve(128 + base.output.size() + runs.size() * 8 +
                accesses.size() * 5 + outcomes.size() * 4);

    put32(out, HeaderMagic);
    put32(out, FormatVersion);
    put32(out, insnBytes);
    put32(out, 0);  // reserved
    // Capture-uarch tag: the slice of the microarchitecture that
    // shaped the recorded streams (sim/uarch.hh).
    out.push_back(capturedUarch.forward ? 1 : 0);
    out.push_back(static_cast<uint8_t>(capturedUarch.branch));
    out.push_back(static_cast<uint8_t>(capturedUarch.bhtLog2));
    out.push_back(static_cast<uint8_t>(capturedUarch.depth));

    put32(out, static_cast<uint32_t>(base.exitStatus));
    put32(out, base.sizeBytes);
    put32(out, base.textBytes);
    put32(out, base.textInsns);
    put64(out, base.stats.instructions);
    put64(out, base.stats.loads);
    put64(out, base.stats.stores);
    put64(out, base.stats.loadInterlocks);
    put64(out, base.stats.fpInterlocks);
    put64(out, base.stats.branches);
    put64(out, base.stats.takenBranches);
    put64(out, base.stats.fpOps);
    put64(out, base.stats.traps);
    put64(out, base.stats.branchBubbles);
    put64(out, base.stats.condBranches);
    put64(out, base.stats.branchStalls);
    put64(out, base.stats.mispredicts);
    put64(out, base.stats.fwdSavedStalls);
    put64(out, base.output.size());
    out.insert(out.end(), base.output.begin(), base.output.end());

    put64(out, runs.size());
    for (const FetchRun &r : runs) {
        put32(out, r.startPc);
        put32(out, r.count);
    }

    put64(out, accesses.size());
    for (const DataAccess &a : accesses) {
        put32(out, a.addr);
        out.push_back(static_cast<uint8_t>(a.size |
                                           (a.write ? 0x80u : 0u)));
    }

    // Outcome entries pack the taken bit into pc bit 0, which is
    // always clear for 2- and 4-byte instruction sites.
    put64(out, outcomes.size());
    for (const BranchOutcome &o : outcomes)
        put32(out, o.pc | (o.taken ? 1u : 0u));

    put32(out, TrailerMagic);
    return out;
}

Trace
Trace::deserialize(const std::vector<uint8_t> &bytes)
{
    Reader in(bytes);
    if (in.u32() != HeaderMagic)
        fatal("trace: bad magic (not a D16T trace)");
    const uint32_t version = in.u32();
    if (version != FormatVersion)
        fatal("trace: unsupported format version ", version);

    Trace t;
    t.insnBytes = in.u32();
    if (t.insnBytes != 2 && t.insnBytes != 4)
        fatal("trace: bad instruction width ", t.insnBytes);
    if (in.u32() != 0)
        fatal("trace: reserved header field is not zero");
    t.capturedUarch.forward = in.u8() != 0;
    const uint8_t bp = in.u8();
    if (bp > 2)
        fatal("trace: bad branch-policy tag ", int{bp});
    t.capturedUarch.branch = static_cast<sim::BranchPolicy>(bp);
    t.capturedUarch.bhtLog2 = in.u8();
    t.capturedUarch.depth = in.u8();
    if (t.capturedUarch.depth < 5 || t.capturedUarch.depth > 7)
        fatal("trace: bad pipeline depth ", t.capturedUarch.depth);

    t.base.exitStatus = static_cast<int>(in.u32());
    t.base.sizeBytes = in.u32();
    t.base.textBytes = in.u32();
    t.base.textInsns = in.u32();
    t.base.stats.instructions = in.u64();
    t.base.stats.loads = in.u64();
    t.base.stats.stores = in.u64();
    t.base.stats.loadInterlocks = in.u64();
    t.base.stats.fpInterlocks = in.u64();
    t.base.stats.branches = in.u64();
    t.base.stats.takenBranches = in.u64();
    t.base.stats.fpOps = in.u64();
    t.base.stats.traps = in.u64();
    t.base.stats.branchBubbles = in.u64();
    t.base.stats.condBranches = in.u64();
    t.base.stats.branchStalls = in.u64();
    t.base.stats.mispredicts = in.u64();
    t.base.stats.fwdSavedStalls = in.u64();
    t.base.output = in.str(in.u64());

    const uint64_t runCount = in.u64();
    if (runCount * 8 > in.remaining())
        fatal("trace: truncated fetch-run table");
    t.runs.reserve(static_cast<size_t>(runCount));
    for (uint64_t i = 0; i < runCount; ++i) {
        FetchRun r;
        r.startPc = in.u32();
        r.count = in.u32();
        if (r.count == 0)
            fatal("trace: empty fetch run at index ", i);
        t.runs.push_back(r);
    }

    const uint64_t accessCount = in.u64();
    if (accessCount * 5 > in.remaining())
        fatal("trace: truncated data-access table");
    t.accesses.reserve(static_cast<size_t>(accessCount));
    for (uint64_t i = 0; i < accessCount; ++i) {
        DataAccess a;
        a.addr = in.u32();
        const uint8_t kind = in.u8();
        a.write = (kind & 0x80u) != 0;
        a.size = kind & 0x7fu;
        if (a.size != 1 && a.size != 2 && a.size != 4)
            fatal("trace: bad access size ", int{a.size}, " at index ", i);
        t.accesses.push_back(a);
    }

    const uint64_t outcomeCount = in.u64();
    if (outcomeCount * 4 > in.remaining())
        fatal("trace: truncated branch-outcome table");
    t.outcomes.reserve(static_cast<size_t>(outcomeCount));
    for (uint64_t i = 0; i < outcomeCount; ++i) {
        const uint32_t v = in.u32();
        t.outcomes.push_back({v & ~1u, (v & 1u) != 0});
    }

    if (in.u32() != TrailerMagic)
        fatal("trace: bad trailer (corrupt or truncated)");
    if (in.remaining() != 0)
        fatal("trace: ", in.remaining(), " trailing bytes");

    // Structural cross-checks against the recorded measurement.
    if (t.fetchCount() != t.base.stats.instructions)
        fatal("trace: fetch stream length ", t.fetchCount(),
              " does not match instruction count ",
              t.base.stats.instructions);
    if (t.accesses.size() != t.base.stats.memOps())
        fatal("trace: data stream length ", t.accesses.size(),
              " does not match memory-op count ", t.base.stats.memOps());
    if (t.outcomes.size() != t.base.stats.condBranches)
        fatal("trace: branch-outcome stream length ", t.outcomes.size(),
              " does not match conditional-branch count ",
              t.base.stats.condBranches);
    return t;
}

void
Trace::writeFile(const std::string &path) const
{
    const std::vector<uint8_t> bytes = serialize();
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("trace: cannot write ", path);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        fatal("trace: short write to ", path);
}

Trace
Trace::readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("trace: cannot read ", path);
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return deserialize(bytes);
}

void
TraceTee::feed(const sim::TraceChunk &chunk)
{
    trace_.runs.insert(trace_.runs.end(), chunk.runs.begin(),
                       chunk.runs.end());
    trace_.accesses.insert(trace_.accesses.end(), chunk.accesses.begin(),
                           chunk.accesses.end());
    trace_.outcomes.insert(trace_.outcomes.end(), chunk.outcomes.begin(),
                           chunk.outcomes.end());
}

Trace
TraceTee::take(RunMeasurement measurement, const sim::UarchConfig &uarch)
{
    trace_.base = std::move(measurement);
    trace_.capturedUarch = uarch;
    return std::move(trace_);
}

Trace
capture(const assem::Image &image,
        std::shared_ptr<const sim::DecodedText> predecoded,
        sim::MachineConfig config,
        std::shared_ptr<const sim::BlockProgram> blocks)
{
    panicIf(!image.target, "image has no target");
    TraceTee tee(static_cast<uint32_t>(image.target->insnBytes()));
    RunMeasurement m = core::run(image, &tee, config, std::move(predecoded),
                                 std::move(blocks));
    return tee.take(std::move(m), config.uarch);
}

} // namespace d16sim::core::replay
