/**
 * @file
 * Block-compiled threaded-code execution engine.
 *
 * Machine::step pays a full dispatch (halt check, limit check, decode
 * lookup, shadow bookkeeping, operand scoreboard) per instruction.
 * Most dynamic instructions, however, sit inside statically recovered
 * basic blocks whose shape never changes: the CFG analyzer proves
 * where every block starts, which instruction terminates it, and that
 * the delay slot belongs to its branch. A BlockProgram translates each
 * such block ONCE into a contiguous run of pre-bound uops — operands
 * resolved, branch targets and Ldc pool addresses turned into absolute
 * values, link values precomputed, load-use hazard checks narrowed to
 * the only instructions that can actually stall — and links each block
 * to its static successors. The machine then dispatches block to block
 * along those chained edges, looking a pc up in the pc -> block map
 * only after a register-target or unchained edge, in one loop
 * instantiated per (load-delay flag set, trace sink attached).
 *
 * Exactness contract (the golden sweeps, trace replay and the static
 * timing analyzer all cross-validate against Machine::step):
 *
 *  - Architectural state, program output and every SimStats field are
 *    bit-identical to stepping, under every UarchConfig. Interlock
 *    accounting keeps the issue scoreboard's semantics: a GPR stall
 *    can only be caused by a load at most loadDelay() dynamic
 *    instructions back that is still the source's latest writer. One
 *    BlockProgram serves every config: each uop carries one set of
 *    hazard flags per load delay up to UarchConfig::MaxLoadDelay. In
 *    the set for delay d a source is checked iff, walking back d
 *    uops, its nearest writer is a load or the walk reaches block
 *    entry (reads, writes and loads as sim::issueSlot() states them),
 *    and (for d > 1) a single-cycle producer keeps its t+1
 *    ready write (KeepReady) iff the uop before it may be a load of
 *    the same register. The d = 1 set is exactly the paper machine's
 *    one-slot elision, so the default config pays nothing for the
 *    deeper ones. Loads
 *    set ready at the config's load delay, stores apply the
 *    forwarding bypass, and terminators charge branch stalls through
 *    the Machine's BranchModel. FP/status latencies span blocks and
 *    keep the full scoreboard.
 *  - `instructions` is batched per block with an exact fixup when a
 *    halt trap exits mid-block; `takenBranches` increments before the
 *    delay slot executes, as in step order; `branchBubbles` is static
 *    per block (shadow nop-ness is a decode-time property, and a nop
 *    slot is translated to Op::Nop, which keeps its hazard flags).
 *  - A fault (a memory error or a failing trap service) leaves the
 *    same message, stats, registers and pc as step(): the uops that
 *    can throw (loads, stores, ldc, trap, in the body or the slot)
 *    record themselves before they touch memory, and the dispatch
 *    loop's handler backs out the block's unexecuted tail from that
 *    record alone (Machine::backOutBlockFault).
 *  - On a target where r0 reads as zero, a uop that writes r0 writes
 *    Uop::R0Sink instead, an extra register-file entry nothing reads,
 *    so block uops write registers without an r0 test.
 *  - The engine punts to step() for anything outside the static
 *    picture: unclaimed pcs (jumps into pool data or mid-block),
 *    misaligned pcs, blocks the translator marked NeedsStep (no delay
 *    slot, control flow in a slot, undecodable sites), and instruction
 *    -limit crossings (so the limit fires at the precise instruction).
 *    A traced run (a TraceSink attached) keeps block dispatch: each
 *    block appends one fetch chunk that reproduces the
 *    per-instruction stream exactly, so every observer of a run — the
 *    replay folds and the direct --no-replay references alike — sees
 *    the same streams on either dispatch path.
 *
 * Layering: this lives in src/sim (the machine executes uops), but the
 * block *discovery* comes from src/analysis, which depends on sim.
 * The BlockTable struct is the narrow waist: analysis exports spans,
 * sim translates them (analysis::exportBlockTable, then
 * core::buildBlockProgram glues the two).
 */

#ifndef D16SIM_SIM_BLOCK_ENGINE_HH
#define D16SIM_SIM_BLOCK_ENGINE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "asm/image.hh"
#include "isa/decoded.hh"
#include "sim/predecode.hh"

namespace d16sim::sim
{

/** One analyzer-recovered basic block: `count` contiguous instruction
 *  sites starting at `startPc` (delay slot included, per the CFG's
 *  block ownership rule). */
struct BlockSpan
{
    uint32_t startPc = 0;
    uint32_t count = 0;
};

/** The narrow waist between analysis (which proves block boundaries)
 *  and sim (which compiles them). Spans must be disjoint, ascending,
 *  and cover only valid instruction sites. */
struct BlockTable
{
    std::vector<BlockSpan> spans;
};

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

/** A stretch of a capture's three reference streams, each in program
 *  order. Consecutive chunks continue one another; no fetch run is
 *  split across two of them. */
struct TraceChunk
{
    std::span<const FetchRun> runs;
    std::span<const DataAccess> accesses;
    std::span<const BranchOutcome> outcomes;
};

/** A consumer of a run's streams, one chunk at a time: the replay
 *  evaluators (core/replay), the direct references they are checked
 *  against (core::FetchBufferProbe, core::CacheProbe), the imm
 *  classifier, and the tee that records a whole trace. */
class TraceFold
{
  public:
    virtual ~TraceFold() = default;
    virtual void feed(const TraceChunk &chunk) = 0;
};

/**
 * The capture buffer: a machine with a sink attached
 * (Machine::setTraceSink) appends its fetch runs, data accesses and
 * branch outcomes to fixed arrays of Capacity records each, inline
 * from both dispatch paths — a block is one run-length-encoded fetch
 * chunk, a step()-executed instruction a one-fetch chunk that merges
 * into the open run. When any array fills, the sink hands everything but the
 * open run (which a later fetch may still extend) to its fold and
 * starts over, so a capture never holds more than one chunk however
 * long it runs. finish() hands over the rest, the open run included.
 */
class TraceSink
{
  public:
    static constexpr uint32_t Capacity = 16384;

    TraceSink(uint32_t insnBytes, TraceFold &fold)
        : insnBytes_(insnBytes), fold_(fold), runs_(Capacity),
          accesses_(Capacity), outcomes_(Capacity)
    {}
    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** `count` sequential fetches from `pc`. */
    void
    fetch(uint32_t pc, uint32_t count)
    {
        if (pc == nextPc_ && runCount_ != 0) {
            runs_[runCount_ - 1].count += count;
        } else {
            if (runCount_ == Capacity)
                flush();
            runs_[runCount_++] = {pc, count};
        }
        nextPc_ = pc + count * insnBytes_;
    }

    void
    data(uint32_t addr, int size, bool write)
    {
        reserveData();
        appendData(addr, size, write);
    }

    /** data() in two steps, so a caller can take the possible flush
     *  before it computes the access: make room for one, then append
     *  it. */
    void
    reserveData()
    {
        if (accessCount_ == Capacity)
            flush();
    }
    void
    appendData(uint32_t addr, int size, bool write)
    {
        accesses_[accessCount_++] = {addr, static_cast<uint8_t>(size), write};
    }

    void
    outcome(uint32_t pc, bool taken)
    {
        if (outcomeCount_ == Capacity)
            flush();
        outcomes_[outcomeCount_++] = {pc, taken};
    }

    /** Hand over everything still buffered; the capture is complete. */
    void finish() { handOver(runCount_); }

  private:
    /** Hand over all but the open run, which moves to the front. */
    void flush();
    /** Hand the first `runs` runs and every access and outcome to the
     *  fold, and empty the arrays. */
    void handOver(uint32_t runs);

    uint32_t insnBytes_;
    uint32_t nextPc_ = 0;
    TraceFold &fold_;
    uint32_t runCount_ = 0;
    uint32_t accessCount_ = 0;
    uint32_t outcomeCount_ = 0;
    std::vector<FetchRun> runs_;
    std::vector<DataAccess> accesses_;
    std::vector<BranchOutcome> outcomes_;
};

/** One pre-bound micro-operation. Immediates are resolved at
 *  translation: branch/jump targets and Ldc pool addresses become
 *  absolute, MvHI's shift is folded, link values are precomputed. */
struct Uop
{
    /** Hazard flags, one set per load delay d (UarchConfig::
     *  loadDelay()), stored at flagShift(d); the machine shifts its
     *  set down to these values. ChkRs: test the GPR scoreboard for
     *  this source (clear means the translator proved no load within d
     *  issues is its latest writer, so no stall is possible).
     *  KeepReady: write rd's t+1 ready time (single-cycle producers
     *  only; rd is normalized to the fixed register for Trap, Ldc and
     *  Jl/Jlr). */
    static constexpr uint8_t ChkRs1 = 1;
    static constexpr uint8_t ChkRs2 = 2;
    static constexpr uint8_t Chk = ChkRs1 | ChkRs2;
    static constexpr uint8_t KeepReady = 4;
    static constexpr unsigned flagShift(int loadDelay)
    {
        return 3u * static_cast<unsigned>(loadDelay - 1);
    }
    /** rd of a uop that writes r0 on a target where r0 reads as zero:
     *  the machine's register file has this one extra, never-read
     *  entry, so block uops write without testing for r0. */
    static constexpr uint8_t R0Sink = 32;

    isa::Op op{};
    isa::Cond cond{};
    uint8_t flags = 0;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    int32_t imm = 0;   //!< immediate / absolute target / absolute ea
    uint32_t aux = 0;  //!< link value (Jl/Jlr) or access size (ld/st)
};

/**
 * An image's text section compiled to threaded code. Immutable after
 * construction and shareable read-only across threads, exactly like
 * the DecodedText it was built from; the sweep engine builds one per
 * build node.
 */
class BlockProgram
{
  public:
    struct Block
    {
        uint32_t startPc = 0;
        uint32_t count = 0;          //!< instructions incl. term + slot
        uint32_t fallThroughPc = 0;  //!< next *address* (may be pool)
        uint32_t uopBegin = 0;       //!< body run in the uop pool
        uint32_t uopCount = 0;       //!< body size (count - 2 if term)
        /** Chained successors: the dispatchable block (not NeedsStep)
         *  starting at fallThroughPc, and at the terminator's static
         *  target (Br/J/Jl/Bz/Bnz), or -1 where dispatch must look the
         *  pc up (register targets, the halt sentinel pc 0, unclaimed
         *  pcs) or hand it to step(). */
        int32_t fallId = -1;
        int32_t takenId = -1;
        Uop term;                    //!< terminator, valid iff hasTerm
        Uop slot;                    //!< delay slot, valid iff hasTerm
        bool hasTerm = false;
        /** The slot is the canonical nop; its uop is then Op::Nop. */
        bool slotBubble = false;
        bool needsStep = false;      //!< dispatch must punt to step()
    };

    /** Translate every span. `text` must be the predecode table of
     *  `image`; spans outside it or holding invalid slots are marked
     *  needsStep rather than rejected. */
    BlockProgram(const assem::Image &image, const DecodedText &text,
                 const BlockTable &table);

    /** Block starting exactly at `pc`, or -1 (unclaimed / misaligned /
     *  outside text). */
    int32_t
    blockAt(uint32_t pc) const
    {
        const uint32_t off = pc - textBase_;
        if (off >= textSize_ || (off & mask_) != 0)
            return -1;
        return index_[off >> shift_];
    }

    const Block &block(int32_t id) const { return blocks_[id]; }
    const Uop *uops(const Block &b) const { return uops_.data() + b.uopBegin; }

    size_t blockCount() const { return blocks_.size(); }
    size_t needsStepCount() const { return needsStep_; }
    size_t uopCount() const { return uops_.size(); }

  private:
    void translate(const isa::TargetInfo &t, const DecodedText &text,
                   const BlockSpan &span);
    /** Fill every block's fallId/takenId once all are translated. */
    void chain();

    uint32_t textBase_ = 0;
    uint32_t textSize_ = 0;
    unsigned shift_ = 2;
    uint32_t mask_ = 3;
    size_t needsStep_ = 0;
    std::vector<Block> blocks_;
    std::vector<Uop> uops_;
    std::vector<int32_t> index_;  //!< per text slot: block id or -1
};

} // namespace d16sim::sim

#endif // D16SIM_SIM_BLOCK_ENGINE_HH
