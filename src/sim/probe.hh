/**
 * @file
 * Observation interface for the pipeline simulator.
 *
 * Experiment harnesses attach probes to observe the dynamic
 * instruction/data reference streams without the machine knowing what
 * is being measured — fetch-buffer counters, cache models, and
 * instruction-mix classifiers are all probes.
 */

#ifndef D16SIM_SIM_PROBE_HH
#define D16SIM_SIM_PROBE_HH

#include <cstdint>

#include "isa/decoded.hh"

namespace d16sim::sim
{

class Probe
{
  public:
    virtual ~Probe() = default;

    /** An instruction at `pc` is being fetched. */
    virtual void onIFetch(uint32_t pc) { (void)pc; }

    /** An instruction has been decoded and will execute. */
    virtual void
    onExec(const isa::DecodedInst &inst, uint32_t pc)
    {
        (void)inst;
        (void)pc;
    }

    /** Data read of `size` bytes at `addr` (loads and Ldc). */
    virtual void
    onDataRead(uint32_t addr, int size)
    {
        (void)addr;
        (void)size;
    }

    /** Data write of `size` bytes at `addr`. */
    virtual void
    onDataWrite(uint32_t addr, int size)
    {
        (void)addr;
        (void)size;
    }

    /** The instruction at `pc` stalled `cycles` cycles before issuing;
     *  `fp` mirrors the machine's interlock attribution (true = math
     *  unit busy, false = delayed load). Only called when cycles > 0,
     *  after the instruction executed. */
    virtual void
    onStall(uint32_t pc, uint64_t cycles, bool fp)
    {
        (void)pc;
        (void)cycles;
        (void)fp;
    }

    /** The transfer at `pc` was charged `cycles` branch-policy stall
     *  cycles (mispredict penalty or taken-transfer fetch extra; see
     *  sim/uarch.hh). Only called when cycles > 0. Never called at
     *  the default microarchitecture. */
    virtual void
    onBranchStall(uint32_t pc, uint64_t cycles)
    {
        (void)pc;
        (void)cycles;
    }
};

} // namespace d16sim::sim

#endif // D16SIM_SIM_PROBE_HH
