#include "core/toolchain.hh"

#include <bit>
#include <optional>

#include "analysis/analysis.hh"
#include "analysis/block_export.hh"
#include "support/error.hh"
#include "verify/verify.hh"

namespace d16sim::core
{

unsigned
fetchBusShift(uint32_t busBytes)
{
    if (busBytes < 4 || !std::has_single_bit(busBytes))
        fatal("fetch bus width ", busBytes,
              " is not a power of two of at least 4 bytes");
    return static_cast<unsigned>(std::countr_zero(busBytes));
}

assem::Image
build(std::string_view source, const mc::CompileOptions &opts)
{
    // Verification is always on in debug builds; release builds (where
    // the experiments run) enable it per-options via verifyEach.
#ifndef NDEBUG
    const bool verifying = true;
#else
    const bool verifying = opts.verifyEach;
#endif
    mc::CompileOptions effective = opts;
    if (verifying && !effective.verifyHook)
        verify::installIrVerifier(effective);
    if (effective.validateEach && !effective.validator)
        verify::installTranslationValidator(effective);

    mc::CompileResult comp = mc::compile(source, effective);
    assem::Assembler as(opts.target());
    as.add(std::move(comp.items));
    assem::Image img = as.link();
    if (verifying) {
        verify::lintImageOrThrow(img, std::string(opts.name()));
        analysis::analyzeImageOrThrow(img, opts, std::string(opts.name()));
    }
    return img;
}

ImmediateClassProbe::Class
ImmediateClassProbe::classify(const isa::DecodedInst &inst)
{
    const auto &d16 = isa::TargetInfo::d16();
    switch (inst.op) {
      case isa::Op::CmpI:
        return Class::CmpImmediate;
      case isa::Op::AddI: case isa::Op::SubI:
        if (!d16.aluImmFits(inst.op, inst.imm) &&
            !d16.aluImmFits(inst.op == isa::Op::AddI ? isa::Op::SubI
                                                     : isa::Op::AddI,
                            -static_cast<int64_t>(inst.imm)))
            return Class::AluImmediate;
        return Class::Fits;
      case isa::Op::AndI: case isa::Op::OrI: case isa::Op::XorI:
      case isa::Op::MvHI:
        return Class::AluImmediate;  // D16 has no logical/upper immediates
      case isa::Op::Ld: case isa::Op::St:
      case isa::Op::Ldh: case isa::Op::Ldhu: case isa::Op::Sth:
      case isa::Op::Ldb: case isa::Op::Ldbu: case isa::Op::Stb:
        return d16.memOffsetFits(inst.op, inst.imm) ? Class::Fits
                                                    : Class::MemDisplacement;
      default:
        return Class::Fits;
    }
}

ImmediateClassProbe::ImmediateClassProbe(const sim::DecodedText &text)
    : textBase_(text.base()), insnShift_(text.insnShift()),
      before_(text.size() + 1)
{
    for (uint32_t i = 0; i < text.size(); ++i) {
        before_[i + 1] = before_[i];
        const Class c = text.valid(i) ? classify(text.at(i)) : Class::Fits;
        if (c != Class::Fits)
            ++before_[i + 1][static_cast<size_t>(c) - 1];
    }
}

void
ImmediateClassProbe::feed(const sim::TraceChunk &chunk)
{
    const size_t slots = before_.size() - 1;
    for (const sim::FetchRun &r : chunk.runs) {
        const uint32_t idx = (r.startPc - textBase_) >> insnShift_;
        panicIf(idx >= slots || r.count > slots - idx,
                "fetch run outside the classified text");
        total_ += r.count;
        const Counts &lo = before_[idx];
        const Counts &hi = before_[idx + r.count];
        for (size_t c = 0; c < Counted; ++c)
            counts_[c] += hi[c] - lo[c];
    }
}

sim::BlockTable
recoverBlockTable(const assem::Image &image)
{
    return analysis::exportBlockTable(analysis::buildCfg(image));
}

std::shared_ptr<const sim::BlockProgram>
makeBlockProgram(const assem::Image &image,
                 std::shared_ptr<const sim::DecodedText> predecoded,
                 const sim::BlockTable &table)
{
    if (!predecoded)
        predecoded = std::make_shared<const sim::DecodedText>(image);
    return std::make_shared<const sim::BlockProgram>(image, *predecoded,
                                                     table);
}

std::shared_ptr<const sim::BlockProgram>
buildBlockProgram(const assem::Image &image,
                  std::shared_ptr<const sim::DecodedText> predecoded)
{
    if (!predecoded)
        predecoded = std::make_shared<const sim::DecodedText>(image);
    return makeBlockProgram(image, predecoded,
                            recoverBlockTable(image));
}

RunMeasurement
run(const assem::Image &image, sim::TraceFold *fold,
    sim::MachineConfig config,
    std::shared_ptr<const sim::DecodedText> predecoded,
    std::shared_ptr<const sim::BlockProgram> blocks)
{
    sim::Machine machine(image, config, std::move(predecoded));
    if (blocks)
        machine.setBlockProgram(std::move(blocks));
    std::optional<sim::TraceSink> sink;
    if (fold) {
        sink.emplace(static_cast<uint32_t>(image.target->insnBytes()), *fold);
        machine.setTraceSink(&*sink);
    }
    RunMeasurement m;
    m.exitStatus = machine.run();
    if (sink)
        sink->finish();
    m.output = machine.output();
    m.stats = machine.stats();
    m.sizeBytes = image.sizeBytes();
    m.textBytes = image.textSize;
    m.textInsns = image.textInsns;
    return m;
}

RunMeasurement
buildAndRun(std::string_view source, const mc::CompileOptions &opts)
{
    return run(build(source, opts));
}

} // namespace d16sim::core
