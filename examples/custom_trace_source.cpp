// Bringing your own trace: Paragraph analyzes anything that implements
// trace::TraceSource, so traces can come from other simulators, binary
// instrumentation, or synthetic models — not just the bundled machine.
//
// This example defines a synthetic "vector triad" trace generator
// (a(i) = b(i) + s * c(i), the STREAM triad) with a configurable recurrence
// every Kth element, and shows how the injected serial chain throttles the
// available parallelism.
//
//   $ ./custom_trace_source
#include <iostream>

#include "core/paragraph.hpp"
#include "support/ascii_table.hpp"
#include "trace/source.hpp"

using namespace paragraph;

namespace {

/** Synthetic STREAM-triad trace: load, load, fmul, fadd, store per element,
 *  plus a true-dependence recurrence chaining every Kth element. */
class TriadSource : public trace::TraceSource
{
  public:
    TriadSource(uint64_t elements, uint64_t recurrence_stride)
        : elements_(elements), stride_(recurrence_stride)
    {
    }

    bool
    next(trace::TraceRecord &rec) override
    {
        uint64_t element = pos_ / 5;
        if (element >= elements_)
            return false;
        uint64_t phase = pos_ % 5;
        ++pos_;

        using trace::Operand;
        using trace::Segment;
        uint64_t b_addr = 0x100000 + element * 8;
        uint64_t c_addr = 0x200000 + element * 8;
        uint64_t a_addr = 0x300000 + element * 8;

        rec = trace::TraceRecord{};
        rec.setCreatesValue(true);
        rec.pc = phase;
        switch (phase) {
          case 0: // f1 <- b[i]
            rec.cls = isa::OpClass::Load;
            rec.addSrc(Operand::mem(b_addr, Segment::Data));
            rec.setDest(Operand::fpReg(1));
            break;
          case 1: // f2 <- c[i]
            rec.cls = isa::OpClass::Load;
            rec.addSrc(Operand::mem(c_addr, Segment::Data));
            rec.setDest(Operand::fpReg(2));
            break;
          case 2: // f3 <- s * f2
            rec.cls = isa::OpClass::FpMul;
            rec.addSrc(Operand::fpReg(0)); // the scalar s (pre-existing)
            rec.addSrc(Operand::fpReg(2));
            rec.setDest(Operand::fpReg(3));
            break;
          case 3: // f4 <- f1 + f3   (with a recurrence every stride_)
            rec.cls = isa::OpClass::FpAddSub;
            rec.addSrc(Operand::fpReg(1));
            rec.addSrc(Operand::fpReg(3));
            if (stride_ && element % stride_ == 0 && element > 0) {
                // couple to the previous chained element's result
                rec.addSrc(Operand::mem(
                    0x300000 + (element - stride_) * 8, Segment::Data));
            }
            rec.setDest(Operand::fpReg(4));
            break;
          default: // a[i] <- f4
            rec.cls = isa::OpClass::Store;
            rec.addSrc(Operand::fpReg(4));
            rec.setDest(Operand::mem(a_addr, Segment::Data));
            break;
        }
        return true;
    }

    void reset() override { pos_ = 0; }

    std::string
    name() const override
    {
        return "triad/" + std::to_string(stride_);
    }

  private:
    uint64_t elements_;
    uint64_t stride_;
    uint64_t pos_ = 0;
};

} // namespace

int
main()
{
    std::cout << "Synthetic STREAM-triad traces through Paragraph: the "
                 "denser the injected\nrecurrence, the longer the critical "
                 "path.\n\n";
    AsciiTable table;
    table.addColumn("Recurrence stride", AsciiTable::Align::Left);
    table.addColumn("Critical Path");
    table.addColumn("Avail Parallelism");

    for (uint64_t stride : {0u, 512u, 64u, 8u, 1u}) {
        TriadSource src(100000, stride);
        core::Paragraph engine(
            core::AnalysisConfig::dataflowConservative());
        core::AnalysisResult res = engine.analyze(src);
        table.beginRow();
        table.cell(stride == 0 ? std::string("none (fully parallel)")
                               : "every " + std::to_string(stride));
        table.cell(res.criticalPathLength);
        table.cell(res.availableParallelism, 2);
    }
    table.print(std::cout);
    return 0;
}
