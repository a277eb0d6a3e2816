#include "trace/record.hpp"

#include <sstream>

#include "isa/registers.hpp"
#include "support/string_utils.hpp"
#include "trace/stats.hpp"

namespace paragraph {
namespace trace {

const char *
segmentName(Segment seg)
{
    switch (seg) {
      case Segment::None:  return "none";
      case Segment::Data:  return "data";
      case Segment::Heap:  return "heap";
      case Segment::Stack: return "stack";
      default:             return "?";
    }
}

namespace {

std::string
operandToString(const Operand &op)
{
    switch (op.kind) {
      case Operand::Kind::IntReg:
        return isa::intRegName(static_cast<uint8_t>(op.id));
      case Operand::Kind::FpReg:
        return isa::fpRegName(static_cast<uint8_t>(op.id));
      case Operand::Kind::Mem:
        return strFormat("%s[0x%llx]", segmentName(op.seg),
                         static_cast<unsigned long long>(op.id));
      default:
        return "-";
    }
}

} // namespace

std::string
toString(const TraceRecord &rec)
{
    std::ostringstream oss;
    oss << isa::opClassName(rec.cls) << " ";
    if (rec.hasDest())
        oss << operandToString(rec.dest()) << " <-";
    for (int i = 0; i < rec.numSrcs; ++i)
        oss << " " << operandToString(rec.src(i));
    if (rec.isSysCall())
        oss << " [syscall]";
    if (!rec.createsValue())
        oss << " [no-value]";
    return oss.str();
}

void
TraceStats::add(const TraceRecord &rec)
{
    ++totalInstructions;
    ++byClass[static_cast<size_t>(rec.cls)];
    if (rec.createsValue())
        ++valueCreating;
    if (rec.cls == isa::OpClass::Control)
        ++controlInstructions;
    if (rec.isSysCall())
        ++sysCalls;
    if (rec.cls == isa::OpClass::Load)
        ++loads;
    if (rec.cls == isa::OpClass::Store)
        ++stores;

    auto count_mem = [this](const Operand &op) {
        if (!op.isMem())
            return;
        if (op.seg == Segment::Stack)
            ++stackAccesses;
        else
            ++dataAccesses;
    };
    for (int i = 0; i < rec.numSrcs; ++i)
        count_mem(rec.src(i));
    count_mem(rec.dest());
}

TraceStats
TraceStats::collect(TraceSource &src)
{
    TraceStats stats;
    TraceRecord rec;
    while (src.next(rec))
        stats.add(rec);
    return stats;
}

double
TraceStats::fpFraction() const
{
    if (totalInstructions == 0)
        return 0.0;
    uint64_t fp = byClass[static_cast<size_t>(isa::OpClass::FpAddSub)] +
                  byClass[static_cast<size_t>(isa::OpClass::FpMul)] +
                  byClass[static_cast<size_t>(isa::OpClass::FpDiv)];
    return static_cast<double>(fp) / static_cast<double>(totalInstructions);
}

double
TraceStats::instructionsPerSysCall() const
{
    if (sysCalls == 0)
        return 0.0;
    return static_cast<double>(totalInstructions) /
           static_cast<double>(sysCalls);
}

} // namespace trace
} // namespace paragraph
