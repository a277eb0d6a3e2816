#include "sim/machine.hpp"

#include <cmath>
#include <limits>

#include "isa/registers.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace sim {

using isa::Instruction;
using isa::Opcode;
using isa::OperandPattern;
using trace::Operand;
using trace::TraceRecord;

Machine::Machine(const casm::Program &program) : program_(program)
{
    reset();
}

void
Machine::reset()
{
    memory_.clear();
    memory_.loadImage(casm::MemoryLayout::dataBase, program_.data);
    for (auto &r : intRegs_)
        r = 0;
    for (auto &f : fpRegs_)
        f = 0.0;
    intRegs_[isa::regSp] = casm::MemoryLayout::stackTop;
    heapBase_ = program_.heapBase();
    brk_ = heapBase_;
    pc_ = program_.entry;
    executed_ = 0;
    exited_ = false;
    exitCode_ = 0;
    intInputPos_ = 0;
    fpInputPos_ = 0;
    intOutput_.clear();
    fpOutput_.clear();
}

void
Machine::setIntInput(std::vector<int32_t> input)
{
    intInput_ = std::move(input);
    intInputPos_ = 0;
}

void
Machine::setFpInput(std::vector<double> input)
{
    fpInput_ = std::move(input);
    fpInputPos_ = 0;
}

trace::Segment
Machine::classify(uint64_t addr) const
{
    return Memory::classify(addr, heapBase_);
}

namespace {

int32_t
clampToInt32(double v)
{
    if (std::isnan(v))
        return 0;
    if (v >= 2147483647.0)
        return std::numeric_limits<int32_t>::max();
    if (v <= -2147483648.0)
        return std::numeric_limits<int32_t>::min();
    return static_cast<int32_t>(v);
}

} // namespace

bool
Machine::step(TraceRecord &rec)
{
    if (exited_)
        return false;
    if (pc_ >= program_.text.size()) {
        // Falling off the text segment is a clean exit.
        exited_ = true;
        return false;
    }

    const Instruction &inst = program_.text[pc_];
    rec = TraceRecord{};
    rec.pc = pc_;
    rec.cls = isa::opcodeClass(inst.op);
    uint64_t next_pc = pc_ + 1;

    // Register read/write helpers. The zero register is a constant: reads
    // contribute no dependency, writes are discarded and traced as no-ops.
    auto src_int = [&](uint8_t idx) {
        if (idx != 0)
            rec.addSrc(Operand::intReg(idx));
        return static_cast<int32_t>(intRegs_[idx]);
    };
    auto src_uint = [&](uint8_t idx) {
        if (idx != 0)
            rec.addSrc(Operand::intReg(idx));
        return intRegs_[idx];
    };
    auto dest_int = [&](uint8_t idx, int32_t value) {
        if (idx != 0) {
            intRegs_[idx] = static_cast<uint32_t>(value);
            rec.setDest(Operand::intReg(idx));
            rec.setCreatesValue(true);
        }
    };
    auto src_fp = [&](uint8_t idx) {
        rec.addSrc(Operand::fpReg(idx));
        return fpRegs_[idx];
    };
    auto dest_fp = [&](uint8_t idx, double value) {
        fpRegs_[idx] = value;
        rec.setDest(Operand::fpReg(idx));
        rec.setCreatesValue(true);
    };
    auto mem_addr = [&](uint8_t base, int32_t offset) {
        if (base != 0)
            rec.addSrc(Operand::intReg(base));
        return static_cast<uint64_t>(static_cast<uint32_t>(
            intRegs_[base] + static_cast<uint32_t>(offset)));
    };

    switch (inst.op) {
      case Opcode::Add:
        dest_int(inst.rd, src_int(inst.rs) + src_int(inst.rt));
        break;
      case Opcode::Sub:
        dest_int(inst.rd, src_int(inst.rs) - src_int(inst.rt));
        break;
      case Opcode::Mul:
        dest_int(inst.rd, static_cast<int32_t>(
            static_cast<int64_t>(src_int(inst.rs)) *
            static_cast<int64_t>(src_int(inst.rt))));
        break;
      case Opcode::Div: {
        int32_t a = src_int(inst.rs);
        int32_t b = src_int(inst.rt);
        if (b == 0)
            PARA_FATAL("division by zero at pc %llu",
                       static_cast<unsigned long long>(pc_));
        int32_t q = (a == std::numeric_limits<int32_t>::min() && b == -1)
                        ? a
                        : a / b;
        dest_int(inst.rd, q);
        break;
      }
      case Opcode::Rem: {
        int32_t a = src_int(inst.rs);
        int32_t b = src_int(inst.rt);
        if (b == 0)
            PARA_FATAL("remainder by zero at pc %llu",
                       static_cast<unsigned long long>(pc_));
        int32_t r = (a == std::numeric_limits<int32_t>::min() && b == -1)
                        ? 0
                        : a % b;
        dest_int(inst.rd, r);
        break;
      }
      case Opcode::And:
        dest_int(inst.rd, static_cast<int32_t>(src_uint(inst.rs) &
                                               src_uint(inst.rt)));
        break;
      case Opcode::Or:
        dest_int(inst.rd, static_cast<int32_t>(src_uint(inst.rs) |
                                               src_uint(inst.rt)));
        break;
      case Opcode::Xor:
        dest_int(inst.rd, static_cast<int32_t>(src_uint(inst.rs) ^
                                               src_uint(inst.rt)));
        break;
      case Opcode::Nor:
        dest_int(inst.rd, static_cast<int32_t>(~(src_uint(inst.rs) |
                                                 src_uint(inst.rt))));
        break;
      case Opcode::Sllv:
        dest_int(inst.rd, static_cast<int32_t>(src_uint(inst.rs)
                                               << (src_uint(inst.rt) & 31)));
        break;
      case Opcode::Srlv:
        dest_int(inst.rd, static_cast<int32_t>(src_uint(inst.rs) >>
                                               (src_uint(inst.rt) & 31)));
        break;
      case Opcode::Srav:
        dest_int(inst.rd, src_int(inst.rs) >>
                              (src_uint(inst.rt) & 31));
        break;
      case Opcode::Slt:
        dest_int(inst.rd, src_int(inst.rs) < src_int(inst.rt) ? 1 : 0);
        break;
      case Opcode::Sltu:
        dest_int(inst.rd, src_uint(inst.rs) < src_uint(inst.rt) ? 1 : 0);
        break;
      case Opcode::Addi:
        dest_int(inst.rd, src_int(inst.rs) + inst.imm);
        break;
      case Opcode::Andi:
        dest_int(inst.rd, static_cast<int32_t>(
            src_uint(inst.rs) & static_cast<uint32_t>(inst.imm)));
        break;
      case Opcode::Ori:
        dest_int(inst.rd, static_cast<int32_t>(
            src_uint(inst.rs) | static_cast<uint32_t>(inst.imm)));
        break;
      case Opcode::Xori:
        dest_int(inst.rd, static_cast<int32_t>(
            src_uint(inst.rs) ^ static_cast<uint32_t>(inst.imm)));
        break;
      case Opcode::Slti:
        dest_int(inst.rd, src_int(inst.rs) < inst.imm ? 1 : 0);
        break;
      case Opcode::Sll:
        dest_int(inst.rd, static_cast<int32_t>(src_uint(inst.rs)
                                               << (inst.imm & 31)));
        break;
      case Opcode::Srl:
        dest_int(inst.rd, static_cast<int32_t>(src_uint(inst.rs) >>
                                               (inst.imm & 31)));
        break;
      case Opcode::Sra:
        dest_int(inst.rd, src_int(inst.rs) >> (inst.imm & 31));
        break;
      case Opcode::Li:
        dest_int(inst.rd, inst.imm);
        break;
      case Opcode::Lui:
        dest_int(inst.rd, static_cast<int32_t>(
            static_cast<uint32_t>(inst.imm) << 16));
        break;
      case Opcode::Move:
        dest_int(inst.rd, src_int(inst.rs));
        break;
      case Opcode::Lw: {
        uint64_t addr = mem_addr(inst.rs, inst.imm);
        rec.addSrc(Operand::mem(addr, classify(addr)));
        dest_int(inst.rd, static_cast<int32_t>(memory_.read32(addr)));
        break;
      }
      case Opcode::Sw: {
        int32_t value = src_int(inst.rt);
        uint64_t addr = mem_addr(inst.rs, inst.imm);
        memory_.write32(addr, static_cast<uint32_t>(value));
        rec.setDest(Operand::mem(addr, classify(addr)));
        rec.setCreatesValue(true);
        break;
      }
      case Opcode::Ld: {
        uint64_t addr = mem_addr(inst.rs, inst.imm);
        rec.addSrc(Operand::mem(addr, classify(addr)));
        dest_fp(inst.rd, memory_.readDouble(addr));
        break;
      }
      case Opcode::Sd: {
        double value = src_fp(inst.rt);
        uint64_t addr = mem_addr(inst.rs, inst.imm);
        memory_.writeDouble(addr, value);
        rec.setDest(Operand::mem(addr, classify(addr)));
        rec.setCreatesValue(true);
        break;
      }
      case Opcode::FAdd:
        dest_fp(inst.rd, src_fp(inst.rs) + src_fp(inst.rt));
        break;
      case Opcode::FSub:
        dest_fp(inst.rd, src_fp(inst.rs) - src_fp(inst.rt));
        break;
      case Opcode::FMul:
        dest_fp(inst.rd, src_fp(inst.rs) * src_fp(inst.rt));
        break;
      case Opcode::FDiv:
        dest_fp(inst.rd, src_fp(inst.rs) / src_fp(inst.rt));
        break;
      case Opcode::FSqrt:
        dest_fp(inst.rd, std::sqrt(src_fp(inst.rs)));
        break;
      case Opcode::FNeg:
        dest_fp(inst.rd, -src_fp(inst.rs));
        break;
      case Opcode::FMov:
        dest_fp(inst.rd, src_fp(inst.rs));
        break;
      case Opcode::CvtDW:
        dest_fp(inst.rd, static_cast<double>(src_int(inst.rs)));
        break;
      case Opcode::CvtWD:
        dest_int(inst.rd, clampToInt32(src_fp(inst.rs)));
        break;
      case Opcode::FCLt:
        dest_int(inst.rd, src_fp(inst.rs) < src_fp(inst.rt) ? 1 : 0);
        break;
      case Opcode::FCLe:
        dest_int(inst.rd, src_fp(inst.rs) <= src_fp(inst.rt) ? 1 : 0);
        break;
      case Opcode::FCEq:
        dest_int(inst.rd, src_fp(inst.rs) == src_fp(inst.rt) ? 1 : 0);
        break;
      case Opcode::Beq:
        rec.setCondBranch(true);
        rec.setBranchTaken(src_int(inst.rs) == src_int(inst.rt));
        if (rec.branchTaken())
            next_pc = static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::Bne:
        rec.setCondBranch(true);
        rec.setBranchTaken(src_int(inst.rs) != src_int(inst.rt));
        if (rec.branchTaken())
            next_pc = static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::Blez:
        rec.setCondBranch(true);
        rec.setBranchTaken(src_int(inst.rs) <= 0);
        if (rec.branchTaken())
            next_pc = static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::Bgtz:
        rec.setCondBranch(true);
        rec.setBranchTaken(src_int(inst.rs) > 0);
        if (rec.branchTaken())
            next_pc = static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::Bltz:
        rec.setCondBranch(true);
        rec.setBranchTaken(src_int(inst.rs) < 0);
        if (rec.branchTaken())
            next_pc = static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::Bgez:
        rec.setCondBranch(true);
        rec.setBranchTaken(src_int(inst.rs) >= 0);
        if (rec.branchTaken())
            next_pc = static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::J:
        next_pc = static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::Jal:
        // jal creates a value: the return address in ra.
        dest_int(isa::regRa, static_cast<int32_t>(pc_ + 1));
        next_pc = static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::Jr:
        next_pc = static_cast<uint64_t>(
            static_cast<uint32_t>(src_int(inst.rs)));
        break;
      case Opcode::Jalr:
        next_pc = static_cast<uint64_t>(
            static_cast<uint32_t>(src_int(inst.rs)));
        dest_int(inst.rd, static_cast<int32_t>(pc_ + 1));
        break;
      case Opcode::SysCall:
        doSysCall(rec);
        break;
      case Opcode::Nop:
        break;
      default:
        PARA_PANIC("unimplemented opcode %d", static_cast<int>(inst.op));
    }

    pc_ = next_pc;
    ++executed_;
    return true;
}

void
Machine::doSysCall(TraceRecord &rec)
{
    rec.setSysCall(true);
    rec.addSrc(Operand::intReg(isa::regV0));
    auto service =
        static_cast<SysCallService>(static_cast<int32_t>(intRegs_[isa::regV0]));
    switch (service) {
      case SysCallService::PrintInt:
        rec.addSrc(Operand::intReg(isa::regA0));
        intOutput_.push_back(static_cast<int32_t>(intRegs_[isa::regA0]));
        break;
      case SysCallService::PrintDouble:
        rec.addSrc(Operand::fpReg(12));
        fpOutput_.push_back(fpRegs_[12]);
        break;
      case SysCallService::ReadInt: {
        int32_t v = intInputPos_ < intInput_.size()
                        ? intInput_[intInputPos_++]
                        : 0;
        intRegs_[isa::regV0] = static_cast<uint32_t>(v);
        rec.setDest(Operand::intReg(isa::regV0));
        rec.setCreatesValue(true);
        break;
      }
      case SysCallService::ReadDouble: {
        double v = fpInputPos_ < fpInput_.size() ? fpInput_[fpInputPos_++]
                                                 : 0.0;
        fpRegs_[0] = v;
        rec.setDest(Operand::fpReg(0));
        rec.setCreatesValue(true);
        break;
      }
      case SysCallService::Exit:
        rec.addSrc(Operand::intReg(isa::regA0));
        exitCode_ = static_cast<int32_t>(intRegs_[isa::regA0]);
        exited_ = true;
        break;
      case SysCallService::Sbrk: {
        rec.addSrc(Operand::intReg(isa::regA0));
        uint64_t old = brk_;
        uint64_t bytes =
            (static_cast<uint32_t>(intRegs_[isa::regA0]) + 7ull) & ~7ull;
        brk_ += bytes;
        if (brk_ >= Memory::stackFloor)
            PARA_FATAL("heap overflow: brk past stack floor");
        intRegs_[isa::regV0] = static_cast<uint32_t>(old);
        rec.setDest(Operand::intReg(isa::regV0));
        rec.setCreatesValue(true);
        break;
      }
      default:
        PARA_FATAL("unknown syscall service %d",
                   static_cast<int32_t>(intRegs_[isa::regV0]));
    }
}

uint64_t
Machine::run(uint64_t max_instructions)
{
    TraceRecord rec;
    uint64_t n = 0;
    while ((max_instructions == 0 || n < max_instructions) && step(rec))
        ++n;
    return n;
}

MachineTraceSource::MachineTraceSource(const casm::Program &program,
                                       std::vector<int32_t> int_input,
                                       std::vector<double> fp_input,
                                       std::string name)
    : intInput_(std::move(int_input)),
      fpInput_(std::move(fp_input)),
      name_(std::move(name)),
      machine_(program)
{
    machine_.setIntInput(intInput_);
    machine_.setFpInput(fpInput_);
}

MachineTraceSource::MachineTraceSource(
    std::shared_ptr<const casm::Program> program,
    std::vector<int32_t> int_input, std::vector<double> fp_input,
    std::string name)
    : MachineTraceSource(*program, std::move(int_input), std::move(fp_input),
                         std::move(name))
{
    owned_ = std::move(program);
}

bool
MachineTraceSource::next(trace::TraceRecord &rec)
{
    return machine_.step(rec);
}

size_t
MachineTraceSource::nextBatch(trace::TraceRecord *out, size_t max)
{
    size_t n = 0;
    while (n < max && machine_.step(out[n]))
        ++n;
    return n;
}

void
MachineTraceSource::reset()
{
    machine_.reset();
    machine_.setIntInput(intInput_);
    machine_.setFpInput(fpInput_);
}

} // namespace sim
} // namespace paragraph
