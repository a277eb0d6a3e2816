// Functional tests for the simulator: opcode semantics, syscalls, and the
// trace records it emits.
#include <gtest/gtest.h>

#include <cmath>

#include "casm/assembler.hpp"
#include "isa/registers.hpp"
#include "sim/machine.hpp"
#include "support/panic.hpp"
#include "trace/buffer.hpp"
#include "trace/stats.hpp"

using namespace paragraph;
using namespace paragraph::sim;
using paragraph::trace::Operand;
using paragraph::trace::Segment;
using paragraph::trace::TraceRecord;

namespace {

/** Assemble, run to completion, return the machine for inspection. */
Machine
runProgram(const std::string &asm_text, const casm::Program *&prog_out,
           std::vector<int32_t> int_input = {})
{
    static std::vector<std::unique_ptr<casm::Program>> keep_alive;
    keep_alive.push_back(
        std::make_unique<casm::Program>(casm::assemble(asm_text)));
    prog_out = keep_alive.back().get();
    Machine m(*keep_alive.back());
    m.setIntInput(std::move(int_input));
    m.run();
    return m;
}

Machine
runProgram(const std::string &asm_text, std::vector<int32_t> int_input = {})
{
    const casm::Program *ignored;
    return runProgram(asm_text, ignored, std::move(int_input));
}

} // namespace

TEST(Machine, IntegerArithmetic)
{
    Machine m = runProgram(R"(
        li t0, 21
        li t1, 4
        add t2, t0, t1
        sub t3, t0, t1
        mul t4, t0, t1
        div t5, t0, t1
        rem t6, t0, t1
)");
    EXPECT_EQ(m.intReg(isa::regT2), 25);
    EXPECT_EQ(m.intReg(isa::regT3), 17);
    EXPECT_EQ(m.intReg(isa::regT4), 84);
    EXPECT_EQ(m.intReg(isa::regT5), 5);
    EXPECT_EQ(m.intReg(isa::regT6), 1);
}

TEST(Machine, NegativeDivisionTruncatesTowardZero)
{
    Machine m = runProgram(R"(
        li t0, -7
        li t1, 2
        div t2, t0, t1
        rem t3, t0, t1
)");
    EXPECT_EQ(m.intReg(isa::regT2), -3);
    EXPECT_EQ(m.intReg(isa::regT3), -1);
}

TEST(Machine, LogicalAndShifts)
{
    Machine m = runProgram(R"(
        li t0, 0xF0
        li t1, 0x3C
        and t2, t0, t1
        or t3, t0, t1
        xor t4, t0, t1
        nor t5, t0, t1
        sll t6, t0, 4
        srl t7, t0, 4
        li t8, -16
        sra t9, t8, 2
)");
    EXPECT_EQ(m.intReg(isa::regT2), 0x30);
    EXPECT_EQ(m.intReg(isa::regT3), 0xFC);
    EXPECT_EQ(m.intReg(isa::regT4), 0xCC);
    EXPECT_EQ(m.intReg(isa::regT5), ~0xFC);
    EXPECT_EQ(m.intReg(isa::regT6), 0xF00);
    EXPECT_EQ(m.intReg(isa::regT7), 0x0F);
    EXPECT_EQ(m.intReg(isa::regT9), -4);
}

TEST(Machine, VariableShiftsMask5Bits)
{
    Machine m = runProgram(R"(
        li t0, 1
        li t1, 33
        sllv t2, t0, t1
)");
    EXPECT_EQ(m.intReg(isa::regT2), 2); // 33 & 31 == 1
}

TEST(Machine, SetLessThan)
{
    Machine m = runProgram(R"(
        li t0, -1
        li t1, 1
        slt t2, t0, t1
        sltu t3, t0, t1
        slti t4, t0, 0
)");
    EXPECT_EQ(m.intReg(isa::regT2), 1);
    EXPECT_EQ(m.intReg(isa::regT3), 0); // 0xffffffff unsigned > 1
    EXPECT_EQ(m.intReg(isa::regT4), 1);
}

TEST(Machine, ZeroRegisterIsImmutable)
{
    Machine m = runProgram(R"(
        li zero, 55
        addi zero, zero, 3
        move t0, zero
)");
    EXPECT_EQ(m.intReg(0), 0);
    EXPECT_EQ(m.intReg(isa::regT0), 0);
}

TEST(Machine, MemoryWordRoundTrip)
{
    Machine m = runProgram(R"(
        .data
var:    .word 123
        .text
        lw t0, var
        addi t0, t0, 1
        sw t0, var
        lw t1, var
)");
    EXPECT_EQ(m.intReg(isa::regT1), 124);
}

TEST(Machine, StackMemory)
{
    Machine m = runProgram(R"(
        addi sp, sp, -16
        li t0, 77
        sw t0, 4(sp)
        lw t1, 4(sp)
        lw t2, 8(sp)       # untouched stack reads as zero
        addi sp, sp, 16
)");
    EXPECT_EQ(m.intReg(isa::regT1), 77);
    EXPECT_EQ(m.intReg(isa::regT2), 0);
}

TEST(Machine, FloatingPoint)
{
    Machine m = runProgram(R"(
        .data
a:      .double 2.5
b:      .double 0.5
        .text
        l.d f0, a
        l.d f1, b
        add.d f2, f0, f1
        sub.d f3, f0, f1
        mul.d f4, f0, f1
        div.d f5, f0, f1
        neg.d f6, f0
        sqrt.d f7, f0
        mov.d f8, f0
        c.lt.d t0, f1, f0
        c.le.d t1, f0, f0
        c.eq.d t2, f0, f1
)");
    EXPECT_DOUBLE_EQ(m.fpReg(2), 3.0);
    EXPECT_DOUBLE_EQ(m.fpReg(3), 2.0);
    EXPECT_DOUBLE_EQ(m.fpReg(4), 1.25);
    EXPECT_DOUBLE_EQ(m.fpReg(5), 5.0);
    EXPECT_DOUBLE_EQ(m.fpReg(6), -2.5);
    EXPECT_DOUBLE_EQ(m.fpReg(7), std::sqrt(2.5));
    EXPECT_DOUBLE_EQ(m.fpReg(8), 2.5);
    EXPECT_EQ(m.intReg(isa::regT0), 1);
    EXPECT_EQ(m.intReg(isa::regT1), 1);
    EXPECT_EQ(m.intReg(isa::regT2), 0);
}

TEST(Machine, Conversions)
{
    Machine m = runProgram(R"(
        li t0, -3
        cvt.d.w f0, t0
        .data
x:      .double 7.9
        .text
        l.d f1, x
        cvt.w.d t1, f1
)");
    EXPECT_DOUBLE_EQ(m.fpReg(0), -3.0);
    EXPECT_EQ(m.intReg(isa::regT1), 7); // truncation
}

TEST(Machine, BranchesAndLoop)
{
    Machine m = runProgram(R"(
        li t0, 5
        li t1, 0
loop:   add t1, t1, t0
        addi t0, t0, -1
        bgtz t0, loop
)");
    EXPECT_EQ(m.intReg(isa::regT1), 15);
    EXPECT_TRUE(m.exited()); // ran off the end cleanly
}

TEST(Machine, AllBranchConditions)
{
    Machine m = runProgram(R"(
        li t0, -1
        li t1, 1
        li t9, 0
        beq t0, t0, L1
        li t9, 99
L1:     bne t0, t1, L2
        li t9, 99
L2:     blez t0, L3
        li t9, 99
L3:     bgtz t1, L4
        li t9, 99
L4:     bltz t0, L5
        li t9, 99
L5:     bgez t1, L6
        li t9, 99
L6:     nop
)");
    EXPECT_EQ(m.intReg(isa::regT9), 0);
}

TEST(Machine, JalAndJr)
{
    Machine m = runProgram(R"(
main:   jal func
        li t1, 2
        j end
func:   li t0, 1
        jr ra
end:    nop
)");
    EXPECT_EQ(m.intReg(isa::regT0), 1);
    EXPECT_EQ(m.intReg(isa::regT1), 2);
}

TEST(Machine, JalrLinksThroughChosenRegister)
{
    Machine m = runProgram(R"(
main:   la t5, func
        jalr t6, t5
        j end
func:   li t0, 42
        jr t6
end:    nop
)");
    EXPECT_EQ(m.intReg(isa::regT0), 42);
}

TEST(Machine, SysCallsPrintReadExit)
{
    Machine m = runProgram(R"(
        li v0, 3
        syscall            # read_int -> v0
        move a0, v0
        li v0, 1
        syscall            # print_int(a0)
        li a0, 9
        li v0, 5
        syscall            # exit(9)
        li t0, 1           # must not execute
)",
                           {1234});
    EXPECT_TRUE(m.exited());
    EXPECT_EQ(m.exitCode(), 9);
    ASSERT_EQ(m.intOutput().size(), 1u);
    EXPECT_EQ(m.intOutput()[0], 1234);
    EXPECT_EQ(m.intReg(isa::regT0), 0);
}

TEST(Machine, ExhaustedInputReadsZero)
{
    Machine m = runProgram(R"(
        li v0, 3
        syscall
        move t0, v0
)");
    EXPECT_EQ(m.intReg(isa::regT0), 0);
}

TEST(Machine, SbrkAllocatesDisjointChunks)
{
    Machine m = runProgram(R"(
        li a0, 16
        li v0, 6
        syscall
        move t0, v0
        li a0, 16
        li v0, 6
        syscall
        move t1, v0
)");
    int32_t first = m.intReg(isa::regT0);
    int32_t second = m.intReg(isa::regT1);
    EXPECT_EQ(second - first, 16);
    EXPECT_EQ(first % 8, 0);
}

TEST(Machine, DivisionByZeroIsFatal)
{
    casm::Program prog = casm::assemble(R"(
        li t0, 1
        li t1, 0
        div t2, t0, t1
)");
    Machine m(prog);
    EXPECT_THROW(m.run(), FatalError);
}

TEST(Machine, TraceRecordsCarryOperands)
{
    casm::Program prog = casm::assemble(R"(
        li t0, 5
        addi t1, t0, 2
        sw t1, 0(sp)
        lw t2, 0(sp)
        beq t1, t2, done
done:   syscall
)");
    // (v0 == 0 is not a valid service, so stop before the syscall.)
    Machine m(prog);
    trace::TraceRecord rec;

    ASSERT_TRUE(m.step(rec)); // li
    EXPECT_EQ(rec.numSrcs, 0);
    EXPECT_TRUE(rec.createsValue());
    EXPECT_EQ(rec.dest(), Operand::intReg(isa::regT0));
    EXPECT_EQ(rec.cls, isa::OpClass::IntAlu);

    ASSERT_TRUE(m.step(rec)); // addi
    ASSERT_EQ(rec.numSrcs, 1);
    EXPECT_EQ(rec.src(0), Operand::intReg(isa::regT0));

    ASSERT_TRUE(m.step(rec)); // sw
    EXPECT_EQ(rec.cls, isa::OpClass::Store);
    EXPECT_TRUE(rec.createsValue());
    ASSERT_EQ(rec.numSrcs, 2);
    EXPECT_TRUE(rec.dest().isMem());
    EXPECT_EQ(rec.dest().seg, Segment::Stack);

    ASSERT_TRUE(m.step(rec)); // lw
    EXPECT_EQ(rec.cls, isa::OpClass::Load);
    ASSERT_EQ(rec.numSrcs, 2);
    bool has_mem = rec.src(0).isMem() || rec.src(1).isMem();
    EXPECT_TRUE(has_mem);

    ASSERT_TRUE(m.step(rec)); // beq (taken)
    EXPECT_EQ(rec.cls, isa::OpClass::Control);
    EXPECT_FALSE(rec.createsValue());
}

TEST(Machine, JalRecordCreatesRa)
{
    casm::Program prog = casm::assemble(R"(
        jal f
f:      nop
)");
    Machine m(prog);
    trace::TraceRecord rec;
    ASSERT_TRUE(m.step(rec));
    EXPECT_TRUE(rec.createsValue());
    EXPECT_EQ(rec.dest(), Operand::intReg(isa::regRa));
}

TEST(Machine, SegmentClassificationInTrace)
{
    casm::Program prog = casm::assemble(R"(
        .data
g:      .word 1
        .text
        lw t0, g           # data
        lw t1, 0(sp)       # stack
        li a0, 64
        li v0, 6
        syscall            # sbrk
        move t2, v0
        lw t3, 0(t2)       # heap
)");
    Machine m(prog);
    trace::TraceBuffer buf;
    trace::TraceRecord rec;
    while (m.step(rec))
        buf.push(rec);
    auto seg_of_load = [&](size_t idx) {
        for (int s = 0; s < buf[idx].numSrcs; ++s) {
            if (buf[idx].src(s).isMem())
                return buf[idx].src(s).seg;
        }
        return Segment::None;
    };
    EXPECT_EQ(seg_of_load(0), Segment::Data);
    EXPECT_EQ(seg_of_load(1), Segment::Stack);
    EXPECT_EQ(seg_of_load(6), Segment::Heap);
}

TEST(MachineTraceSource, ResetReproducesIdenticalTrace)
{
    casm::Program prog = casm::assemble(R"(
        li v0, 3
        syscall
        move t0, v0
loop:   addi t0, t0, -1
        bgtz t0, loop
)");
    MachineTraceSource src(prog, {25});
    trace::TraceBuffer first;
    first.capture(src);
    src.reset();
    trace::TraceBuffer second;
    second.capture(src);
    ASSERT_EQ(first.size(), second.size());
    EXPECT_GT(first.size(), 50u);
    for (size_t i = 0; i < first.size(); ++i)
        ASSERT_EQ(first[i], second[i]) << "record " << i;
}

TEST(Machine, RunHonorsMaxInstructions)
{
    casm::Program prog = casm::assemble(R"(
loop:   addi t0, t0, 1
        j loop
)");
    Machine m(prog);
    EXPECT_EQ(m.run(100), 100u);
    EXPECT_FALSE(m.exited());
    EXPECT_EQ(m.instructionsExecuted(), 100u);
}
