// Shared helpers for core tests: compact record builders and a random-trace
// generator for property tests.
#ifndef PARAGRAPH_TESTS_CORE_TRACE_HELPERS_HPP
#define PARAGRAPH_TESTS_CORE_TRACE_HELPERS_HPP

#include <initializer_list>

#include "support/prng.hpp"
#include "support/test_seed.hpp"
#include "trace/buffer.hpp"
#include "trace/record.hpp"

namespace paragraph {
namespace testhelpers {

using trace::Operand;
using trace::Segment;
using trace::TraceBuffer;
using trace::TraceRecord;

/** reg-only ALU op: dest <- srcs (latency 1). */
inline TraceRecord
alu(uint8_t dest, std::initializer_list<uint8_t> srcs)
{
    TraceRecord rec;
    rec.cls = isa::OpClass::IntAlu;
    rec.setCreatesValue(true);
    for (uint8_t s : srcs)
        rec.addSrc(Operand::intReg(s));
    rec.setDest(Operand::intReg(dest));
    return rec;
}

/** Load: dest reg <- mem[addr] (+ optional address register). */
inline TraceRecord
load(uint8_t dest, uint64_t addr, Segment seg = Segment::Data,
     int addr_reg = -1)
{
    TraceRecord rec;
    rec.cls = isa::OpClass::Load;
    rec.setCreatesValue(true);
    if (addr_reg >= 0)
        rec.addSrc(Operand::intReg(static_cast<uint8_t>(addr_reg)));
    rec.addSrc(Operand::mem(addr, seg));
    rec.setDest(Operand::intReg(dest));
    return rec;
}

/** Store: mem[addr] <- src reg. */
inline TraceRecord
store(uint64_t addr, uint8_t src, Segment seg = Segment::Data)
{
    TraceRecord rec;
    rec.cls = isa::OpClass::Store;
    rec.setCreatesValue(true);
    rec.addSrc(Operand::intReg(src));
    rec.setDest(Operand::mem(addr, seg));
    return rec;
}

/** Conditional-branch record (not placed in the DDG). */
inline TraceRecord
branch(std::initializer_list<uint8_t> srcs)
{
    TraceRecord rec;
    rec.cls = isa::OpClass::Control;
    rec.setCreatesValue(false);
    for (uint8_t s : srcs)
        rec.addSrc(Operand::intReg(s));
    return rec;
}

/** System call writing v0 (reg 2). */
inline TraceRecord
syscall()
{
    TraceRecord rec;
    rec.cls = isa::OpClass::SysCall;
    rec.setCreatesValue(true);
    rec.setSysCall(true);
    rec.addSrc(Operand::intReg(2));
    rec.setDest(Operand::intReg(2));
    return rec;
}

/** ALU op with a chosen operation class (for latency tests). */
inline TraceRecord
typed(isa::OpClass cls, uint8_t dest, std::initializer_list<uint8_t> srcs)
{
    TraceRecord rec = alu(dest, srcs);
    rec.cls = cls;
    return rec;
}

/**
 * Random trace over a small location universe: 8 int regs, 4 fp regs,
 * 32 memory words spread over data/heap/stack, occasional branches and
 * syscalls — dense enough that every dependence type occurs.
 *
 * The effective seed honors the PARAGRAPH_TEST_SEED environment override
 * (support/test_seed.hpp): unset, @p seed is used as-is and the trace is
 * bit-stable; set, every randomized test reruns under the overridden seed
 * with one command, `PARAGRAPH_TEST_SEED=<N> ctest`.
 */
inline TraceBuffer
randomTrace(uint64_t seed, size_t length, bool with_syscalls = true)
{
    Prng prng(testSeed(seed));
    TraceBuffer buf;
    auto rand_operand = [&]() {
        switch (prng.nextBelow(3)) {
          case 0:
            return Operand::intReg(
                static_cast<uint8_t>(1 + prng.nextBelow(8)));
          case 1:
            return Operand::fpReg(static_cast<uint8_t>(prng.nextBelow(4)));
          default: {
            Segment seg = static_cast<Segment>(1 + prng.nextBelow(3));
            return Operand::mem(0x1000 + 4 * prng.nextBelow(32), seg);
          }
        }
    };
    static const isa::OpClass value_classes[] = {
        isa::OpClass::IntAlu, isa::OpClass::IntAlu, isa::OpClass::IntAlu,
        isa::OpClass::IntMul, isa::OpClass::IntDiv, isa::OpClass::FpAddSub,
        isa::OpClass::FpMul,  isa::OpClass::FpDiv,  isa::OpClass::Load,
        isa::OpClass::Store,
    };
    for (size_t i = 0; i < length; ++i) {
        TraceRecord rec;
        rec.pc = i;
        uint64_t roll = prng.nextBelow(100);
        if (with_syscalls && roll < 1) {
            rec = syscall();
        } else if (roll < 15) {
            rec = branch({static_cast<uint8_t>(1 + prng.nextBelow(8))});
        } else {
            rec.cls = value_classes[prng.nextBelow(
                sizeof(value_classes) / sizeof(value_classes[0]))];
            rec.setCreatesValue(true);
            int nsrcs = static_cast<int>(prng.nextBelow(3));
            for (int s = 0; s < nsrcs; ++s)
                rec.addSrc(rand_operand());
            rec.setDest(rand_operand());
        }
        buf.push(rec);
    }
    return buf;
}

} // namespace testhelpers
} // namespace paragraph

#endif
