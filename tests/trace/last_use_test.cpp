// Tests for the two-pass last-use annotator (paper Section 3.2 method 1).
#include <gtest/gtest.h>

#include "support/flat_hash_map.hpp"
#include "support/prng.hpp"
#include "trace/buffer.hpp"
#include "trace/last_use.hpp"

using namespace paragraph;
using namespace paragraph::trace;

namespace {

TraceRecord
op(uint8_t dest, std::initializer_list<uint8_t> srcs)
{
    TraceRecord rec;
    rec.cls = isa::OpClass::IntAlu;
    rec.setCreatesValue(dest != 0xff);
    for (uint8_t s : srcs)
        rec.addSrc(Operand::intReg(s));
    if (dest != 0xff)
        rec.setDest(Operand::intReg(dest));
    return rec;
}

} // namespace

TEST(LastUse, SingleReadIsLastUse)
{
    TraceBuffer buf;
    buf.push(op(1, {}));     // def r1
    buf.push(op(2, {1}));    // only read of r1
    uint64_t marked = annotateLastUses(buf);
    EXPECT_EQ(marked, 1u);
    EXPECT_EQ(buf[0].lastUseMask, 0u);
    EXPECT_EQ(buf[1].lastUseMask, 1u);
}

TEST(LastUse, OnlyFinalReadMarked)
{
    TraceBuffer buf;
    buf.push(op(1, {}));
    buf.push(op(2, {1}));
    buf.push(op(3, {1}));
    buf.push(op(4, {1})); // last read of r1
    annotateLastUses(buf);
    EXPECT_EQ(buf[1].lastUseMask, 0u);
    EXPECT_EQ(buf[2].lastUseMask, 0u);
    EXPECT_EQ(buf[3].lastUseMask, 1u);
}

TEST(LastUse, RedefinitionSplitsLifetimes)
{
    TraceBuffer buf;
    buf.push(op(1, {}));   // def r1 (v1)
    buf.push(op(2, {1}));  // last read of v1
    buf.push(op(1, {}));   // def r1 (v2)
    buf.push(op(3, {1}));  // last read of v2
    annotateLastUses(buf);
    EXPECT_EQ(buf[1].lastUseMask, 1u);
    EXPECT_EQ(buf[3].lastUseMask, 1u);
}

TEST(LastUse, ReadAndWriteSameLocationInOneInstruction)
{
    // r1 <- r1 + 1: the read is the last use of the *old* value.
    TraceBuffer buf;
    buf.push(op(1, {}));
    buf.push(op(1, {1}));
    buf.push(op(2, {1}));
    annotateLastUses(buf);
    EXPECT_EQ(buf[1].lastUseMask, 1u); // old r1's last read
    EXPECT_EQ(buf[2].lastUseMask, 1u); // new r1's last read
}

TEST(LastUse, SecondOperandBitPosition)
{
    TraceBuffer buf;
    buf.push(op(1, {}));
    buf.push(op(2, {}));
    buf.push(op(3, {2, 1})); // last use of both; r1 in slot 1
    annotateLastUses(buf);
    EXPECT_EQ(buf[2].lastUseMask, 0b11u);
}

TEST(LastUse, DuplicateSourcesMarkOneSlot)
{
    TraceBuffer buf;
    buf.push(op(1, {}));
    buf.push(op(2, {1, 1}));
    annotateLastUses(buf);
    // Exactly one slot marked (the annotator's backward scan hits slot 0
    // first).
    EXPECT_EQ(buf[1].lastUseMask, 0b01u);
}

TEST(LastUse, PreExistingValuesGetMarked)
{
    // A location never written in the trace still has a last read.
    TraceBuffer buf;
    buf.push(op(2, {7}));
    buf.push(op(3, {7}));
    annotateLastUses(buf);
    EXPECT_EQ(buf[0].lastUseMask, 0u);
    EXPECT_EQ(buf[1].lastUseMask, 1u);
}

TEST(LastUse, MemoryLocations)
{
    TraceBuffer buf;
    TraceRecord store;
    store.cls = isa::OpClass::Store;
    store.setCreatesValue(true);
    store.addSrc(Operand::intReg(1));
    store.setDest(Operand::mem(0x100, Segment::Data));
    TraceRecord load;
    load.cls = isa::OpClass::Load;
    load.setCreatesValue(true);
    load.addSrc(Operand::mem(0x100, Segment::Data));
    load.setDest(Operand::intReg(2));
    buf.push(op(1, {}));
    buf.push(store);
    buf.push(load);
    annotateLastUses(buf);
    EXPECT_EQ(buf[2].lastUseMask, 1u); // the load is mem[0x100]'s last use
}

TEST(LastUse, ReannotationIsIdempotent)
{
    TraceBuffer buf;
    buf.push(op(1, {}));
    buf.push(op(2, {1}));
    uint64_t first = annotateLastUses(buf);
    uint64_t second = annotateLastUses(buf);
    EXPECT_EQ(first, second);
    EXPECT_EQ(buf[1].lastUseMask, 1u);
}

// Property: on a random trace, "marked last use" must mean "no later read of
// the same location before the next write".
TEST(LastUseProperty, NoReadsAfterMarkedLastUse)
{
    Prng prng(77);
    TraceBuffer buf;
    for (int i = 0; i < 5000; ++i) {
        uint8_t dest = static_cast<uint8_t>(1 + prng.nextBelow(8));
        uint8_t s1 = static_cast<uint8_t>(1 + prng.nextBelow(8));
        uint8_t s2 = static_cast<uint8_t>(1 + prng.nextBelow(8));
        buf.push(op(prng.nextBelow(4) ? dest : 0xff, {s1, s2}));
    }
    annotateLastUses(buf);

    for (size_t i = 0; i < buf.size(); ++i) {
        for (int s = 0; s < buf[i].numSrcs; ++s) {
            if (!(buf[i].lastUseMask & (1u << s)))
                continue;
            uint64_t key = locationKey(buf[i].src(s));
            // If this instruction itself redefines the location, the old
            // value's lifetime ends here and later reads see the new value.
            if (buf[i].createsValue() && locationKey(buf[i].dest()) == key)
                continue;
            // Scan forward until the next write to this location: there
            // must be no intervening read.
            for (size_t j = i + 1; j < buf.size(); ++j) {
                if (buf[j].createsValue() &&
                    locationKey(buf[j].dest()) == key) {
                    break;
                }
                for (int t = 0; t < buf[j].numSrcs; ++t)
                    ASSERT_NE(locationKey(buf[j].src(t)), key)
                        << "read after last use at record " << i;
            }
        }
    }
}
