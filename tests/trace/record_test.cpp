// Tests for TraceRecord, Operand, location keys, TraceBuffer, TraceStats.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "trace/buffer.hpp"
#include "trace/file_io.hpp"
#include "trace/record.hpp"
#include "trace/stats.hpp"

using namespace paragraph;
using namespace paragraph::trace;

TEST(Operand, Factories)
{
    Operand r = Operand::intReg(5);
    EXPECT_EQ(r.kind, Operand::Kind::IntReg);
    EXPECT_EQ(r.id, 5u);
    EXPECT_TRUE(r.valid());
    EXPECT_FALSE(r.isMem());

    Operand f = Operand::fpReg(12);
    EXPECT_EQ(f.kind, Operand::Kind::FpReg);

    Operand m = Operand::mem(0x1000, Segment::Stack);
    EXPECT_TRUE(m.isMem());
    EXPECT_EQ(m.seg, Segment::Stack);

    Operand none;
    EXPECT_FALSE(none.valid());
}

TEST(Operand, LocationKeysNeverCollideAcrossNamespaces)
{
    std::set<uint64_t> keys;
    for (uint8_t r = 0; r < 32; ++r) {
        keys.insert(locationKey(Operand::intReg(r)));
        keys.insert(locationKey(Operand::fpReg(r)));
    }
    // Memory addresses equal to small register indices must not collide.
    for (uint64_t a = 0; a < 32; ++a)
        keys.insert(locationKey(Operand::mem(a, Segment::Data)));
    EXPECT_EQ(keys.size(), 32u * 3);
}

TEST(Operand, SameMemDifferentSegmentSameKey)
{
    // The key identifies the *location*; the segment only drives renaming.
    EXPECT_EQ(locationKey(Operand::mem(0x10, Segment::Data)),
              locationKey(Operand::mem(0x10, Segment::Stack)));
}

TEST(TraceRecord, AddSrcCapsAtThree)
{
    TraceRecord rec;
    for (int i = 0; i < 5; ++i)
        rec.addSrc(Operand::intReg(static_cast<uint8_t>(i + 1)));
    EXPECT_EQ(rec.numSrcs, 3);
}

TEST(TraceRecord, AddSrcIgnoresInvalid)
{
    TraceRecord rec;
    rec.addSrc(Operand{});
    EXPECT_EQ(rec.numSrcs, 0);
}

TEST(TraceRecord, ToStringMentionsParts)
{
    TraceRecord rec;
    rec.cls = isa::OpClass::Load;
    rec.addSrc(Operand::mem(0x2000, Segment::Heap));
    rec.setDest(Operand::intReg(8));
    rec.setCreatesValue(true);
    std::string s = toString(rec);
    EXPECT_NE(s.find("t0"), std::string::npos);
    EXPECT_NE(s.find("heap"), std::string::npos);
    EXPECT_NE(s.find("Load"), std::string::npos);
}

TEST(TraceRecord, FieldsSitAtTheirFormatV2Bytes)
{
    // The record is the trace file's record: pin where every accessor
    // writes, byte for byte (the layout itself is static_asserted).
    static_assert(sizeof(TraceRecord) == 48);
    static_assert(sizeof(PackedRecord) == sizeof(TraceRecord));
    TraceRecord rec;
    rec.cls = isa::OpClass::Load;
    rec.setCreatesValue(true);
    rec.setSysCall(true);
    rec.setCondBranch(true);
    rec.setBranchTaken(true);
    rec.setSysCall(false);
    rec.addSrc(Operand::mem(0x1122334455667788ULL, Segment::Stack));
    rec.addSrc(Operand::fpReg(7));
    rec.setDest(Operand::intReg(9));
    rec.lastUseMask = 2;
    rec.pc = 0xa0b0c0d0e0f00010ULL;

    unsigned char bytes[48];
    std::memcpy(bytes, &rec, sizeof bytes);
    EXPECT_EQ(bytes[0], static_cast<unsigned char>(isa::OpClass::Load));
    EXPECT_EQ(bytes[1], 0x01 | 0x04 | 0x08); // value, cond branch, taken
    EXPECT_EQ(bytes[2], 2);                  // numSrcs
    EXPECT_EQ(bytes[3], 2);                  // lastUseMask
    EXPECT_EQ(bytes[4], 0x33); // Mem | Stack << 4
    EXPECT_EQ(bytes[5], 0x02); // FpReg
    EXPECT_EQ(bytes[6], 0x00); // unused source slot
    EXPECT_EQ(bytes[7], 0x01); // IntReg destination
    const unsigned char id0[8] = {0x88, 0x77, 0x66, 0x55,
                                  0x44, 0x33, 0x22, 0x11};
    EXPECT_EQ(std::memcmp(bytes + 8, id0, 8), 0); // little-endian id
    EXPECT_EQ(bytes[16], 7);
    EXPECT_EQ(bytes[32], 9);
    EXPECT_EQ(bytes[40], 0x10);
    EXPECT_EQ(bytes[47], 0xa0);

    EXPECT_TRUE(rec.createsValue());
    EXPECT_FALSE(rec.isSysCall());
    EXPECT_TRUE(rec.isCondBranch());
    EXPECT_TRUE(rec.branchTaken());
    EXPECT_EQ(rec.src(0), Operand::mem(0x1122334455667788ULL, Segment::Stack));
    EXPECT_EQ(rec.src(1), Operand::fpReg(7));
    EXPECT_FALSE(rec.src(2).valid());
    EXPECT_EQ(rec.dest(), Operand::intReg(9));
    EXPECT_TRUE(rec.hasDest());
}

TEST(Operand, LocationKeyOfKindByteMatchesTheOperand)
{
    for (Operand op : {Operand{}, Operand::intReg(3), Operand::fpReg(31),
                       Operand::mem(0xfff0, Segment::Data),
                       Operand::mem(~0ULL, Segment::Heap)}) {
        EXPECT_EQ(locationKey(kindByte(op), op.id), locationKey(op));
        EXPECT_EQ(operandOf(kindByte(op), op.id), op);
    }
}

TEST(SegmentNames, AllDistinct)
{
    EXPECT_STREQ(segmentName(Segment::Data), "data");
    EXPECT_STREQ(segmentName(Segment::Heap), "heap");
    EXPECT_STREQ(segmentName(Segment::Stack), "stack");
    EXPECT_STREQ(segmentName(Segment::None), "none");
}

namespace {

TraceRecord
simpleAlu(uint8_t dest, uint8_t s1, uint8_t s2)
{
    TraceRecord rec;
    rec.cls = isa::OpClass::IntAlu;
    rec.setCreatesValue(true);
    rec.addSrc(Operand::intReg(s1));
    rec.addSrc(Operand::intReg(s2));
    rec.setDest(Operand::intReg(dest));
    return rec;
}

} // namespace

TEST(BufferSource, ReplaysAndResets)
{
    TraceBuffer buffer;
    buffer.push(simpleAlu(1, 2, 3));
    buffer.push(simpleAlu(4, 1, 1));
    BufferSource src(buffer, "test");
    EXPECT_EQ(src.name(), "test");

    TraceRecord rec;
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.dest().id, 1u);
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.dest().id, 4u);
    EXPECT_FALSE(src.next(rec));

    src.reset();
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.dest().id, 1u);
}

TEST(TraceBuffer, CaptureDrainsSource)
{
    TraceBuffer original;
    for (int i = 0; i < 10; ++i)
        original.push(simpleAlu(1, 2, 3));
    BufferSource src(original);
    TraceBuffer copy;
    copy.capture(src);
    EXPECT_EQ(copy.size(), 10u);
    TraceRecord rec;
    EXPECT_FALSE(src.next(rec)); // drained
}

TEST(TraceStats, CountsClassesAndSegments)
{
    TraceStats stats;

    TraceRecord load;
    load.cls = isa::OpClass::Load;
    load.setCreatesValue(true);
    load.addSrc(Operand::mem(0x100, Segment::Stack));
    load.setDest(Operand::intReg(1));
    stats.add(load);

    TraceRecord store;
    store.cls = isa::OpClass::Store;
    store.setCreatesValue(true);
    store.addSrc(Operand::intReg(1));
    store.setDest(Operand::mem(0x10000000, Segment::Data));
    stats.add(store);

    TraceRecord branch;
    branch.cls = isa::OpClass::Control;
    branch.addSrc(Operand::intReg(1));
    stats.add(branch);

    TraceRecord sys;
    sys.cls = isa::OpClass::SysCall;
    sys.setSysCall(true);
    stats.add(sys);

    TraceRecord fmul;
    fmul.cls = isa::OpClass::FpMul;
    fmul.setCreatesValue(true);
    stats.add(fmul);

    EXPECT_EQ(stats.totalInstructions, 5u);
    EXPECT_EQ(stats.valueCreating, 3u);
    EXPECT_EQ(stats.controlInstructions, 1u);
    EXPECT_EQ(stats.sysCalls, 1u);
    EXPECT_EQ(stats.loads, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.stackAccesses, 1u);
    EXPECT_EQ(stats.dataAccesses, 1u);
    EXPECT_DOUBLE_EQ(stats.fpFraction(), 1.0 / 5.0);
    EXPECT_DOUBLE_EQ(stats.instructionsPerSysCall(), 5.0);
}

TEST(TraceStats, NoSysCallsGivesZeroRate)
{
    TraceStats stats;
    stats.add(simpleAlu(1, 2, 3));
    EXPECT_DOUBLE_EQ(stats.instructionsPerSysCall(), 0.0);
    EXPECT_DOUBLE_EQ(stats.fpFraction(), 0.0);
}

TEST(TraceStats, CollectFromSource)
{
    TraceBuffer buffer;
    for (int i = 0; i < 7; ++i)
        buffer.push(simpleAlu(1, 2, 3));
    BufferSource src(buffer);
    TraceStats stats = TraceStats::collect(src);
    EXPECT_EQ(stats.totalInstructions, 7u);
}
