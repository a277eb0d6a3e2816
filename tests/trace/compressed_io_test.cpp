// Tests for the compressed (v2) trace file format.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "support/panic.hpp"
#include "support/prng.hpp"
#include "trace/buffer.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"
#include "workloads/workload.hpp"

using namespace paragraph;
using namespace paragraph::trace;

namespace {

std::string
tempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() / stem).string();
}

TraceRecord
randomRecord(Prng &prng, uint64_t pc)
{
    TraceRecord rec;
    rec.cls = static_cast<isa::OpClass>(prng.nextBelow(isa::numOpClasses));
    rec.setCreatesValue(prng.nextBelow(2) != 0);
    rec.setSysCall(prng.nextBelow(32) == 0);
    rec.setCondBranch(prng.nextBelow(8) == 0);
    rec.setBranchTaken(rec.isCondBranch() && prng.nextBelow(2) != 0);
    rec.pc = pc;
    rec.lastUseMask = static_cast<uint8_t>(prng.nextBelow(8));
    int nsrcs = static_cast<int>(prng.nextBelow(4));
    for (int i = 0; i < nsrcs; ++i) {
        switch (prng.nextBelow(3)) {
          case 0:
            rec.addSrc(Operand::intReg(
                static_cast<uint8_t>(prng.nextBelow(32))));
            break;
          case 1:
            rec.addSrc(Operand::fpReg(
                static_cast<uint8_t>(prng.nextBelow(32))));
            break;
          default:
            rec.addSrc(Operand::mem(
                0x10000000 + 4 * prng.nextBelow(1 << 20),
                static_cast<Segment>(1 + prng.nextBelow(3))));
            break;
        }
    }
    if (rec.createsValue()) {
        if (prng.nextBelow(4) == 0) {
            rec.setDest(Operand::mem(0x7fff0000 - 8 * prng.nextBelow(1 << 12),
                                    Segment::Stack));
        } else {
            rec.setDest(
                Operand::intReg(static_cast<uint8_t>(prng.nextBelow(32))));
        }
    }
    return rec;
}

} // namespace

TEST(CompressedTrace, RoundTripsRandomRecords)
{
    std::string path = tempPath("para_ctrace_rt.ptrz");
    Prng prng(5);
    TraceBuffer buf;
    uint64_t pc = 100;
    for (int i = 0; i < 3000; ++i) {
        // Mostly sequential pcs with occasional jumps, like a real trace.
        pc = prng.nextBelow(8) ? pc + 1 : prng.nextBelow(1 << 20);
        buf.push(randomRecord(prng, pc));
    }
    {
        CompressedTraceWriter writer(path);
        BufferSource src(buf);
        EXPECT_EQ(writer.writeAll(src), buf.size());
    }
    CompressedTraceReader reader(path);
    EXPECT_EQ(reader.recordCount(), buf.size());
    TraceRecord rec;
    for (size_t i = 0; i < buf.size(); ++i) {
        ASSERT_TRUE(reader.next(rec));
        ASSERT_EQ(rec, buf[i]) << "record " << i;
    }
    EXPECT_FALSE(reader.next(rec));
    std::remove(path.c_str());
}

TEST(CompressedTrace, ResetReplaysWithFreshDeltaState)
{
    std::string path = tempPath("para_ctrace_reset.ptrz");
    Prng prng(6);
    TraceBuffer buf;
    for (int i = 0; i < 200; ++i)
        buf.push(randomRecord(prng, static_cast<uint64_t>(i)));
    {
        CompressedTraceWriter writer(path);
        BufferSource src(buf);
        writer.writeAll(src);
    }
    CompressedTraceReader reader(path);
    TraceRecord rec;
    for (int i = 0; i < 200; ++i)
        ASSERT_TRUE(reader.next(rec));
    reader.reset();
    for (size_t i = 0; i < buf.size(); ++i) {
        ASSERT_TRUE(reader.next(rec));
        ASSERT_EQ(rec, buf[i]) << "replayed record " << i;
    }
    std::remove(path.c_str());
}

TEST(CompressedTrace, MuchSmallerThanFixedFormat)
{
    auto &suite = workloads::WorkloadSuite::instance();
    auto src = suite.makeSource(suite.find("xlisp"), workloads::Scale::Small);
    TraceBuffer buf;
    buf.capture(*src);

    std::string fixed = tempPath("para_size_fixed.ptrc");
    std::string packed = tempPath("para_size_packed.ptrz");
    {
        TraceFileWriter w(fixed);
        BufferSource s(buf);
        w.writeAll(s);
    }
    {
        CompressedTraceWriter w(packed);
        BufferSource s(buf);
        w.writeAll(s);
    }
    auto fixed_size = std::filesystem::file_size(fixed);
    auto packed_size = std::filesystem::file_size(packed);
    EXPECT_LT(packed_size * 4, fixed_size)
        << "compressed " << packed_size << " vs fixed " << fixed_size;

    // And it still decodes identically.
    CompressedTraceReader reader(packed);
    TraceRecord rec;
    size_t i = 0;
    while (reader.next(rec))
        ASSERT_EQ(rec, buf[i++]);
    EXPECT_EQ(i, buf.size());
    std::remove(fixed.c_str());
    std::remove(packed.c_str());
}

TEST(CompressedTrace, OpenTraceFileDispatchesOnMagic)
{
    TraceBuffer buf;
    Prng prng(7);
    for (int i = 0; i < 50; ++i)
        buf.push(randomRecord(prng, static_cast<uint64_t>(i)));

    std::string fixed = tempPath("para_open_fixed.ptrc");
    std::string packed = tempPath("para_open_packed.ptrz");
    {
        TraceFileWriter w(fixed);
        BufferSource s(buf);
        w.writeAll(s);
    }
    {
        CompressedTraceWriter w(packed);
        BufferSource s(buf);
        w.writeAll(s);
    }
    for (const std::string &path : {fixed, packed}) {
        auto reader = openTraceFile(path);
        TraceRecord rec;
        size_t n = 0;
        while (reader->next(rec))
            ++n;
        EXPECT_EQ(n, buf.size()) << path;
        reader->reset();
        ASSERT_TRUE(reader->next(rec));
        EXPECT_EQ(rec, buf[0]) << path;
    }
    std::remove(fixed.c_str());
    std::remove(packed.c_str());
}

TEST(CompressedTrace, RejectsWrongMagic)
{
    std::string path = tempPath("para_ctrace_bad.ptrz");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[32] = "not a compressed trace";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    EXPECT_THROW(CompressedTraceReader reader(path), FatalError);
    EXPECT_THROW(openTraceFile(path), FatalError);
    std::remove(path.c_str());
}

TEST(CompressedTrace, TruncationDetected)
{
    std::string path = tempPath("para_ctrace_trunc.ptrz");
    TraceBuffer buf;
    Prng prng(8);
    for (int i = 0; i < 20; ++i)
        buf.push(randomRecord(prng, static_cast<uint64_t>(i)));
    {
        CompressedTraceWriter w(path);
        BufferSource s(buf);
        w.writeAll(s);
    }
    auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 3);
    CompressedTraceReader reader(path);
    TraceRecord rec;
    EXPECT_THROW(
        {
            while (reader.next(rec)) {
            }
        },
        FatalError);
    std::remove(path.c_str());
}
