// Tests for the binary trace file format: written by TraceFileWriter, read
// back through openTraceFile (the mapped pool every `.ptrc` is read by).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "support/panic.hpp"
#include "support/prng.hpp"
#include "trace/buffer.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"
#include "trace/mmap_io.hpp"

using namespace paragraph;
using namespace paragraph::trace;

namespace {

std::string
tempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() / stem).string();
}

TraceRecord
randomRecord(Prng &prng)
{
    TraceRecord rec;
    rec.cls = static_cast<isa::OpClass>(prng.nextBelow(isa::numOpClasses));
    rec.setCreatesValue(prng.nextBelow(2) != 0);
    rec.setSysCall(prng.nextBelow(16) == 0);
    rec.pc = prng.next();
    int nsrcs = static_cast<int>(prng.nextBelow(4));
    for (int i = 0; i < nsrcs; ++i) {
        if (prng.nextBelow(2)) {
            rec.addSrc(Operand::intReg(
                static_cast<uint8_t>(prng.nextBelow(32))));
        } else {
            rec.addSrc(Operand::mem(prng.nextBelow(1u << 30),
                                    static_cast<Segment>(
                                        1 + prng.nextBelow(3))));
        }
    }
    if (rec.createsValue())
        rec.setDest(
            Operand::intReg(static_cast<uint8_t>(prng.nextBelow(32))));
    rec.lastUseMask = static_cast<uint8_t>(prng.nextBelow(8));
    return rec;
}

} // namespace

TEST(PackedRecord, RoundTripsEveryField)
{
    // A record on disk is the record in memory: written and read back,
    // every field, and every byte, survives.
    Prng prng(11);
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 1000; ++i) {
        TraceRecord rec = randomRecord(prng);
        rec.setCondBranch(prng.nextBelow(2) != 0);
        rec.setBranchTaken(prng.nextBelow(2) != 0);
        recs.push_back(rec);
    }
    std::string path = tempPath("para_roundtrip_fields.ptrc");
    {
        TraceFileWriter writer(path);
        writer.write(recs.data(), recs.size());
        writer.close();
    }
    auto reader = openTraceFile(path);
    TraceRecord back;
    for (const TraceRecord &rec : recs) {
        ASSERT_TRUE(reader->next(back));
        EXPECT_EQ(rec, back);
        EXPECT_EQ(std::memcmp(&rec, &back, sizeof rec), 0);
    }
    EXPECT_FALSE(reader->next(back));
    std::remove(path.c_str());
}

TEST(TraceFile, WriteThenReadBack)
{
    std::string path = tempPath("para_trace_rt.ptrc");
    Prng prng(22);
    TraceBuffer buffer;
    for (int i = 0; i < 500; ++i)
        buffer.push(randomRecord(prng));

    {
        TraceFileWriter writer(path);
        BufferSource src(buffer);
        EXPECT_EQ(writer.writeAll(src), 500u);
        writer.close();
    }

    EXPECT_EQ(MmapTraceFile(path).recordCount(), 500u);
    auto reader = openTraceFile(path);
    TraceRecord rec;
    for (size_t i = 0; i < buffer.size(); ++i) {
        ASSERT_TRUE(reader->next(rec));
        EXPECT_EQ(rec, buffer[i]) << "record " << i;
    }
    EXPECT_FALSE(reader->next(rec));
    std::remove(path.c_str());
}

TEST(TraceFile, ResetReplaysFromStart)
{
    std::string path = tempPath("para_trace_reset.ptrc");
    {
        TraceFileWriter writer(path);
        TraceRecord rec;
        rec.cls = isa::OpClass::IntAlu;
        rec.setCreatesValue(true);
        rec.setDest(Operand::intReg(9));
        writer.write(rec);
        rec.setDest(Operand::intReg(10));
        writer.write(rec);
    }
    auto reader = openTraceFile(path);
    TraceRecord rec;
    ASSERT_TRUE(reader->next(rec));
    ASSERT_TRUE(reader->next(rec));
    EXPECT_EQ(rec.dest().id, 10u);
    reader->reset();
    ASSERT_TRUE(reader->next(rec));
    EXPECT_EQ(rec.dest().id, 9u);
    std::remove(path.c_str());
}

TEST(TraceFile, EmptyFileHasZeroRecords)
{
    std::string path = tempPath("para_trace_empty.ptrc");
    {
        TraceFileWriter writer(path);
    }
    EXPECT_EQ(MmapTraceFile(path).recordCount(), 0u);
    auto reader = openTraceFile(path);
    TraceRecord rec;
    EXPECT_FALSE(reader->next(rec));
    std::remove(path.c_str());
}

TEST(TraceFile, MissingFileIsFatal)
{
    EXPECT_THROW(openTraceFile("/nonexistent/dir/file.ptrc"), FatalError);
}

TEST(TraceFile, BadMagicRejected)
{
    std::string path = tempPath("para_trace_bad.ptrc");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char junk[64] = "this is not a trace file at all";
        std::fwrite(junk, 1, sizeof(junk), f);
        std::fclose(f);
    }
    EXPECT_THROW(openTraceFile(path), FatalError);
    std::remove(path.c_str());
}

TEST(TraceFile, TruncatedHeaderRejected)
{
    std::string path = tempPath("para_trace_short.ptrc");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char tiny[4] = {1, 2, 3, 4};
        std::fwrite(tiny, 1, sizeof(tiny), f);
        std::fclose(f);
    }
    EXPECT_THROW(openTraceFile(path), FatalError);
    std::remove(path.c_str());
}

TEST(TraceFile, WriterDestructorFinalizesHeader)
{
    std::string path = tempPath("para_trace_dtor.ptrc");
    {
        TraceFileWriter writer(path);
        TraceRecord rec;
        rec.cls = isa::OpClass::Store;
        writer.write(rec);
        // no explicit close(): destructor must finalize the count
    }
    EXPECT_EQ(MmapTraceFile(path).recordCount(), 1u);
    std::remove(path.c_str());
}
