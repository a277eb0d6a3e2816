// Corruption-injection tests for trace ingestion: every damaged file must
// be rejected with a FatalError that locates the damage (file, record index,
// byte offset) — never a crash, never a silent success. Field damage is
// injected *under valid checksums* (crafted files) so the range validation
// itself is exercised, and separately *as raw byte flips* so the CRC layers
// are exercised. Each damaged `.ptrc` is read both through openTraceFile
// (what `paragraph` reads) and as a one-cell sweep, whose cell reads it
// through the repository's shared decode pool; both must report the same
// text.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "engine/sweep.hpp"
#include "engine/trace_repository.hpp"
#include "support/crc32.hpp"
#include "support/panic.hpp"
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
simpleRecord(unsigned i)
{
    TraceRecord rec;
    rec.cls = isa::OpClass::IntAlu;
    rec.setCreatesValue(true);
    rec.setDest(Operand::intReg(static_cast<uint8_t>(i % 32)));
    rec.addSrc(Operand::intReg(static_cast<uint8_t>((i + 1) % 32)));
    rec.pc = 0x1000 + i;
    return rec;
}

/** Write a well-formed 4-record v2 trace via the real writer. */
void
writeValidTrace(const std::string &path)
{
    TraceFileWriter writer(path);
    for (unsigned i = 0; i < 4; ++i)
        writer.write(simpleRecord(i));
    writer.close();
}

/**
 * Write a trace file by hand: an arbitrary header version and arbitrary
 * packed records, with checksums recomputed so they are *valid* for
 * whatever bytes the records hold. This is how field-validation tests
 * smuggle bad fields past the CRC layer.
 */
void
writeCraftedTrace(const std::string &path, uint32_t version,
                  const std::vector<PackedRecord> &records)
{
    TraceFileHeader hdr{traceFileMagic, version,
                        static_cast<uint64_t>(records.size()), 0, 0};
    if (version >= 2) {
        uint32_t crc = 0;
        for (const PackedRecord &p : records)
            crc = crc32Update(crc, &p, sizeof(p));
        hdr.payloadCrc = crc;
        hdr.headerCrc = traceHeaderCrc(hdr);
    }
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(&hdr, sizeof(hdr), 1, f), 1u);
    for (const PackedRecord &p : records)
        ASSERT_EQ(std::fwrite(&p, sizeof(p), 1, f), 1u);
    ASSERT_EQ(std::fclose(f), 0);
}

void
flipByte(const std::string &path, long offset)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    ASSERT_EQ(std::fclose(f), 0);
}

void
truncateTo(const std::string &path, uintmax_t size)
{
    std::filesystem::resize_file(path, size);
}

/** Drain @p path through openTraceFile; the error text if it threw, ""
 *  if it finished. */
std::string
openError(const std::string &path)
{
    try {
        auto reader = openTraceFile(path);
        TraceRecord rec;
        while (reader->next(rec)) {
        }
        return "";
    } catch (const FatalError &e) {
        return e.what();
    }
}

/** The error of a one-cell sweep over @p path, whose cell reads it through
 *  the repository's decode pool; "" when the cell succeeds. */
std::string
sweepCellError(const std::string &path)
{
    engine::TraceRepository repo;
    engine::SweepResult sweep = engine::SweepEngine().run(
        repo, {path}, {core::AnalysisConfig()}, {"default"});
    const engine::SweepCell &cell = sweep.cells.at(0);
    return cell.status == engine::SweepCell::Status::Failed
               ? cell.errorMessage
               : "";
}

/** The error reading @p path reports through openTraceFile; a sweep cell
 *  over it must fail with the same text. */
std::string
readAllError(const std::string &path)
{
    std::string err = openError(path);
    EXPECT_EQ(sweepCellError(path), err) << "a sweep cell over " << path;
    return err;
}

std::vector<PackedRecord>
packedRecords(unsigned n)
{
    std::vector<PackedRecord> out;
    for (unsigned i = 0; i < n; ++i)
        out.push_back(simpleRecord(i));
    return out;
}

class CorruptTrace : public ::testing::Test
{
  protected:
    std::string path_;

    // Per-test file name: ctest runs each test as its own process, so
    // sibling tests of this fixture can be live at the same instant.
    void SetUp() override
    {
        path_ = tempPath(std::string("para_corrupt_") +
                         ::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name() +
                         ".ptrc");
    }

    void TearDown() override { std::remove(path_.c_str()); }
};

} // namespace

TEST_F(CorruptTrace, FlippedMagicRejected)
{
    writeValidTrace(path_);
    flipByte(path_, 0);
    // openTraceFile picks the format by the magic, and finds neither; a
    // sweep input is a `.ptrc` by its name, so the mapped header's magic
    // check names it.
    EXPECT_EQ(openError(path_), "unrecognized trace file format: " + path_);
    EXPECT_EQ(sweepCellError(path_), "bad trace file magic in " + path_);
}

TEST_F(CorruptTrace, FlippedVersionRejected)
{
    writeValidTrace(path_);
    flipByte(path_, 4); // version word: fails the range check (or, had the
                        // flip produced a valid version, the header CRC)
    std::string err = readAllError(path_);
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST_F(CorruptTrace, FlippedCountCaughtByHeaderCrc)
{
    writeValidTrace(path_);
    flipByte(path_, 8); // count word
    std::string err = readAllError(path_);
    EXPECT_NE(err.find("header checksum"), std::string::npos) << err;
}

TEST_F(CorruptTrace, PayloadBitFlipCaughtByPayloadCrc)
{
    writeValidTrace(path_);
    // Flip a bit inside record 2's operand id: every unpacked field stays
    // in range, so only the payload CRC can catch it.
    long offset = static_cast<long>(sizeof(TraceFileHeader)) +
                  2 * static_cast<long>(sizeof(PackedRecord)) + 8;
    flipByte(path_, offset);
    std::string err = readAllError(path_);
    EXPECT_NE(err.find("payload checksum"), std::string::npos) << err;
}

TEST_F(CorruptTrace, BadSourceCountRejectedWithLocation)
{
    std::vector<PackedRecord> recs = packedRecords(4);
    recs[1].numSrcs = 7; // > maxSrcs, smuggled under a valid CRC
    writeCraftedTrace(path_, traceFileVersion, recs);
    std::string err = readAllError(path_);
    EXPECT_NE(err.find("source count"), std::string::npos) << err;
    EXPECT_NE(err.find("record 1"), std::string::npos) << err;
    EXPECT_NE(err.find("offset"), std::string::npos) << err;
}

TEST_F(CorruptTrace, BadOperandKindRejectedWithLocation)
{
    std::vector<PackedRecord> recs = packedRecords(4);
    recs[2].operandKinds[0] = 0x0f; // kind 15: no such Operand::Kind
    writeCraftedTrace(path_, traceFileVersion, recs);
    std::string err = readAllError(path_);
    EXPECT_NE(err.find("operand kind"), std::string::npos) << err;
    EXPECT_NE(err.find("record 2"), std::string::npos) << err;
}

TEST_F(CorruptTrace, BadOperandSegmentRejectedWithLocation)
{
    std::vector<PackedRecord> recs = packedRecords(4);
    recs[0].operandKinds[3] |= 0x70; // segment 7: no such Segment
    writeCraftedTrace(path_, traceFileVersion, recs);
    std::string err = readAllError(path_);
    EXPECT_NE(err.find("segment"), std::string::npos) << err;
    EXPECT_NE(err.find("record 0"), std::string::npos) << err;
}

TEST_F(CorruptTrace, BadOpClassRejectedWithLocation)
{
    std::vector<PackedRecord> recs = packedRecords(4);
    recs[3].cls = static_cast<isa::OpClass>(0xc8);
    writeCraftedTrace(path_, traceFileVersion, recs);
    std::string err = readAllError(path_);
    EXPECT_NE(err.find("operation class"), std::string::npos) << err;
    EXPECT_NE(err.find("record 3"), std::string::npos) << err;
}

TEST_F(CorruptTrace, TruncationMidRecordRejectedWithLocation)
{
    writeValidTrace(path_);
    truncateTo(path_, sizeof(TraceFileHeader) + sizeof(PackedRecord) +
                          sizeof(PackedRecord) / 2);
    std::string err = readAllError(path_);
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
    EXPECT_NE(err.find("record 1"), std::string::npos) << err;
}

TEST_F(CorruptTrace, V1FilesStillReadWithoutChecksums)
{
    // A v1 header carries zeros where v2 keeps its CRCs; the reader must
    // accept it (warning only) and deliver every record.
    writeCraftedTrace(path_, 1, packedRecords(4));
    MmapTraceFile file(path_);
    EXPECT_EQ(file.formatVersion(), 1u);
    EXPECT_EQ(file.recordCount(), 4u);
    auto reader = openTraceFile(path_);
    TraceRecord rec;
    size_t n = 0;
    while (reader->next(rec))
        ++n;
    EXPECT_EQ(n, 4u);
    EXPECT_EQ(sweepCellError(path_), "");
}

TEST_F(CorruptTrace, ResetReplaysTheVerifiedPayload)
{
    // The payload CRC is checked once, when the reader opens; reset()
    // replays every record without tripping a check on the second pass.
    writeValidTrace(path_);
    auto reader = openTraceFile(path_);
    TraceRecord rec;
    size_t n = 0;
    while (reader->next(rec))
        ++n;
    EXPECT_EQ(n, 4u);
    reader->reset();
    n = 0;
    while (reader->next(rec))
        ++n;
    EXPECT_EQ(n, 4u);
}

TEST_F(CorruptTrace, WriterCloseReportsFullDisk)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full not available";
    TraceFileWriter writer("/dev/full");
    writer.write(simpleRecord(0));
    // The record fits in stdio's buffer; the loss only surfaces at flush
    // time, which close() must check rather than swallow.
    EXPECT_THROW(writer.close(), FatalError);
}

TEST(CorruptCompressedTrace, BadOperandTagRejectedWithLocation)
{
    std::string path = tempPath("para_corrupt.ptrz");
    {
        CompressedTraceWriter writer(path);
        for (unsigned i = 0; i < 4; ++i) {
            TraceRecord rec = simpleRecord(i);
            rec.addSrc(Operand::mem(0x8000 + i * 8, Segment::Heap));
            writer.write(rec);
        }
        writer.close();
    }
    // Record 0 encodes as head+ops (2), pc delta varint (2), int-reg
    // source (2), then the heap operand's tag byte; swap in an undefined
    // tag value (operand tags are 0..4).
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    long offset = 24 + 2 + 2 + 2;
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fgetc(f), 3); // tagMemHeap
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(9, f);
    ASSERT_EQ(std::fclose(f), 0);

    CompressedTraceReader reader(path);
    TraceRecord rec;
    try {
        while (reader.next(rec)) {
        }
        FAIL() << "corrupt tag was accepted";
    } catch (const FatalError &e) {
        std::string err = e.what();
        EXPECT_NE(err.find("operand tag"), std::string::npos) << err;
        // The tag byte's own offset.
        EXPECT_NE(err.find("(record 0 at offset 30)"), std::string::npos)
            << err;
    }
    std::remove(path.c_str());
}

TEST(CorruptCompressedTrace, TruncationRejectedWithLocation)
{
    std::string path = tempPath("para_trunc.ptrz");
    uint64_t fullSize = 0;
    {
        CompressedTraceWriter writer(path);
        for (unsigned i = 0; i < 8; ++i)
            writer.write(simpleRecord(i));
        writer.close();
        fullSize = 24 + writer.bytesWritten();
    }
    std::filesystem::resize_file(path, fullSize - 3);
    CompressedTraceReader reader(path);
    TraceRecord rec;
    try {
        while (reader.next(rec)) {
        }
        FAIL() << "truncated stream was accepted";
    } catch (const FatalError &e) {
        std::string err = e.what();
        EXPECT_NE(err.find("truncated"), std::string::npos) << err;
        EXPECT_NE(err.find("record"), std::string::npos) << err;
        // Every byte the file holds was read before the decode ran out.
        EXPECT_NE(err.find("at offset " + std::to_string(fullSize - 3) + ")"),
                  std::string::npos)
            << err;
    }
    std::remove(path.c_str());
}
