// MmapTraceFile is the one `.ptrc` reader, and openTraceFile reads a
// `.ptrc` through a pool over it. These tests pin what it reports: every
// failure case drains openTraceFile over a damaged file and compares the
// *exact* error text, the mapped header's own errors are checked on
// MmapTraceFile, and the happy path memcmps every record read back against
// the mapped payload of the checked-in golden trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "support/crc32.hpp"
#include "support/failpoint.hpp"
#include "support/panic.hpp"
#include "support/string_utils.hpp"
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

void
writeValidTrace(const std::string &path, unsigned n = 4)
{
    TraceFileWriter writer(path);
    for (unsigned i = 0; i < n; ++i)
        writer.write(simpleRecord(i));
    writer.close();
}

/** Crafted file: arbitrary version, checksums valid for the given bytes. */
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

/** Open + drain via openTraceFile; "" on success, the error text else. */
std::string
readerError(const std::string &path)
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

/** The error mapping @p path throws; "" when its header is valid. */
std::string
mmapError(const std::string &path)
{
    try {
        MmapTraceFile file(path);
        return "";
    } catch (const FatalError &e) {
        return e.what();
    }
}

/** The header of the file at @p path, as its bytes are now. */
TraceFileHeader
headerOf(const std::string &path)
{
    TraceFileHeader hdr{};
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    if (f) {
        EXPECT_EQ(std::fread(&hdr, sizeof(hdr), 1, f), 1u);
        std::fclose(f);
    }
    return hdr;
}

/** The located truncation error of @p path backed up to record @p index. */
std::string
truncatedText(const std::string &path, uint64_t index)
{
    return strFormat("trace file truncated: %s (record %llu at offset %llu)",
                     path.c_str(), static_cast<unsigned long long>(index),
                     static_cast<unsigned long long>(recordOffset(index)));
}

/** The eager whole-payload check alone; "" when it passes. */
std::string
verifyError(const std::string &path)
{
    try {
        MmapTraceFile(path).verifyPayload();
        return "";
    } catch (const FatalError &e) {
        return e.what();
    }
}

/** Offset of a byte inside record @p index that no field check catches. */
long
inRangeByte(uint64_t index)
{
    return static_cast<long>(sizeof(TraceFileHeader) +
                             index * sizeof(PackedRecord) + 8);
}

class MmapTrace : public ::testing::Test
{
  protected:
    std::string path_;

    // Per-test file name: ctest runs each test as its own process, so
    // sibling tests of this fixture can be live at the same instant.
    void SetUp() override
    {
        path_ = tempPath(std::string("para_mmap_") +
                         ::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name() +
                         ".ptrc");
    }

    void TearDown() override { std::remove(path_.c_str()); }
};

} // namespace

TEST(MmapGolden, PacksIdenticallyToReaderOverGoldenTrace)
{
    std::string golden =
        std::string(PARAGRAPH_GOLDEN_DIR) + "/xlisp-800.ptrc";

    MmapTraceFile file(golden);
    EXPECT_EQ(file.formatVersion(), 2u);
    EXPECT_EQ(file.recordCount(), 800u);
    EXPECT_EQ(file.availableRecords(), file.recordCount());

    auto reader = openTraceFile(golden);
    EXPECT_EQ(reader->name(), golden);
    TraceRecord rec;
    uint64_t n = 0;
    while (reader->next(rec)) {
        ASSERT_LT(n, file.recordCount()) << "the reader ran long";
        ASSERT_EQ(std::memcmp(&rec, file.records(n), sizeof(rec)), 0)
            << "record " << n << " differs";
        ++n;
    }
    EXPECT_EQ(n, file.recordCount());
}

TEST(MmapGolden, BatchedAndSingleReadsAgree)
{
    std::string golden =
        std::string(PARAGRAPH_GOLDEN_DIR) + "/xlisp-800.ptrc";
    auto one = openTraceFile(golden);
    auto many = openTraceFile(golden);

    std::vector<TraceRecord> batch(257); // deliberately not a divisor
    TraceRecord rec;
    uint64_t n = 0;
    for (;;) {
        size_t got = many->nextBatch(batch.data(), batch.size());
        if (got == 0)
            break;
        for (size_t i = 0; i < got; ++i) {
            ASSERT_TRUE(one->next(rec));
            ASSERT_EQ(std::memcmp(&rec, &batch[i], sizeof(rec)), 0)
                << "record " << (n + i) << " differs";
        }
        n += got;
    }
    EXPECT_FALSE(one->next(rec));
    EXPECT_EQ(n, 800u);
}

TEST_F(MmapTrace, MissingFileErrorMatchesReader)
{
    const std::string err = "cannot open trace file: " + path_;
    EXPECT_EQ(mmapError(path_), err);
    EXPECT_EQ(readerError(path_), err);
}

TEST_F(MmapTrace, EmptyFileErrorMatchesReader)
{
    std::fclose(std::fopen(path_.c_str(), "wb"));
    const std::string err = "trace file too short: " + path_;
    EXPECT_EQ(mmapError(path_), err);
    EXPECT_EQ(readerError(path_), err);
}

TEST_F(MmapTrace, TruncatedHeaderErrorMatchesReader)
{
    writeValidTrace(path_);
    std::filesystem::resize_file(path_, sizeof(TraceFileHeader) / 2);
    const std::string err = "trace file too short: " + path_;
    EXPECT_EQ(mmapError(path_), err);
    EXPECT_EQ(readerError(path_), err);
}

TEST_F(MmapTrace, BadMagicErrorMatchesReader)
{
    writeValidTrace(path_);
    flipByte(path_, 0);
    EXPECT_EQ(mmapError(path_), "bad trace file magic in " + path_);
    // openTraceFile picks the format by the magic, and finds neither.
    EXPECT_EQ(readerError(path_), "unrecognized trace file format: " + path_);
}

TEST_F(MmapTrace, HeaderCrcErrorMatchesReader)
{
    writeValidTrace(path_);
    flipByte(path_, 8); // count word, caught by the header CRC
    const TraceFileHeader hdr = headerOf(path_);
    const std::string err = strFormat(
        "trace file header checksum mismatch in %s (stored %08x, computed "
        "%08x); header is corrupt",
        path_.c_str(), hdr.headerCrc, traceHeaderCrc(hdr));
    EXPECT_EQ(mmapError(path_), err);
    EXPECT_EQ(readerError(path_), err);
}

TEST_F(MmapTrace, TruncatedPayloadLocatedLikeReader)
{
    writeValidTrace(path_);
    std::filesystem::resize_file(path_, sizeof(TraceFileHeader) +
                                            sizeof(PackedRecord) +
                                            sizeof(PackedRecord) / 2);
    // The header still promises 4 records; only 1 is fully backed by bytes.
    auto file = std::make_shared<MmapTraceFile>(path_);
    EXPECT_EQ(file->recordCount(), 4u);
    EXPECT_EQ(file->availableRecords(), 1u);

    EXPECT_EQ(readerError(path_), truncatedText(path_, 1));
}

TEST_F(MmapTrace, PayloadCrcMismatchAtOpenMatchesReader)
{
    writeValidTrace(path_);
    // Flip a bit that keeps every field in range: only the payload CRC,
    // checked when the reader opens, before any record is read, can catch
    // it.
    flipByte(path_, static_cast<long>(sizeof(TraceFileHeader)) +
                        2 * static_cast<long>(sizeof(PackedRecord)) + 8);
    MmapTraceFile file(path_);
    const std::string err = strFormat(
        "trace file payload checksum mismatch in %s (stored %08x, computed "
        "%08x over 4 records); trace is corrupt",
        path_.c_str(), file.storedPayloadCrc(),
        crc32Of(file.records(0), 4 * sizeof(PackedRecord)));
    EXPECT_EQ(verifyError(path_), err);
    try {
        openTraceFile(path_);
        FAIL() << "a damaged payload opened";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()), err);
    }
}

TEST_F(MmapTrace, CorruptFieldLocatedLikeReader)
{
    std::vector<PackedRecord> recs;
    for (unsigned i = 0; i < 4; ++i)
        recs.push_back(simpleRecord(i));
    recs[2].numSrcs = 7; // > maxSrcs, smuggled under a valid CRC
    writeCraftedTrace(path_, traceFileVersion, recs);
    EXPECT_EQ(readerError(path_),
              path_ + ": bad source count 7 (record 2 at offset " +
                  std::to_string(recordOffset(2)) + ")");
}

TEST_F(MmapTrace, V1FilesStillReadWithoutChecksums)
{
    std::vector<PackedRecord> recs;
    for (unsigned i = 0; i < 4; ++i)
        recs.push_back(simpleRecord(i));
    writeCraftedTrace(path_, 1, recs);

    auto file = std::make_shared<MmapTraceFile>(path_);
    EXPECT_EQ(file->formatVersion(), 1u);
    EXPECT_EQ(file->recordCount(), 4u);
    auto reader = openTraceFile(path_);
    TraceRecord rec;
    size_t n = 0;
    while (reader->next(rec))
        ++n;
    EXPECT_EQ(n, 4u);
}

TEST_F(MmapTrace, ResetReplaysTheStreamWithCrcIntact)
{
    writeValidTrace(path_, 8);
    auto reader = openTraceFile(path_);
    TraceRecord rec;
    size_t n = 0;
    while (reader->next(rec))
        ++n;
    EXPECT_EQ(n, 8u);
    reader->reset(); // replays from block 0
    n = 0;
    while (reader->next(rec)) {
        EXPECT_EQ(rec.pc, 0x1000 + n);
        ++n;
    }
    EXPECT_EQ(n, 8u);
}

TEST_F(MmapTrace, MapFailureIsAnErrorNotAFallback)
{
    writeValidTrace(path_);
    failpoint::reset();
    std::string error;
    ASSERT_TRUE(failpoint::configure("trace.mmap.map=after:0", error))
        << error;
    const std::string err = "cannot mmap trace file: " + path_;
    EXPECT_EQ(mmapError(path_), err);
    EXPECT_EQ(readerError(path_), err);
    failpoint::reset();

    // Mapped, the same file reads in full.
    EXPECT_EQ(readerError(path_), "");
    EXPECT_EQ(MmapTraceFile(path_).recordCount(), 4u);
}

TEST_F(MmapTrace, ChunkedVerifyReportsAFlipInAnyChunkLikeTheReader)
{
    // A payload spanning three 8 MiB verify chunks and a partial fourth.
    constexpr uint64_t kChunkRecords = (uint64_t{8} << 20) /
                                       sizeof(PackedRecord);
    const uint64_t n = 3 * kChunkRecords + kChunkRecords / 4;
    writeValidTrace(path_, static_cast<unsigned>(n));
    EXPECT_EQ(verifyError(path_), "");

    for (uint64_t index : {uint64_t{100}, kChunkRecords * 3 / 2, n - 1}) {
        SCOPED_TRACE("flip in record " + std::to_string(index));
        flipByte(path_, inRangeByte(index));
        std::string err = verifyError(path_);
        EXPECT_NE(err.find("payload checksum mismatch"), std::string::npos)
            << err;
        EXPECT_NE(err.find("over " + std::to_string(n) + " records"),
                  std::string::npos)
            << err;
        EXPECT_EQ(err, readerError(path_)); // thrown as the reader opens
        flipByte(path_, inRangeByte(index)); // and back
    }
    EXPECT_EQ(verifyError(path_), "");
}

TEST_F(MmapTrace, CrcFailpointFailsExactlyOneVerify)
{
    writeValidTrace(path_);
    failpoint::reset();
    std::string error;
    ASSERT_TRUE(failpoint::configure("trace.mmap.crc=once", error)) << error;
    std::string err = verifyError(path_);
    EXPECT_NE(err.find("payload checksum mismatch"), std::string::npos)
        << err;
    EXPECT_EQ(verifyError(path_), "");
    failpoint::reset();
}

TEST_F(MmapTrace, VerifyIsANoOpOnV1Files)
{
    std::vector<PackedRecord> recs;
    for (unsigned i = 0; i < 4; ++i)
        recs.push_back(simpleRecord(i));
    writeCraftedTrace(path_, 1, recs);
    flipByte(path_, inRangeByte(2)); // v1 has no checksum to catch it
    EXPECT_EQ(verifyError(path_), "");
}

TEST_F(MmapTrace, VerifyReportsTruncationBeforeAnyChecksum)
{
    writeValidTrace(path_);
    std::filesystem::resize_file(path_, sizeof(TraceFileHeader) +
                                            2 * sizeof(PackedRecord));
    failpoint::reset();
    std::string error;
    ASSERT_TRUE(failpoint::configure("trace.mmap.crc=once", error)) << error;
    EXPECT_EQ(verifyError(path_), truncatedText(path_, 2));
    // The checksum never ran: its failpoint is still armed.
    EXPECT_EQ(failpoint::activeSites(), 1u);
    failpoint::reset();
}
