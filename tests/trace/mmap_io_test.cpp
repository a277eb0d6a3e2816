// MmapTraceSource is documented as byte-for-byte reader-equivalent: same
// records, same FatalError conditions in the same order with the same
// texts, same v1 fallback. These tests hold it to that — every failure
// case drains both a TraceFileReader and an MmapTraceSource over the same
// file and compares the *exact* error strings, and the happy path packs
// every record from both and memcmps them over the checked-in golden
// trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "support/crc32.hpp"
#include "support/failpoint.hpp"
#include "support/panic.hpp"
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

/** Open + drain via TraceFileReader; "" on success, the error text else. */
std::string
readerError(const std::string &path)
{
    try {
        TraceFileReader reader(path);
        TraceRecord rec;
        while (reader.next(rec)) {
        }
        return "";
    } catch (const FatalError &e) {
        return e.what();
    }
}

/** Same drain via mmap. */
std::string
mmapError(const std::string &path)
{
    try {
        auto file = std::make_shared<MmapTraceFile>(path);
        MmapTraceSource src(file);
        TraceRecord rec;
        while (src.next(rec)) {
        }
        return "";
    } catch (const FatalError &e) {
        return e.what();
    }
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

    TraceFileReader reader(golden);
    auto file = std::make_shared<MmapTraceFile>(golden);
    EXPECT_EQ(file->recordCount(), reader.recordCount());
    EXPECT_EQ(file->formatVersion(), reader.formatVersion());
    EXPECT_EQ(file->availableRecords(), file->recordCount());

    MmapTraceSource src(file);
    TraceRecord fromReader, fromMmap;
    uint64_t n = 0;
    while (reader.next(fromReader)) {
        ASSERT_TRUE(src.next(fromMmap)) << "mmap ran short at record " << n;
        ASSERT_EQ(std::memcmp(&fromReader, &fromMmap, sizeof(fromReader)),
                  0)
            << "record " << n << " differs";
        ++n;
    }
    EXPECT_FALSE(src.next(fromMmap)) << "mmap ran long";
    EXPECT_EQ(n, reader.recordCount());
}

TEST(MmapGolden, BatchedAndSingleReadsAgree)
{
    std::string golden =
        std::string(PARAGRAPH_GOLDEN_DIR) + "/xlisp-800.ptrc";
    auto file = std::make_shared<MmapTraceFile>(golden);
    MmapTraceSource one(file), many(file);

    std::vector<TraceRecord> batch(257); // deliberately not a divisor
    TraceRecord rec;
    uint64_t n = 0;
    for (;;) {
        size_t got = many.nextBatch(batch.data(), batch.size());
        if (got == 0)
            break;
        for (size_t i = 0; i < got; ++i) {
            ASSERT_TRUE(one.next(rec));
            ASSERT_EQ(std::memcmp(&rec, &batch[i], sizeof(rec)), 0)
                << "record " << (n + i) << " differs";
        }
        n += got;
    }
    EXPECT_FALSE(one.next(rec));
    EXPECT_EQ(n, file->recordCount());
}

TEST_F(MmapTrace, MissingFileErrorMatchesReader)
{
    std::string err = mmapError(path_);
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(err, readerError(path_));
}

TEST_F(MmapTrace, EmptyFileErrorMatchesReader)
{
    std::fclose(std::fopen(path_.c_str(), "wb"));
    std::string err = mmapError(path_);
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(err, readerError(path_));
}

TEST_F(MmapTrace, TruncatedHeaderErrorMatchesReader)
{
    writeValidTrace(path_);
    std::filesystem::resize_file(path_, sizeof(TraceFileHeader) / 2);
    std::string err = mmapError(path_);
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(err, readerError(path_));
}

TEST_F(MmapTrace, BadMagicErrorMatchesReader)
{
    writeValidTrace(path_);
    flipByte(path_, 0);
    std::string err = mmapError(path_);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    EXPECT_EQ(err, readerError(path_));
}

TEST_F(MmapTrace, HeaderCrcErrorMatchesReader)
{
    writeValidTrace(path_);
    flipByte(path_, 8); // count word, caught by the header CRC
    std::string err = mmapError(path_);
    EXPECT_NE(err.find("header checksum"), std::string::npos) << err;
    EXPECT_EQ(err, readerError(path_));
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

    std::string err = mmapError(path_);
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
    EXPECT_NE(err.find("record 1"), std::string::npos) << err;
    EXPECT_EQ(err, readerError(path_));
}

TEST_F(MmapTrace, PayloadCrcMismatchAtEndOfStreamMatchesReader)
{
    writeValidTrace(path_);
    // Flip a bit that keeps every field in range: only the payload CRC,
    // checked when the stream is drained to its end, can catch it.
    flipByte(path_, static_cast<long>(sizeof(TraceFileHeader)) +
                        2 * static_cast<long>(sizeof(PackedRecord)) + 8);
    std::string err = mmapError(path_);
    EXPECT_NE(err.find("payload checksum"), std::string::npos) << err;
    EXPECT_EQ(err, readerError(path_));
}

TEST_F(MmapTrace, CorruptFieldLocatedLikeReader)
{
    std::vector<PackedRecord> recs;
    for (unsigned i = 0; i < 4; ++i)
        recs.push_back(simpleRecord(i));
    recs[2].numSrcs = 7; // > maxSrcs, smuggled under a valid CRC
    writeCraftedTrace(path_, traceFileVersion, recs);
    std::string err = mmapError(path_);
    EXPECT_NE(err.find("source count"), std::string::npos) << err;
    EXPECT_NE(err.find("record 2"), std::string::npos) << err;
    EXPECT_EQ(err, readerError(path_));
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
    MmapTraceSource src(file);
    TraceRecord rec;
    size_t n = 0;
    while (src.next(rec))
        ++n;
    EXPECT_EQ(n, 4u);
}

TEST_F(MmapTrace, ResetReplaysTheStreamWithCrcIntact)
{
    writeValidTrace(path_, 8);
    auto file = std::make_shared<MmapTraceFile>(path_);
    MmapTraceSource src(file);
    TraceRecord rec;
    size_t n = 0;
    while (src.next(rec))
        ++n;
    EXPECT_EQ(n, 8u);
    src.reset(); // running payload CRC must restart with the stream
    n = 0;
    while (src.next(rec))
        ++n;
    EXPECT_EQ(n, 8u);
}

TEST_F(MmapTrace, TryOpenValidatesLikeTheConstructor)
{
    writeValidTrace(path_);
    auto ok = MmapTraceFile::tryOpen(path_);
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok->recordCount(), 4u);
    EXPECT_NE(ok->records(0), nullptr);

    flipByte(path_, 0);
    EXPECT_THROW(MmapTraceFile::tryOpen(path_), FatalError);
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
        EXPECT_EQ(err, readerError(path_));
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
    std::string err = verifyError(path_);
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
    EXPECT_EQ(err, readerError(path_));
    // The checksum never ran: its failpoint is still armed.
    EXPECT_EQ(failpoint::activeSites(), 1u);
    failpoint::reset();
}
