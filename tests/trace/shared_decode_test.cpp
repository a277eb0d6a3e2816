// SharedDecodePool: a mapped trace served in place as record blocks. Each
// 64K block is checked exactly once no matter how many cursors walk it —
// concurrently or in sequence, or up front in the payload checksum pass —
// blocks are spans into the mapping (byte for byte the file's payload), a
// capped pool never checks past its cap,
// a corrupt block throws the same located error to every cursor that
// reaches it (and again on a retry), and the v2 payload CRC is verified
// eagerly at construction (random-access consumers may never reach the
// final block) by a pool that serves the whole payload.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "support/failpoint.hpp"
#include "support/panic.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"
#include "trace/shared_decode.hpp"

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

/** Write @p n simple records; record @p badIndex (if below n) gets an
 *  out-of-range source count under a valid payload CRC. */
void
writeTrace(const std::string &path, unsigned n, unsigned badIndex = ~0u)
{
    TraceFileWriter writer(path);
    for (unsigned i = 0; i < n; ++i) {
        TraceRecord rec = simpleRecord(i);
        if (i == badIndex)
            rec.numSrcs = 7;
        writer.write(rec);
    }
    writer.close();
}

/** The error @p fn throws, or "" when it does not throw. */
template <typename Fn>
std::string
errorOf(Fn &&fn)
{
    try {
        fn();
        return "";
    } catch (const FatalError &e) {
        return e.what();
    }
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

/** Walk one cursor to exhaustion; checks pc continuity, returns records. */
uint64_t
drainCursor(SharedDecodeCursor &cursor)
{
    uint64_t n = 0;
    const TraceRecord *records = nullptr;
    size_t got = 0;
    while ((got = cursor.next(&records)) != 0) {
        for (size_t i = 0; i < got; ++i)
            EXPECT_EQ(records[i].pc, 0x1000 + n + i);
        n += got;
    }
    return n;
}

class SharedDecode : public ::testing::Test
{
  protected:
    std::string path_;

    // Per-test file name: ctest runs each test as its own process, so
    // sibling tests of this fixture can be live at the same instant.
    void SetUp() override
    {
        path_ = tempPath(std::string("para_pool_") +
                         ::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name() +
                         ".ptrc");
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::shared_ptr<SharedDecodePool>
    makePool(unsigned records, SharedDecodePool::Options opt,
             unsigned badIndex = ~0u)
    {
        writeTrace(path_, records, badIndex);
        return std::make_shared<SharedDecodePool>(
            std::make_shared<MmapTraceFile>(path_), opt);
    }
};

} // namespace

TEST_F(SharedDecode, SequentialCursorsDecodeEachBlockOnce)
{
    SharedDecodePool::Options opt;
    opt.blockRecords = 16;
    opt.verifyPayload = false; // blocks are then checked on first touch
    auto pool = makePool(100, opt); // 7 blocks
    EXPECT_EQ(pool->recordCount(), 100u);
    EXPECT_EQ(pool->blockCount(), 7u);
    EXPECT_EQ(pool->blocksDecoded(), 0u);

    SharedDecodeCursor first(pool), second(pool);
    EXPECT_EQ(drainCursor(first), 100u);
    EXPECT_EQ(pool->blocksDecoded(), 7u);
    EXPECT_EQ(drainCursor(second), 100u);
    EXPECT_EQ(pool->blocksDecoded(), 7u); // checked once, served twice
}

TEST_F(SharedDecode, ConcurrentCursorsDecodeEachBlockOnce)
{
    SharedDecodePool::Options opt;
    opt.blockRecords = 16;
    opt.verifyPayload = false;
    auto pool = makePool(100, opt);

    std::vector<std::thread> threads;
    std::vector<uint64_t> seen(4, 0);
    for (size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&, t] {
            SharedDecodeCursor cursor(pool);
            seen[t] = drainCursor(cursor);
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (uint64_t n : seen)
        EXPECT_EQ(n, 100u);
    EXPECT_EQ(pool->blocksDecoded(), pool->blockCount());
}

TEST_F(SharedDecode, VerifiedPoolChecksEveryBlockInItsChecksumPass)
{
    // The payload CRC pass reads every byte: it range-checks each block
    // too, so cursors find every block already checked.
    SharedDecodePool::Options opt;
    opt.blockRecords = 16;
    auto pool = makePool(100, opt);
    EXPECT_EQ(pool->blocksDecoded(), 7u);
    SharedDecodeCursor cursor(pool);
    EXPECT_EQ(drainCursor(cursor), 100u);
    EXPECT_EQ(pool->blocksDecoded(), 7u);
}

TEST_F(SharedDecode, BlocksCarryCorrectBoundsAndContents)
{
    SharedDecodePool::Options opt;
    opt.blockRecords = 16;
    auto pool = makePool(50, opt);

    std::span<const TraceRecord> blk = pool->block(2);
    ASSERT_EQ(blk.size(), 16u);
    EXPECT_EQ(blk.data(), pool->file().records(32)); // in place
    for (size_t i = 0; i < blk.size(); ++i)
        EXPECT_EQ(blk[i].pc, 0x1000 + 32 + i);

    std::span<const TraceRecord> tail = pool->block(3); // 50 = 3*16 + 2
    EXPECT_EQ(tail.data(), pool->file().records(48));
    EXPECT_EQ(tail.size(), 2u);
}

TEST(SharedDecodeGolden, BlocksAreTheMappedPayloadByteForByte)
{
    // The golden traces were written by the 80-byte-record code; served
    // blocks must be exactly their payload bytes, in order.
    for (const char *name : {"xlisp-800.ptrc", "matrix300-600.ptrc"}) {
        SCOPED_TRACE(name);
        const std::string golden =
            std::string(PARAGRAPH_GOLDEN_DIR) + "/" + name;
        std::FILE *f = std::fopen(golden.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::vector<unsigned char> bytes;
        for (int c; (c = std::fgetc(f)) != EOF;)
            bytes.push_back(static_cast<unsigned char>(c));
        std::fclose(f);

        SharedDecodePool::Options opt;
        opt.blockRecords = 64; // several blocks and a partial tail
        auto pool = std::make_shared<SharedDecodePool>(
            std::make_shared<MmapTraceFile>(golden), opt);
        ASSERT_EQ(bytes.size(), sizeof(TraceFileHeader) +
                                    pool->recordCount() * sizeof(TraceRecord));
        SharedDecodeCursor cursor(pool);
        const TraceRecord *records = nullptr;
        size_t offset = sizeof(TraceFileHeader);
        while (size_t n = cursor.next(&records)) {
            ASSERT_EQ(std::memcmp(records, bytes.data() + offset,
                                  n * sizeof(TraceRecord)),
                      0)
                << "block at byte " << offset;
            offset += n * sizeof(TraceRecord);
        }
        EXPECT_EQ(offset, bytes.size());
        EXPECT_EQ(pool->blocksDecoded(), pool->blockCount());
    }
}

TEST_F(SharedDecode, MaxRecordsClipsTheServedTrace)
{
    SharedDecodePool::Options opt;
    opt.blockRecords = 16;
    opt.maxRecords = 40;
    auto pool = makePool(100, opt);
    EXPECT_EQ(pool->recordCount(), 40u);
    EXPECT_EQ(pool->blockCount(), 3u); // 16 + 16 + 8

    SharedDecodeCursor cursor(pool);
    EXPECT_EQ(drainCursor(cursor), 40u);
    EXPECT_EQ(pool->block(2).size(), 8u);
}

TEST_F(SharedDecode, CappedPoolNeverChecksPastItsCap)
{
    // Record 45 is corrupt, past the 40-record cap: a capped stream never
    // reads it, so the pool serves its 40 records without an error. The
    // CRC covers the whole payload, which a capped read skips.
    SharedDecodePool::Options opt;
    opt.blockRecords = 16;
    opt.maxRecords = 40;
    opt.verifyPayload = false;
    auto pool = makePool(100, opt, /*badIndex=*/45);
    SharedDecodeCursor cursor(pool);
    EXPECT_EQ(drainCursor(cursor), 40u);
    EXPECT_EQ(pool->blocksDecoded(), 3u);

    // The same record inside the cap is an error.
    opt.maxRecords = 46;
    auto wider = std::make_shared<SharedDecodePool>(
        std::make_shared<MmapTraceFile>(path_), opt);
    SharedDecodeCursor widerCursor(wider);
    EXPECT_NE(errorOf([&] { drainCursor(widerCursor); }).find("record 45"),
              std::string::npos);
}

TEST_F(SharedDecode, CorruptBlockThrowsTheLocatedErrorToEveryCursor)
{
    // Record 37 (block 2 of 16-record blocks) has a bad source count under
    // a valid payload CRC, so only the block check can catch it — on
    // first touch, or in the checksum pass, which leaves it unchecked.
    writeTrace(path_, 100, /*badIndex=*/37);
    const std::string readerError =
        path_ + ": bad source count 7 (record 37 at offset " +
        std::to_string(recordOffset(37)) + ")";
    EXPECT_EQ(errorOf([&] {
                  auto reader = openTraceFile(path_);
                  TraceRecord rec;
                  while (reader->next(rec)) {
                  }
              }),
              readerError);

    for (bool verify : {false, true}) {
        SCOPED_TRACE(verify ? "verified pool" : "unverified pool");
        SharedDecodePool::Options opt;
        opt.blockRecords = 16;
        opt.verifyPayload = verify;
        auto pool = std::make_shared<SharedDecodePool>(
            std::make_shared<MmapTraceFile>(path_), opt);
        // Every block but 2 in the checksum pass; blocks 0 and 1 before
        // the cursors stop at 2 otherwise.
        const uint64_t checked = verify ? 6 : 2;

        std::vector<std::string> errors(4);
        std::vector<std::thread> threads;
        for (size_t t = 0; t < errors.size(); ++t) {
            threads.emplace_back([&, t] {
                SharedDecodeCursor cursor(pool);
                errors[t] = errorOf([&] { drainCursor(cursor); });
            });
        }
        for (std::thread &th : threads)
            th.join();
        for (const std::string &e : errors)
            EXPECT_EQ(e, readerError);
        EXPECT_EQ(pool->blocksDecoded(), checked);

        // The block stays unchecked: a retry checks it again, and fails
        // again. Blocks past it are served.
        EXPECT_EQ(errorOf([&] { pool->block(2); }), readerError);
        EXPECT_EQ(pool->blocksDecoded(), checked);
        EXPECT_EQ(pool->block(3).size(), 16u);
    }
}

TEST_F(SharedDecode, BlockFailpointFailsOneFetchAndARetryIsServed)
{
    SharedDecodePool::Options opt;
    opt.blockRecords = 16;
    auto pool = makePool(50, opt);
    failpoint::reset();
    std::string error;
    ASSERT_TRUE(failpoint::configure("trace.decode.block=once", error))
        << error;
    EXPECT_THROW(pool->block(1), std::bad_alloc);
    EXPECT_EQ(pool->block(1).size(), 16u);
    failpoint::reset();
}

TEST_F(SharedDecode, PayloadCrcVerifiedEagerlyAtConstruction)
{
    writeTrace(path_, 100);
    // In-range bit flip: only the payload CRC can catch it, and the pool
    // must do so at construction, not at whatever block gets read last.
    flipByte(path_, static_cast<long>(sizeof(TraceFileHeader)) +
                        60 * static_cast<long>(sizeof(TraceRecord)) + 8);
    try {
        SharedDecodePool pool(std::make_shared<MmapTraceFile>(path_), {});
        FAIL() << "corrupt payload was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("payload checksum"),
                  std::string::npos)
            << e.what();
    }

    // Opting out of the eager check serves the bytes as mapped (the flip
    // kept every field in range, so the block check passes).
    SharedDecodePool::Options opt;
    opt.verifyPayload = false;
    auto pool = std::make_shared<SharedDecodePool>(
        std::make_shared<MmapTraceFile>(path_), opt);
    EXPECT_EQ(pool->block(0).size(), pool->recordCount());
}

TEST_F(SharedDecode, CappedPoolSkipsThePayloadCrcOfRecordsItDoesNotServe)
{
    // The one payload-CRC rule: only a pool serving the whole payload
    // verifies it. A flip in record 60 (every field still in range) fails
    // the uncapped pool's open; a 40-record pool serves its records, each
    // block checked on first touch.
    writeTrace(path_, 100);
    flipByte(path_, static_cast<long>(recordOffset(60)) + 8);
    SharedDecodePool::Options opt;
    opt.blockRecords = 16;
    EXPECT_NE(errorOf([&] {
                  SharedDecodePool pool(
                      std::make_shared<MmapTraceFile>(path_), opt);
              }).find("payload checksum mismatch"),
              std::string::npos);

    opt.maxRecords = 40;
    auto capped = std::make_shared<SharedDecodePool>(
        std::make_shared<MmapTraceFile>(path_), opt);
    EXPECT_FALSE(capped->payloadVerified());
    EXPECT_EQ(capped->blocksDecoded(), 0u);
    SharedDecodeCursor cursor(capped);
    EXPECT_EQ(drainCursor(cursor), 40u);
    EXPECT_EQ(capped->blocksDecoded(), 3u);
}

TEST_F(SharedDecode, SourceViewCopiesTheBlocksInOrderAndReplaysOnReset)
{
    SharedDecodePool::Options opt;
    opt.blockRecords = 16;
    auto pool = makePool(50, opt); // blocks of 16, 16, 16 and 2
    EXPECT_TRUE(pool->payloadVerified());
    SharedDecodeSource src(pool);
    EXPECT_EQ(src.name(), path_);
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE(pass == 0 ? "first pass" : "after reset()");
        std::vector<TraceRecord> batch(7); // straddles every block edge
        uint64_t n = 0;
        while (size_t got = src.nextBatch(batch.data(), batch.size())) {
            for (size_t i = 0; i < got; ++i)
                EXPECT_EQ(batch[i].pc, 0x1000 + n + i);
            n += got;
        }
        EXPECT_EQ(n, 50u);
        TraceRecord rec;
        EXPECT_FALSE(src.next(rec));
        src.reset();
    }
    EXPECT_EQ(pool->blocksDecoded(), 4u);
}
