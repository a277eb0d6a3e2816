// A streamed `.ptrz` is decoded inline: each fused pass pulls 4K-record
// blocks from its own CompressedTraceReader through trace::SourceBlocks,
// on its own worker. These tests pin that path's edges: empty traces,
// block-sized traces and their neighbours, a cap inside a block, decode
// errors in the first block and mid-trace reaching the cell as the
// reader's located error, and the content key a `.ptrz` shares with the
// `.ptrc` of the same records.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "engine/sweep.hpp"
#include "engine/trace_repository.hpp"
#include "support/panic.hpp"
#include "trace/block_source.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"

using namespace paragraph;
using namespace paragraph::engine;
using trace::CompressedTraceReader;
using trace::SourceBlocks;
using trace::TraceRecord;

namespace {

/** Records per block of a streamed pass. */
constexpr size_t kBlock = trace::kSourceBlockRecords;

std::string
tempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() / stem).string();
}

/** The first records of xlisp's small run: a real instruction mix. */
const std::vector<TraceRecord> &
xlispRecords()
{
    static const std::vector<TraceRecord> records = [] {
        TraceRepository::Options ro;
        ro.scale = workloads::Scale::Small;
        TraceRepository repo(ro);
        return repo.get("xlisp")->records();
    }();
    return records;
}

/** Write the first @p n xlisp records to a `.ptrz` at @p path. */
void
writePtrz(const std::string &path, size_t n)
{
    ASSERT_LE(n, xlispRecords().size());
    trace::CompressedTraceWriter writer(path);
    for (size_t i = 0; i < n; ++i)
        writer.write(xlispRecords()[i]);
    writer.close();
}

/** File offset of record @p k's head byte in a `.ptrz` of xlisp records:
 *  the encoding of a record depends only on the ones before it. */
long
recordOffset(size_t k)
{
    const std::string scratch = tempPath("ptrz_stream_prefix.ptrz");
    trace::CompressedTraceWriter writer(scratch);
    for (size_t i = 0; i < k; ++i)
        writer.write(xlispRecords()[i]);
    writer.close();
    std::remove(scratch.c_str());
    return static_cast<long>(24 + writer.bytesWritten());
}

/** Give record @p k of the `.ptrz` at @p path an undefined operation
 *  class; @return the head byte's offset. */
long
corruptRecord(const std::string &path, size_t k)
{
    const long offset = recordOffset(k);
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    EXPECT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    std::fputc(0x0f, f);
    std::fclose(f);
    return offset;
}

/** Drain @p blocks, returning every record handed out. */
std::vector<TraceRecord>
drain(SourceBlocks &blocks)
{
    std::vector<TraceRecord> out;
    const TraceRecord *block = nullptr;
    while (size_t n = blocks.next(&block)) {
        EXPECT_LE(n, kBlock);
        out.insert(out.end(), block, block + n);
    }
    return out;
}

/** The reader's own error text for the `.ptrz` at @p path. */
std::string
readerError(const std::string &path)
{
    CompressedTraceReader reader(path);
    TraceRecord rec;
    try {
        while (reader.next(rec)) {
        }
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "no decode error in " << path;
    return {};
}

/** Sweep @p path streamed under two configs; every cell must fail with
 *  exactly @p want. */
void
expectCellsFailWith(const std::string &path, const std::string &want)
{
    TraceRepository::Options ro;
    ro.streamFiles = true;
    TraceRepository repo(ro);
    SweepEngine::Options opt;
    opt.jobs = 1;      // one worker's share is both cells, so ...
    opt.groupSize = 2; // ... one fused pass, then each cell demoted to solo
    SweepResult sweep = SweepEngine(opt).run(
        repo, {path},
        {core::AnalysisConfig::windowed(16),
         core::AnalysisConfig::dataflowConservative()});
    ASSERT_EQ(sweep.cells.size(), 2u);
    EXPECT_EQ(sweep.fusedGroups, 1u);
    for (const SweepCell &cell : sweep.cells) {
        EXPECT_EQ(cell.status, SweepCell::Status::Failed);
        EXPECT_EQ(cell.errorMessage, want);
    }
}

} // namespace

TEST(PtrzBlocks, ZeroRecordTrace)
{
    const std::string path = tempPath("ptrz_blocks_empty.ptrz");
    writePtrz(path, 0);
    CompressedTraceReader reader(path);
    SourceBlocks blocks(reader, kBlock);
    const TraceRecord *block = nullptr;
    EXPECT_EQ(blocks.next(&block), 0u);
    // End of trace is terminal, not a transient state.
    EXPECT_EQ(blocks.next(&block), 0u);
    std::remove(path.c_str());
}

TEST(PtrzBlocks, ExactlyOneBlock)
{
    const std::string path = tempPath("ptrz_blocks_one.ptrz");
    writePtrz(path, kBlock);
    CompressedTraceReader reader(path);
    SourceBlocks blocks(reader, kBlock);
    const TraceRecord *block = nullptr;
    ASSERT_EQ(blocks.next(&block), kBlock);
    for (size_t i = 0; i < kBlock; ++i)
        ASSERT_EQ(block[i], xlispRecords()[i]) << "record " << i;
    EXPECT_EQ(blocks.next(&block), 0u);
    std::remove(path.c_str());
}

TEST(PtrzBlocks, BlockBoundaryOffByOne)
{
    const std::string path = tempPath("ptrz_blocks_edge.ptrz");
    for (size_t length : {kBlock - 1, kBlock, kBlock + 1}) {
        SCOPED_TRACE(length);
        writePtrz(path, length);
        CompressedTraceReader reader(path);
        SourceBlocks blocks(reader, kBlock);
        std::vector<TraceRecord> got = drain(blocks);
        ASSERT_EQ(got.size(), length);
        for (size_t i = 0; i < length; ++i)
            ASSERT_EQ(got[i], xlispRecords()[i]) << "record " << i;
    }
    std::remove(path.c_str());
}

TEST(PtrzBlocks, MaxRecordsCapsMidBlock)
{
    const std::string path = tempPath("ptrz_blocks_cap.ptrz");
    writePtrz(path, 3 * kBlock);
    CompressedTraceReader reader(path);
    const size_t cap = kBlock + 1000; // inside the second block
    SourceBlocks blocks(reader, kBlock, cap);
    std::vector<TraceRecord> got = drain(blocks);
    ASSERT_EQ(got.size(), cap);
    for (size_t i = 0; i < cap; ++i)
        ASSERT_EQ(got[i], xlispRecords()[i]) << "record " << i;
    // The capped blocks must not have drained the reader past the cap.
    TraceRecord rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec, xlispRecords()[cap]);
    std::remove(path.c_str());
}

TEST(PtrzBlocks, DecodeErrorInFirstBlockReachesTheCell)
{
    const std::string path = tempPath("ptrz_blocks_bad_first.ptrz");
    writePtrz(path, 2 * kBlock);
    corruptRecord(path, 0);
    const std::string want = readerError(path);
    EXPECT_NE(want.find("bad operation class 15"), std::string::npos)
        << want;
    EXPECT_NE(want.find("(record 0 at offset 24)"), std::string::npos)
        << want;

    CompressedTraceReader reader(path);
    SourceBlocks blocks(reader, kBlock);
    const TraceRecord *block = nullptr;
    try {
        blocks.next(&block);
        FAIL() << "corrupt first block was accepted";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()), want);
    }
    expectCellsFailWith(path, want);
    std::remove(path.c_str());
}

TEST(PtrzBlocks, DecodeErrorMidTraceReachesTheCell)
{
    const std::string path = tempPath("ptrz_blocks_bad_mid.ptrz");
    const size_t bad = kBlock + 500; // in the second block
    writePtrz(path, 3 * kBlock);
    const long offset = corruptRecord(path, bad);
    const std::string want = readerError(path);
    EXPECT_NE(want.find("(record " + std::to_string(bad) + " at offset " +
                        std::to_string(offset) + ")"),
              std::string::npos)
        << want;

    CompressedTraceReader reader(path);
    SourceBlocks blocks(reader, kBlock);
    const TraceRecord *block = nullptr;
    // The whole first block arrives intact; the second raises the error.
    ASSERT_EQ(blocks.next(&block), kBlock);
    for (size_t i = 0; i < kBlock; ++i)
        ASSERT_EQ(block[i], xlispRecords()[i]) << "record " << i;
    try {
        blocks.next(&block);
        FAIL() << "corrupt record was accepted";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()), want);
    }
    expectCellsFailWith(path, want);
    std::remove(path.c_str());
}

TEST(PtrzBlocks, ContentKeyEqualsThePtrcKey)
{
    // The key is the CRC of the records in their 48-byte form, whichever
    // file holds them: a `.ptrz` of xlisp's small run hits the store
    // entries the `.ptrc` of the same run (and the analog) wrote.
    const std::string ptrc = tempPath("ptrz_key.ptrc");
    const std::string ptrz = tempPath("ptrz_key.ptrz");
    {
        trace::TraceFileWriter writer(ptrc);
        for (const TraceRecord &rec : xlispRecords())
            writer.write(rec);
        writer.close();
    }
    writePtrz(ptrz, xlispRecords().size());
    for (bool stream : {false, true}) {
        SCOPED_TRACE(stream ? "streamed" : "captured");
        TraceRepository::Options ro;
        ro.streamFiles = stream;
        TraceRepository repo(ro);
        EXPECT_EQ(repo.traceCrc(ptrc), 0x1ca53f65u);
        EXPECT_EQ(repo.traceCrc(ptrz), 0x1ca53f65u);
    }
    std::remove(ptrc.c_str());
    std::remove(ptrz.c_str());
}
