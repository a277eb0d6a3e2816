// BlockPipeline edge cases: zero-record traces, traces that fit exactly one
// block, producer-thread exception propagation, and tearing the pipeline
// down while the producer is still mid-trace (cancel-by-destruction). The
// happy path is covered indirectly by the multi/sweep suites; these are the
// boundaries where double-buffering protocols typically break.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "support/panic.hpp"
#include "tests/core/trace_helpers.hpp"
#include "trace/block_pipeline.hpp"
#include "trace/buffer.hpp"
#include "trace/source.hpp"

namespace paragraph {
namespace {

using trace::BlockPipeline;
using trace::BufferSource;
using trace::TraceBuffer;
using trace::TraceRecord;

/** Streams a prefix of a buffer, then throws. */
class ThrowingSource : public trace::TraceSource
{
  public:
    ThrowingSource(const TraceBuffer &buf, size_t failAfter)
        : buf_(&buf), failAfter_(failAfter) {}

    bool
    next(TraceRecord &rec) override
    {
        if (pos_ >= failAfter_)
            throw FatalError("record decode failed");
        if (pos_ >= buf_->size())
            return false;
        rec = (*buf_)[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

  private:
    const TraceBuffer *buf_;
    size_t failAfter_;
    size_t pos_ = 0;
};

/** Drain a pipeline, returning all records seen. */
std::vector<TraceRecord>
drain(BlockPipeline &pipe)
{
    std::vector<TraceRecord> out;
    const TraceRecord *block = nullptr;
    size_t n;
    while ((n = pipe.next(&block)) > 0)
        out.insert(out.end(), block, block + n);
    return out;
}

TEST(BlockPipeline, ZeroRecordTrace)
{
    TraceBuffer empty;
    BufferSource src(empty);
    BlockPipeline pipe(src);
    const TraceRecord *block = nullptr;
    EXPECT_EQ(pipe.next(&block), 0u);
    // End of trace is terminal, not a transient state.
    EXPECT_EQ(pipe.next(&block), 0u);
}

TEST(BlockPipeline, ExactlyOneBlock)
{
    const size_t blockRecords = 128;
    TraceBuffer buf = testhelpers::randomTrace(11, blockRecords);
    BufferSource src(buf);
    BlockPipeline::Options opt;
    opt.blockRecords = blockRecords;
    BlockPipeline pipe(src, opt);

    const TraceRecord *block = nullptr;
    size_t n = pipe.next(&block);
    EXPECT_EQ(n, blockRecords);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(block[i], buf[i]) << "record " << i;
    EXPECT_EQ(pipe.next(&block), 0u);
}

TEST(BlockPipeline, BlockBoundaryOffByOne)
{
    // One more / one fewer record than a whole number of blocks.
    for (size_t length : {size_t{127}, size_t{129}, size_t{256}, size_t{257}}) {
        TraceBuffer buf = testhelpers::randomTrace(12, length);
        BufferSource src(buf);
        BlockPipeline::Options opt;
        opt.blockRecords = 128;
        BlockPipeline pipe(src, opt);
        std::vector<TraceRecord> got = drain(pipe);
        ASSERT_EQ(got.size(), length);
        for (size_t i = 0; i < length; ++i)
            ASSERT_EQ(got[i], buf[i]) << "length " << length << " record "
                                      << i;
    }
}

TEST(BlockPipeline, MaxRecordsCapsMidBlock)
{
    TraceBuffer buf = testhelpers::randomTrace(13, 300);
    BufferSource src(buf);
    BlockPipeline::Options opt;
    opt.blockRecords = 128;
    opt.maxRecords = 200; // inside the second block
    BlockPipeline pipe(src, opt);
    std::vector<TraceRecord> got = drain(pipe);
    ASSERT_EQ(got.size(), 200u);
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], buf[i]) << "record " << i;
    // The capped pipeline must not have drained the source past its cap.
    TraceRecord rec;
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec, buf[200]);
}

TEST(BlockPipeline, ProducerExceptionPropagates)
{
    TraceBuffer buf = testhelpers::randomTrace(14, 400);
    ThrowingSource src(buf, 300);
    BlockPipeline::Options opt;
    opt.blockRecords = 128;
    BlockPipeline pipe(src, opt);

    std::vector<TraceRecord> got;
    const TraceRecord *block = nullptr;
    bool threw = false;
    try {
        size_t n;
        while ((n = pipe.next(&block)) > 0)
            got.insert(got.end(), block, block + n);
    } catch (const FatalError &e) {
        threw = true;
        EXPECT_STREQ(e.what(), "record decode failed");
    }
    EXPECT_TRUE(threw);
    // Everything delivered before the failure must be intact.
    ASSERT_LE(got.size(), 300u);
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], buf[i]) << "record " << i;
}

TEST(BlockPipeline, ProducerExceptionPropagatesRepeatedly)
{
    // The producer publishes its exception after its handler has ended;
    // published from inside the handler, the handler's end raced the
    // consumer's what(). Many short runs give a sanitizer build the
    // interleavings to see such a race.
    TraceBuffer buf = testhelpers::randomTrace(16, 200);
    for (int run = 0; run < 50; ++run) {
        ThrowingSource src(buf, 100);
        BlockPipeline::Options opt;
        opt.blockRecords = 32;
        BlockPipeline pipe(src, opt);
        const TraceRecord *block = nullptr;
        try {
            while (pipe.next(&block) > 0) {
            }
            FAIL() << "run " << run << ": no exception";
        } catch (const FatalError &e) {
            EXPECT_STREQ(e.what(), "record decode failed") << "run " << run;
        }
    }
}

TEST(BlockPipeline, ExceptionInFirstBlock)
{
    TraceBuffer buf = testhelpers::randomTrace(15, 100);
    ThrowingSource src(buf, 0);
    BlockPipeline pipe(src);
    const TraceRecord *block = nullptr;
    EXPECT_THROW(pipe.next(&block), FatalError);
}

TEST(BlockPipeline, DestructionMidTraceJoinsCleanly)
{
    // Consume one block of a many-block trace, then destroy the pipeline
    // while the producer still has work queued: the destructor must stop
    // and join without deadlock or touching freed state (ASan/TSan CI).
    TraceBuffer buf = testhelpers::randomTrace(16, 5000);
    BufferSource src(buf);
    BlockPipeline::Options opt;
    opt.blockRecords = 64;
    {
        BlockPipeline pipe(src, opt);
        const TraceRecord *block = nullptr;
        ASSERT_GT(pipe.next(&block), 0u);
    }
    // Destruction with zero next() calls at all.
    src.reset();
    {
        BlockPipeline pipe(src, opt);
    }
}

} // namespace
} // namespace paragraph
