/**
 * @file
 * BlockSource: the block-granular pull interface fused consumers share.
 *
 * next(const TraceRecord **) is the feeding contract of block-major
 * analysis: the shared decode pool serves it from a mapped trace's blocks
 * in place, and SourceBlocks fills one reused block from a TraceSource (a
 * simulator, a `.ptrz` reader) on the consumer's own thread. This
 * interface lets core::analyzeManyGuarded feed engines from either
 * without caring which is behind it.
 */

#ifndef PARAGRAPH_TRACE_BLOCK_SOURCE_HPP
#define PARAGRAPH_TRACE_BLOCK_SOURCE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.hpp"
#include "trace/source.hpp"

namespace paragraph {
namespace trace {

/**
 * Records per block a TraceSource fills on its consumer's thread (192 KB):
 * a fused pass over a simulation or a `.ptrz`, a capture, a streaming
 * checksum. The one block is rewritten for each step, so it
 * stays in cache while every engine walks it. On a 4-vCPU Xeon VM, 40
 * sweep-sim shaped ops each (8 configs, 1M records, --jobs=4) took
 * medians of 179, 184 and 196 ms with 4K-, 16K- and 64K-record blocks, at
 * peak RSS of 20.9, 24.4 and 40.0 MB.
 */
constexpr size_t kSourceBlockRecords = 4096;

class BlockSource
{
  public:
    virtual ~BlockSource() = default;

    /**
     * Produce the next block of records.
     *
     * @param records receives a pointer valid until the next call (or until
     *        the source is destroyed). @return the block's record count;
     *        0 at end of trace. May throw decode errors.
     */
    virtual size_t next(const TraceRecord **records) = 0;
};

/**
 * Blocks pulled from a TraceSource inline: each next() is one nextBatch()
 * into a reused block of @p blockRecords records, with no producer thread.
 * Ends after @p maxRecords records (0 = at the end of the source).
 */
class SourceBlocks : public BlockSource
{
  public:
    SourceBlocks(TraceSource &src, size_t blockRecords,
                 uint64_t maxRecords = 0)
        : src_(src),
          block_(blockRecords),
          remaining_(maxRecords ? maxRecords : UINT64_MAX) {}

    size_t
    next(const TraceRecord **records) override
    {
        size_t want = static_cast<size_t>(
            std::min<uint64_t>(block_.size(), remaining_));
        size_t n = want ? src_.nextBatch(block_.data(), want) : 0;
        remaining_ -= n;
        *records = block_.data();
        return n;
    }

  private:
    TraceSource &src_;
    std::vector<TraceRecord> block_;
    uint64_t remaining_;
};

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_BLOCK_SOURCE_HPP
