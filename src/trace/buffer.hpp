/**
 * @file
 * TraceBuffer: an in-memory trace with a replayable TraceSource view.
 *
 * Used by unit tests (hand-built traces and serial references), by the
 * two-pass last-use annotator (which requires the whole trace, paper
 * Section 3.2 method 1), and by benches that analyze one capture many
 * times.
 */

#ifndef PARAGRAPH_TRACE_BUFFER_HPP
#define PARAGRAPH_TRACE_BUFFER_HPP

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "trace/block_source.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace paragraph {
namespace trace {

class TraceBuffer
{
  public:
    TraceBuffer() = default;

    explicit TraceBuffer(std::vector<TraceRecord> records)
        : records_(std::move(records)) {}

    /** Append one record. */
    void push(const TraceRecord &rec) { records_.push_back(rec); }

    /** Number of records stored. */
    size_t size() const { return records_.size(); }

    bool empty() const { return records_.empty(); }

    /** Record at index @p i. */
    const TraceRecord &operator[](size_t i) const { return records_[i]; }
    TraceRecord &operator[](size_t i) { return records_[i]; }

    std::vector<TraceRecord> &records() { return records_; }
    const std::vector<TraceRecord> &records() const { return records_; }

    /**
     * Capture records of @p src (drains it from its current point). If
     * @p src throws, the records captured so far are unspecified.
     * @param max_records stop after this many records; 0 = whole trace.
     */
    void
    capture(TraceSource &src, size_t max_records = 0)
    {
        if (max_records != 0 && records_.size() >= max_records)
            return;
        // One nextBatch() call per block, not one next() per record.
        SourceBlocks blocks(src, kSourceBlockRecords,
                            max_records ? max_records - records_.size() : 0);
        const TraceRecord *block = nullptr;
        while (size_t n = blocks.next(&block))
            records_.insert(records_.end(), block, block + n);
    }

  private:
    std::vector<TraceRecord> records_;
};

/** Replayable TraceSource over a TraceBuffer (non-owning). */
class BufferSource : public TraceSource
{
  public:
    explicit BufferSource(const TraceBuffer &buffer,
                          std::string name = "buffer")
        : buffer_(&buffer), name_(std::move(name)) {}

    bool
    next(TraceRecord &rec) override
    {
        if (pos_ >= buffer_->size())
            return false;
        rec = (*buffer_)[pos_++];
        return true;
    }

    size_t
    nextBatch(TraceRecord *out, size_t max) override
    {
        size_t n = std::min(max, buffer_->size() - pos_);
        std::copy_n(buffer_->records().data() + pos_, n, out);
        pos_ += n;
        return n;
    }

    void reset() override { pos_ = 0; }

    std::string name() const override { return name_; }

  private:
    const TraceBuffer *buffer_;
    std::string name_;
    size_t pos_ = 0;
};

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_BUFFER_HPP
