/**
 * @file
 * TraceSource: the pull interface Paragraph consumes traces through.
 *
 * Traces in the paper are up to 100M instructions; storing them is optional.
 * A TraceSource streams records one at a time and can be reset so parameter
 * sweeps (e.g. Figure 8's window-size study, one full re-analysis per point)
 * can replay the identical trace.
 */

#ifndef PARAGRAPH_TRACE_SOURCE_HPP
#define PARAGRAPH_TRACE_SOURCE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "trace/record.hpp"

namespace paragraph {
namespace trace {

class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next record.
     * @return false at end of trace (@p rec is then unspecified).
     */
    virtual bool next(TraceRecord &rec) = 0;

    /**
     * Produce up to @p max records into @p out.
     *
     * The default forwards to next(); in-memory sources override this with
     * a bulk copy so consumers pay one virtual call per block instead of
     * one per record.
     *
     * @return number of records produced; 0 only at end of trace.
     */
    virtual size_t
    nextBatch(TraceRecord *out, size_t max)
    {
        size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }

    /** Restart the trace from the beginning (must be deterministic). */
    virtual void reset() = 0;

    /** Identifying name for reports. */
    virtual std::string name() const { return "trace"; }
};

/**
 * Caps an owned source at a fixed record count.
 *
 * Every streamed pass needs the sweep's record cap
 * (TraceRepository::Options::maxRecords) applied, or a capped and an
 * uncapped run of the same file would disagree. The wrapper ends the
 * trace after @p maxRecords records; reset() restarts both the inner
 * source and the count.
 */
class LimitedSource : public TraceSource
{
  public:
    LimitedSource(std::unique_ptr<TraceSource> inner, uint64_t maxRecords)
        : inner_(std::move(inner)), maxRecords_(maxRecords) {}

    bool
    next(TraceRecord &rec) override
    {
        if (produced_ >= maxRecords_)
            return false;
        if (!inner_->next(rec))
            return false;
        ++produced_;
        return true;
    }

    size_t
    nextBatch(TraceRecord *out, size_t max) override
    {
        uint64_t remaining = maxRecords_ - produced_;
        if (produced_ >= maxRecords_)
            return 0;
        if (remaining < max)
            max = static_cast<size_t>(remaining);
        size_t n = inner_->nextBatch(out, max);
        produced_ += n;
        return n;
    }

    void
    reset() override
    {
        inner_->reset();
        produced_ = 0;
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<TraceSource> inner_;
    uint64_t maxRecords_;
    uint64_t produced_ = 0;
};

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_SOURCE_HPP
