#include "trace/block_pipeline.hpp"

namespace paragraph {
namespace trace {

BlockPipeline::BlockPipeline(TraceSource &src, Options opt)
    : src_(src), opt_(opt)
{
    if (opt_.blockRecords == 0)
        opt_.blockRecords = 1;
    // Both blocks are allocated before the thread starts, so the producer
    // only ever writes record payloads — no allocation races with next().
    slots_[0].buf.resize(opt_.blockRecords);
    slots_[1].buf.resize(opt_.blockRecords);
    producer_ = std::thread([this] { produce(); });
}

BlockPipeline::~BlockPipeline()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    producer_.join();
}

void
BlockPipeline::produce()
{
    uint64_t produced = 0;
    size_t idx = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [&] { return stop_ || !slots_[idx].full; });
            if (stop_)
                return;
        }
        // Never request past the cap: a bounded pipeline must not drain a
        // shared source further than record-at-a-time consumption would.
        size_t want = opt_.blockRecords;
        if (opt_.maxRecords) {
            uint64_t remaining = opt_.maxRecords - produced;
            if (remaining < want)
                want = static_cast<size_t>(remaining);
        }
        size_t n = 0;
        std::exception_ptr error;
        if (want > 0) {
            try {
                n = src_.nextBatch(slots_[idx].buf.data(), want);
            } catch (...) {
                error = std::current_exception();
            }
        }
        if (error) {
            // Published only after the handler has ended: the end of a
            // handler touches the exception object, so doing it under
            // the lock would race the consumer's rethrow once the lock
            // is released.
            std::lock_guard<std::mutex> lock(mutex_);
            error_ = std::move(error);
            eof_ = true;
            cv_.notify_all();
            return;
        }
        produced += n;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stop_)
                return;
            if (n == 0) {
                eof_ = true;
                cv_.notify_all();
                return;
            }
            slots_[idx].count = n;
            slots_[idx].full = true;
            if (opt_.maxRecords && produced >= opt_.maxRecords)
                eof_ = true;
            cv_.notify_all();
            if (eof_)
                return;
        }
        idx ^= 1;
    }
}

size_t
BlockPipeline::next(const TraceRecord **records)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (outstanding_) {
        // Release the block handed out by the previous call; the producer
        // may refill it now.
        slots_[consumeIdx_].full = false;
        consumeIdx_ ^= 1;
        outstanding_ = false;
        cv_.notify_all();
    }
    cv_.wait(lock, [&] {
        return slots_[consumeIdx_].full || eof_ || error_;
    });
    if (slots_[consumeIdx_].full) {
        // Drain remaining full blocks even after eof/error was flagged.
        outstanding_ = true;
        *records = slots_[consumeIdx_].buf.data();
        return slots_[consumeIdx_].count;
    }
    if (error_) {
        std::exception_ptr e = error_;
        error_ = nullptr;
        std::rethrow_exception(e);
    }
    return 0;
}

} // namespace trace
} // namespace paragraph
