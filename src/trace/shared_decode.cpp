#include "trace/shared_decode.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#include "support/failpoint.hpp"
#include "support/panic.hpp"
#include "trace/validate.hpp"

namespace paragraph {
namespace trace {

SharedDecodePool::SharedDecodePool(std::shared_ptr<const MmapTraceFile> file,
                                   Options opt)
    : file_(std::move(file)), opt_(opt)
{
    PARA_ASSERT(opt_.blockRecords > 0, "zero block size");
    count_ = file_->recordCount();
    if (opt_.maxRecords != 0 && opt_.maxRecords < count_)
        count_ = opt_.maxRecords;
    state_ = std::make_unique<std::atomic<uint8_t>[]>(blockCount());
    // The one payload-CRC rule: a pool serving the whole payload verifies
    // it here, before any record is served; a capped pool checks only the
    // blocks it serves, on first touch.
    if (!opt_.verifyPayload || count_ != file_->recordCount())
        return;
    // The checksum pass reads every byte anyway: range-check each block
    // right after its bytes are checksummed, on the same threads, so an
    // uncapped stream makes one pass over memory, not two. A block that
    // fails stays unchecked, so its first touch throws the located error.
    file_->verifyPayload(opt_.blockRecords, [this](uint64_t first, size_t n) {
        const size_t index = static_cast<size_t>(first / opt_.blockRecords);
        if (packedRecordsValid(file_->records(first), n)) {
            state_[index].store(kValid, std::memory_order_relaxed);
            blocksChecked_.fetch_add(1, std::memory_order_relaxed);
        }
    });
    payloadVerified_ = file_->formatVersion() >= 2;
}

size_t
SharedDecodePool::blockCount() const
{
    return static_cast<size_t>((count_ + opt_.blockRecords - 1) /
                               opt_.blockRecords);
}

std::span<const TraceRecord>
SharedDecodePool::block(size_t index)
{
    PARA_ASSERT(index < blockCount(), "block index out of range");
    const uint64_t first = static_cast<uint64_t>(index) * opt_.blockRecords;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(opt_.blockRecords, count_ - first));
    if (PARA_FAILPOINT("trace.decode.block"))
        throw std::bad_alloc(); // simulated failure to serve the block
    std::atomic<uint8_t> &state = state_[index];
    uint8_t seen = state.load(std::memory_order_acquire);
    while (seen != kValid) {
        if (seen == kChecking) {
            state.wait(kChecking, std::memory_order_acquire);
            seen = state.load(std::memory_order_acquire);
            continue;
        }
        // First touch: whoever claims the block checks it for everyone.
        if (!state.compare_exchange_weak(seen, kChecking,
                                         std::memory_order_acquire))
            continue;
        try {
            file_->validate(first, n);
        } catch (...) {
            state.store(kUnchecked, std::memory_order_release);
            state.notify_all();
            throw;
        }
        blocksChecked_.fetch_add(1, std::memory_order_relaxed);
        state.store(kValid, std::memory_order_release);
        state.notify_all();
        break;
    }
    return {file_->records(first), n};
}

size_t
SharedDecodeCursor::next(const TraceRecord **records)
{
    if (nextBlock_ >= pool_->blockCount()) {
        *records = nullptr;
        return 0;
    }
    std::span<const TraceRecord> block = pool_->block(nextBlock_++);
    *records = block.data();
    return block.size();
}

size_t
SharedDecodeSource::nextBatch(TraceRecord *out, size_t max)
{
    size_t n = 0;
    while (n < max) {
        if (pending_.empty()) {
            if (nextBlock_ == pool_->blockCount())
                break;
            pending_ = pool_->block(nextBlock_++);
        }
        const size_t take = std::min(max - n, pending_.size());
        std::memcpy(out + n, pending_.data(), take * sizeof(TraceRecord));
        pending_ = pending_.subspan(take);
        n += take;
    }
    return n;
}

void
SharedDecodeSource::reset()
{
    nextBlock_ = 0;
    pending_ = {};
}

} // namespace trace
} // namespace paragraph
