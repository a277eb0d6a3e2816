/**
 * @file
 * SharedDecodePool: a mapped `.ptrc` served in place as record blocks.
 *
 * A record on disk is a TraceRecord (record.hpp), so a mapped payload is
 * already the record array the placement loop reads: there is nothing to
 * decode and nothing to cache. The pool hands out 64K-record blocks as
 * spans into the mapping, and checks each block once with the SIMD range
 * scan (validate.hpp). Every fused group and solo cell over one input
 * shares one mapping and one set of checks; the kernel page cache holds
 * the bytes. The pool is the only way a `.ptrc` is read: block consumers
 * walk it with a SharedDecodeCursor, and sequential ones (the `paragraph`
 * CLI, openTraceFile(), TraceRepository::makeSource()) read it through a
 * SharedDecodeSource.
 *
 * Integrity, one rule: a pool that serves the whole payload verifies the
 * v2 payload CRC once at construction, before any record is served — a
 * damaged payload never yields a record, whoever reads it and however far.
 * That pass range-checks each block right after checksumming it, while its
 * bytes are in cache, so an uncapped stream reads the payload from memory
 * once for both checks. A capped pool skips the CRC, which covers records
 * it never serves.
 *
 * A block the pass did not find valid (or every block, in a capped pool)
 * is checked on its first touch: one consumer checks it while any others
 * touching it at that moment wait for the verdict. A corrupt block throws
 * the located error (record index, byte offset) to its checker; it stays
 * unchecked, so each waiter, and any later retry, checks it again and gets
 * the same error.
 */

#ifndef PARAGRAPH_TRACE_SHARED_DECODE_HPP
#define PARAGRAPH_TRACE_SHARED_DECODE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "trace/block_source.hpp"
#include "trace/mmap_io.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace paragraph {
namespace trace {

class SharedDecodePool
{
  public:
    struct Options
    {
        /** Records per block (matches the fused block-major granule). */
        size_t blockRecords = 65536;

        /** Serve only the first maxRecords records; 0 = whole trace.
         *  Records past the cap are never checked. */
        uint64_t maxRecords = 0;

        /** Verify the v2 payload CRC at construction, checking every
         *  block in the same pass, when the pool serves the whole payload
         *  (a capped pool never does: the CRC covers records it does not
         *  serve). false skips it, for a caller that times it apart. */
        bool verifyPayload = true;
    };

    SharedDecodePool(std::shared_ptr<const MmapTraceFile> file, Options opt);

    SharedDecodePool(const SharedDecodePool &) = delete;
    SharedDecodePool &operator=(const SharedDecodePool &) = delete;

    /** Records served (header count clipped by Options::maxRecords). */
    uint64_t recordCount() const { return count_; }

    size_t blockRecords() const { return opt_.blockRecords; }
    size_t blockCount() const;
    const MmapTraceFile &file() const { return *file_; }
    std::string name() const { return file_->path(); }

    /**
     * The records of block @p index, in place in the mapping (valid as
     * long as the pool lives), checked on the block's first touch. Throws
     * the located FatalError of a corrupt block, or the truncation error
     * of a block past the file's bytes, on every call that reaches it.
     */
    std::span<const TraceRecord> block(size_t index);

    /** True when construction verified the v2 payload CRC, which it does
     *  only for a pool serving every record: the header's payload CRC is
     *  then the CRC of exactly the records served. */
    bool payloadVerified() const { return payloadVerified_; }

    /** Blocks checked and found valid, each counted once (in the payload
     *  checksum pass or on first touch). */
    uint64_t blocksDecoded() const
    {
        return blocksChecked_.load(std::memory_order_relaxed);
    }

  private:
    enum : uint8_t { kUnchecked, kChecking, kValid };

    std::shared_ptr<const MmapTraceFile> file_;
    Options opt_;
    uint64_t count_ = 0;
    bool payloadVerified_ = false;
    std::unique_ptr<std::atomic<uint8_t>[]> state_; ///< per block
    std::atomic<uint64_t> blocksChecked_{0};
};

/**
 * BlockSource view of a pool: hands out whole blocks in order. Many
 * cursors can walk the same pool concurrently; the first one to reach an
 * unchecked block checks it for all.
 */
class SharedDecodeCursor : public BlockSource
{
  public:
    explicit SharedDecodeCursor(std::shared_ptr<SharedDecodePool> pool)
        : pool_(std::move(pool))
    {
    }

    size_t next(const TraceRecord **records) override;

    void reset() { nextBlock_ = 0; }

  private:
    std::shared_ptr<SharedDecodePool> pool_;
    size_t nextBlock_ = 0;
};

/**
 * TraceSource view of a pool, for sequential consumers: copies the pool's
 * records out in order, block by block. name() is the trace's path, and
 * reset() replays from block 0.
 */
class SharedDecodeSource : public TraceSource
{
  public:
    explicit SharedDecodeSource(std::shared_ptr<SharedDecodePool> pool)
        : pool_(std::move(pool))
    {
    }

    bool next(TraceRecord &rec) override { return nextBatch(&rec, 1) == 1; }
    size_t nextBatch(TraceRecord *out, size_t max) override;
    void reset() override;
    std::string name() const override { return pool_->name(); }

  private:
    std::shared_ptr<SharedDecodePool> pool_;
    size_t nextBlock_ = 0;
    std::span<const TraceRecord> pending_; ///< unread rest of a block
};

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_SHARED_DECODE_HPP
