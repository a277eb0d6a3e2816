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
 * the bytes.
 *
 * Integrity: the pool verifies the v2 payload CRC over the mapped bytes
 * once at construction — eager, unlike the sequential reader's check at
 * end-of-stream, because random-access consumers may legitimately never
 * read the final block. The error text matches TraceFileReader's. That
 * pass range-checks each block right after checksumming it, while its
 * bytes are in cache, so an uncapped stream reads the payload from memory
 * once for both checks.
 *
 * A block the pass did not find valid (or every block, in a capped pool,
 * which skips the payload CRC) is checked on its first touch: one consumer
 * checks it while any others touching it at that moment wait for the
 * verdict. A corrupt block throws the located error (record index, byte
 * offset) to its checker; it stays unchecked, so each waiter, and any
 * later retry, checks it again and gets the same error.
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

        /** Verify the v2 payload CRC eagerly at construction, checking
         *  every block in the same pass. */
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

    /** True when construction verified the v2 payload CRC and the pool
     *  serves every record it covers: the header's payload CRC is then
     *  the CRC of exactly the records served. */
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

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_SHARED_DECODE_HPP
