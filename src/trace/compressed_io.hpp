/**
 * @file
 * Compressed binary trace format (version 2).
 *
 * The fixed-size format of file_io.hpp costs 48 bytes per record; real
 * trace files of 100M instructions (the paper's scale) would be ~5 GB.
 * This format exploits trace structure the way Pixie-era tools did:
 *
 *  - one tag byte packs the operation class and all flags;
 *  - a second byte packs operand counts, the last-use mask, and the
 *    destination kind;
 *  - program counters are delta-encoded (the common +1 case costs 0 bytes);
 *  - memory addresses are zigzag-delta encoded against the previous memory
 *    address (spatial locality makes most deltas 1-2 bytes);
 *  - registers cost one byte.
 *
 * Typical traces compress to ~4-7 bytes/record (see the ablation bench).
 */

#ifndef PARAGRAPH_TRACE_COMPRESSED_IO_HPP
#define PARAGRAPH_TRACE_COMPRESSED_IO_HPP

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "trace/record.hpp"
#include "trace/source.hpp"

namespace paragraph {
namespace trace {

constexpr uint32_t compressedTraceMagic = 0x5a525450; // "PTRZ"
constexpr uint32_t compressedTraceVersion = 2;

/** Streaming compressed trace writer. */
class CompressedTraceWriter
{
  public:
    explicit CompressedTraceWriter(const std::string &path);
    ~CompressedTraceWriter();

    CompressedTraceWriter(const CompressedTraceWriter &) = delete;
    CompressedTraceWriter &operator=(const CompressedTraceWriter &) = delete;

    void write(const TraceRecord &rec);
    uint64_t writeAll(TraceSource &src);

    /**
     * Finalize the header, flush, and close; throws FatalError if any of
     * those fail so a full disk never yields a silently short trace. The
     * destructor closes too but only warns on failure.
     */
    void close();

    uint64_t recordsWritten() const { return count_; }

    /** Bytes emitted so far (compression-ratio bookkeeping). */
    uint64_t bytesWritten() const { return bytes_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    uint64_t count_ = 0;
    uint64_t bytes_ = 0;
    uint64_t lastPc_ = 0;
    uint64_t lastMemAddr_ = 0;

    void writeHeader();
    void closeFile(bool throwOnError);
    void putByte(uint8_t b);
    void putVarint(uint64_t v);
    void putSignedVarint(int64_t v);
    void putOperand(const Operand &op);
};

/**
 * Replayable compressed trace reader. Decode errors (truncation, malformed
 * varints, bad tags, out-of-range operation classes) throw FatalError
 * naming the record index and byte offset where decoding stopped.
 *
 * The file is read kReadBufferBytes at a time into one owned buffer (not
 * mapped, so a file truncated under a reader stays a "truncated" error).
 * While the longest record encoding is buffered, nextBatch() decodes a
 * whole record with no per-byte bounds check; the file's last few bytes,
 * and any record the fast path finds malformed, are decoded again from
 * the record's first byte by the checked path, which raises the located
 * error.
 */
class CompressedTraceReader : public TraceSource
{
  public:
    /** Bytes read from the file per refill. */
    static constexpr size_t kReadBufferBytes = size_t{256} << 10;

    explicit CompressedTraceReader(const std::string &path);
    ~CompressedTraceReader() override;

    CompressedTraceReader(const CompressedTraceReader &) = delete;
    CompressedTraceReader &operator=(const CompressedTraceReader &) = delete;

    bool next(TraceRecord &rec) override;
    size_t nextBatch(TraceRecord *out, size_t max) override;
    void reset() override;
    std::string name() const override { return path_; }

    uint64_t recordCount() const { return count_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    uint64_t count_ = 0;
    uint64_t pos_ = 0;
    uint64_t lastPc_ = 0;
    uint64_t lastMemAddr_ = 0;

    std::unique_ptr<uint8_t[]> buf_;
    size_t head_ = 0;        ///< next unread byte of buf_
    size_t end_ = 0;         ///< end of the bytes read into buf_
    uint64_t bufOffset_ = 0; ///< file offset of buf_[0]
    bool eof_ = false;       ///< the last refill reached the end of file

    /** Move the unread bytes to the front of buf_ and read after them.
     *  @return false when no byte was added. */
    bool refill();

    /** Fast-path decode of records while a whole encoding is buffered;
     *  stops early at a record it finds malformed. */
    size_t decodeRun(TraceRecord *out, size_t max);

    /** Byte-at-a-time decode of one record; throws the located error. */
    void decodeChecked(TraceRecord &rec);

    /** File offset of the next unread byte. */
    uint64_t offset() const { return bufOffset_ + head_; }

    uint8_t getByte();
    uint64_t getVarint();
    int64_t getSignedVarint();
    Operand getOperand();
};

/**
 * Open a trace file of either format by inspecting its magic.
 * @return a replayable TraceSource: a CompressedTraceReader for a `.ptrz`,
 *         and for a `.ptrc` a SharedDecodeSource over a private, uncapped
 *         pool, whose open verifies the payload CRC (shared_decode.hpp).
 */
std::unique_ptr<TraceSource> openTraceFile(const std::string &path);

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_COMPRESSED_IO_HPP
