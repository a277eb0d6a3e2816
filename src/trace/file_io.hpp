/**
 * @file
 * Binary trace file format: the `.ptrc` layout and its writer.
 *
 * Layout: a 24-byte header (magic "PTRC", version, record count, checksums)
 * followed by fixed-size little-endian records. The format exists so traces
 * can be captured once (e.g. from a slow source) and re-analyzed offline,
 * the same role Pixie output files played for Paragraph.
 *
 * Format v2 hardens ingestion against on-disk corruption: the header
 * carries a CRC-32 of itself plus a CRC-32 of the whole record payload,
 * and every record's class/operand-kind/segment/source-count fields are
 * range-checked before it is read — a flipped byte in a multi-GB capture
 * becomes a FatalError naming the record index and byte offset, never
 * silent corruption. v1 files (checksum words zero) still read, with a
 * warning that integrity cannot be verified. The one reader is the mapped
 * one (mmap_io.hpp), served through a SharedDecodePool (shared_decode.hpp),
 * whose open verifies the payload CRC.
 *
 * A record on disk is a TraceRecord byte for byte (record.hpp pins the
 * layout), so reading and writing copy record bytes with no conversion.
 */

#ifndef PARAGRAPH_TRACE_FILE_IO_HPP
#define PARAGRAPH_TRACE_FILE_IO_HPP

#include <cstdint>
#include <cstdio>
#include <string>

#include "trace/buffer.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace paragraph {
namespace trace {

/** The on-disk record: TraceRecord itself, 48 bytes in format v2. */
using PackedRecord = TraceRecord;

constexpr uint32_t traceFileMagic = 0x43525450; // "PTRC"
constexpr uint32_t traceFileVersion = 2;

/**
 * On-disk file header (24 bytes, little-endian). v1 wrote zeros in the
 * two checksum words (then a single reserved field); v2 fills them in.
 */
struct TraceFileHeader
{
    uint32_t magic;
    uint32_t version;
    uint64_t count;
    uint32_t payloadCrc; ///< v2: CRC-32 of all record bytes, in file order
    uint32_t headerCrc;  ///< v2: CRC-32 of the 20 bytes preceding this field
};

static_assert(sizeof(TraceFileHeader) == 24, "header layout is on disk");

/** CRC-32 of a header's first 20 bytes (everything before headerCrc). */
uint32_t traceHeaderCrc(const TraceFileHeader &hdr);

/** Byte offset of record @p index in a trace file. */
constexpr uint64_t
recordOffset(uint64_t index)
{
    return sizeof(TraceFileHeader) + index * sizeof(TraceRecord);
}

/** Streaming trace file writer. */
class TraceFileWriter
{
  public:
    /** Open @p path for writing; throws FatalError on failure. */
    explicit TraceFileWriter(const std::string &path);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Append one record. */
    void write(const TraceRecord &rec);

    /** Append @p n records. */
    void write(const TraceRecord *recs, size_t n);

    /** Drain @p src into the file; returns records written. */
    uint64_t writeAll(TraceSource &src);

    /**
     * Finalize the header (count + checksums), flush, and close; throws
     * FatalError if any of those fail, so a full disk can never produce a
     * silently short trace. The destructor also closes but only warns on
     * failure (destructors must not throw).
     */
    void close();

    uint64_t recordsWritten() const { return count_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    uint64_t count_ = 0;
    uint32_t payloadCrc_ = 0;

    void writeHeader();
    void closeFile(bool throwOnError);
};

/**
 * CRC-32 of @p buffer's record bytes — the same
 * value a TraceFileWriter draining the buffer would put in the header's
 * payloadCrc field. This is the trace half of the (trace CRC-32, config
 * key) content address the paragraph-serve result cache is keyed by: it
 * identifies the analyzed records themselves, independent of whether they
 * came from a file, a simulation, or a bundled workload.
 */
uint32_t traceBufferCrc(const TraceBuffer &buffer);

/**
 * traceBufferCrc() of the capture of @p src (drained from its current
 * point to its end) without the capture: each block of records is
 * checksummed in turn, so memory stays O(block) for any trace length.
 */
uint32_t traceSourceCrc(TraceSource &src);

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_FILE_IO_HPP
