/**
 * @file
 * Memory-mapped `.ptrc` trace access: records in place, zero read syscalls.
 *
 * MmapTraceFile is the one `.ptrc` reader: it maps the file once and
 * parses and validates its header (the only place a `.ptrc` header is
 * parsed). A record on disk is a TraceRecord, so the mapped payload is the
 * record array itself: readers validate a range (validate.hpp) and then
 * read it in place. Every consumer goes through a SharedDecodePool
 * (shared_decode.hpp) over the mapping, which checks the payload CRC and
 * the record ranges; the kernel page cache shares the mapped bytes across
 * every pool, cursor, and process touching the trace.
 *
 * FileIdentity names which file a path held when it was read: a mapping
 * keeps the one it opened, so a holder that outlives the file on disk
 * compares it with fileIdentity() of the path to notice a replacement,
 * rewrite, truncation or deletion.
 */

#ifndef PARAGRAPH_TRACE_MMAP_IO_HPP
#define PARAGRAPH_TRACE_MMAP_IO_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "trace/file_io.hpp"
#include "trace/record.hpp"

namespace paragraph {
namespace trace {

/** (st_dev, st_ino, st_size, st_mtim) of a file: a replaced file changes
 *  its inode, a rewritten or truncated one its size or mtime. */
struct FileIdentity
{
    uint64_t device = 0;
    uint64_t inode = 0;
    uint64_t size = 0;
    int64_t mtimeNs = 0;

    bool operator==(const FileIdentity &) const = default;
};

/** The identity of the file at @p path now; nullopt if it cannot be
 *  stat()ed (missing, unreadable directory). */
std::optional<FileIdentity> fileIdentity(const std::string &path);

class MmapTraceFile
{
  public:
    /**
     * Map @p path read-only and validate its header. Throws FatalError, in
     * this order, for a file that cannot be opened, one too short for a
     * header, one that cannot be mapped ("cannot mmap trace file: <path>"),
     * a bad magic, an unsupported version and a v2 header-CRC mismatch;
     * warns that a v1 file's integrity cannot be verified.
     */
    explicit MmapTraceFile(const std::string &path);
    ~MmapTraceFile();

    MmapTraceFile(const MmapTraceFile &) = delete;
    MmapTraceFile &operator=(const MmapTraceFile &) = delete;

    /** Records promised by the header. */
    uint64_t recordCount() const { return count_; }

    /** Records actually backed by file bytes (less when truncated). */
    uint64_t availableRecords() const { return avail_; }

    uint32_t formatVersion() const { return version_; }
    const std::string &path() const { return path_; }

    /** The identity of the file mapped, from the fstat() of the
     *  descriptor the mapping was made from. */
    const FileIdentity &identity() const { return identity_; }

    /** The mapped records from @p first on (<= availableRecords()),
     *  unvalidated: validate() a range before reading it. */
    const TraceRecord *records(uint64_t first = 0) const;

    /**
     * Check records [@p first, @p first + @p n): throws the truncation
     * FatalError ("trace file truncated: <path> (record <i> at offset
     * <o>)") if the range runs past the mapped bytes, and the located
     * error of the first corrupt record in it.
     */
    void validate(uint64_t first, size_t n) const;

    /** validate() records [@p first, @p first + @p n), then copy them
     *  into @p out. */
    void decode(uint64_t first, size_t n, TraceRecord *out) const;

    /**
     * CRC-32 the whole payload against the header's stored value (v2).
     * Throws the truncation error when the payload is short, and the
     * payload-mismatch FatalError on disagreement; no-op for v1 files.
     * The payload is checksummed in 8 MiB chunks on up to
     * hardware_concurrency() threads (crc32Parallel), joined before return.
     * With @p visit, the chunks are runs of @p rangeRecords records, and
     * the checksum threads hand every run to @p visit (first record,
     * record count) right after checksumming it, while its bytes are in
     * cache; @p visit runs concurrently and must not throw.
     */
    void verifyPayload(
        size_t rangeRecords = 0,
        const std::function<void(uint64_t, size_t)> &visit = {}) const;

    uint32_t storedPayloadCrc() const { return payloadCrc_; }

  private:
    std::string path_;
    void *map_ = nullptr;
    size_t mapSize_ = 0;
    const uint8_t *payload_ = nullptr;
    uint64_t count_ = 0;
    uint64_t avail_ = 0;
    uint32_t version_ = traceFileVersion;
    uint32_t payloadCrc_ = 0;
    FileIdentity identity_;
};

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_MMAP_IO_HPP
