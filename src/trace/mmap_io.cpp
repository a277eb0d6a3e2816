#include "trace/mmap_io.hpp"

#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/crc32.hpp"
#include "support/failpoint.hpp"
#include "support/panic.hpp"
#include "trace/validate.hpp"

namespace paragraph {
namespace trace {

namespace {

FileIdentity
identityOf(const struct stat &st)
{
    FileIdentity id;
    id.device = static_cast<uint64_t>(st.st_dev);
    id.inode = static_cast<uint64_t>(st.st_ino);
    id.size = static_cast<uint64_t>(st.st_size);
    id.mtimeNs = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                 st.st_mtim.tv_nsec;
    return id;
}

[[noreturn]] void
throwTruncated(const std::string &path, uint64_t index)
{
    PARA_FATAL("trace file truncated: %s (record %llu at offset %llu)",
               path.c_str(), static_cast<unsigned long long>(index),
               static_cast<unsigned long long>(recordOffset(index)));
}

/** Validate a `.ptrc` header read from @p path: the one header parser. */
void
checkHeader(const TraceFileHeader &hdr, const std::string &path)
{
    if (hdr.magic != traceFileMagic)
        PARA_FATAL("bad trace file magic in %s", path.c_str());
    if (hdr.version < 1 || hdr.version > traceFileVersion)
        PARA_FATAL("unsupported trace file version %u in %s", hdr.version,
                   path.c_str());
    if (hdr.version >= 2) {
        uint32_t expect = traceHeaderCrc(hdr);
        if (hdr.headerCrc != expect) {
            PARA_FATAL("trace file header checksum mismatch in %s "
                       "(stored %08x, computed %08x); header is corrupt",
                       path.c_str(), hdr.headerCrc, expect);
        }
    } else {
        PARA_WARN("trace file %s is format v1: no checksums, integrity "
                  "cannot be verified",
                  path.c_str());
    }
}

} // namespace

std::optional<FileIdentity>
fileIdentity(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return std::nullopt;
    return identityOf(st);
}

MmapTraceFile::MmapTraceFile(const std::string &path) : path_(path)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        PARA_FATAL("cannot open trace file: %s", path.c_str());

    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        PARA_FATAL("cannot open trace file: %s", path.c_str());
    }
    identity_ = identityOf(st);
    size_t size = static_cast<size_t>(st.st_size);
    if (size < sizeof(TraceFileHeader)) {
        ::close(fd);
        PARA_FATAL("trace file too short: %s", path.c_str());
    }

    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference to the file
    if (PARA_FAILPOINT("trace.mmap.map") && map != MAP_FAILED) {
        // Simulated ENOMEM: release the real mapping and take the same
        // branch a genuine mmap failure would.
        ::munmap(map, size);
        map = MAP_FAILED;
    }
    if (map == MAP_FAILED)
        PARA_FATAL("cannot mmap trace file: %s", path.c_str());
    // A throwing constructor runs no destructor: unmap before a bad
    // header's error leaves.
    TraceFileHeader hdr;
    std::memcpy(&hdr, map, sizeof(hdr));
    try {
        checkHeader(hdr, path);
    } catch (...) {
        ::munmap(map, size);
        throw;
    }
    map_ = map;
    mapSize_ = size;
    version_ = hdr.version;
    count_ = hdr.count;
    payloadCrc_ = hdr.payloadCrc;
    payload_ = static_cast<const uint8_t *>(map_) + sizeof(TraceFileHeader);
    uint64_t backed = (size - sizeof(TraceFileHeader)) / sizeof(TraceRecord);
    avail_ = backed < count_ ? backed : count_;
}

MmapTraceFile::~MmapTraceFile()
{
    if (map_)
        ::munmap(map_, mapSize_);
}

const TraceRecord *
MmapTraceFile::records(uint64_t first) const
{
    PARA_ASSERT(first <= avail_, "record index out of range");
    return reinterpret_cast<const TraceRecord *>(payload_) + first;
}

void
MmapTraceFile::validate(uint64_t first, size_t n) const
{
    if (first + n > avail_)
        throwTruncated(path_, avail_);
    validateRecords(records(first), n, path_, first);
}

void
MmapTraceFile::decode(uint64_t first, size_t n, TraceRecord *out) const
{
    if (n == 0)
        return;
    validate(first, n);
    std::memcpy(out, records(first), n * sizeof(TraceRecord));
}

void
MmapTraceFile::verifyPayload(
    size_t rangeRecords,
    const std::function<void(uint64_t, size_t)> &visit) const
{
    if (version_ < 2)
        return;
    if (avail_ < count_)
        throwTruncated(path_, avail_);
    PARA_ASSERT(!visit || rangeRecords > 0, "zero verify range");
    constexpr size_t kRecord = sizeof(TraceRecord);
    uint32_t crc = crc32Parallel(
        payload_, count_ * kRecord,
        visit ? rangeRecords * kRecord : crc32ChunkBytes,
        [&](size_t offset, size_t len) {
            if (visit)
                visit(offset / kRecord, len / kRecord);
        });
    if (PARA_FAILPOINT("trace.mmap.crc"))
        crc ^= 1; // simulated flipped payload bit
    if (crc != payloadCrc_) {
        PARA_FATAL("trace file payload checksum mismatch in %s "
                   "(stored %08x, computed %08x over %llu records); "
                   "trace is corrupt",
                   path_.c_str(), payloadCrc_, crc,
                   static_cast<unsigned long long>(count_));
    }
}

} // namespace trace
} // namespace paragraph
