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

} // namespace

std::optional<FileIdentity>
fileIdentity(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return std::nullopt;
    return identityOf(st);
}

MmapTraceFile::MmapTraceFile(const std::string &path)
{
    open(path, /*throwOnMapFailure=*/true);
}

std::shared_ptr<MmapTraceFile>
MmapTraceFile::tryOpen(const std::string &path)
{
    // Probe readability first so a genuinely missing file throws the
    // reader's "cannot open" error instead of silently falling back.
    std::shared_ptr<MmapTraceFile> file(new MmapTraceFile());
    if (!file->open(path, /*throwOnMapFailure=*/false))
        return nullptr;
    return file;
}

bool
MmapTraceFile::open(const std::string &path, bool throwOnMapFailure)
{
    path_ = path;
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
    if (map == MAP_FAILED) {
        if (throwOnMapFailure)
            PARA_FATAL("cannot mmap trace file: %s", path.c_str());
        return false;
    }
    map_ = map;
    mapSize_ = size;

    TraceFileHeader hdr;
    std::memcpy(&hdr, map_, sizeof(hdr));
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
    version_ = hdr.version;
    count_ = hdr.count;
    payloadCrc_ = hdr.payloadCrc;
    payload_ = static_cast<const uint8_t *>(map_) + sizeof(TraceFileHeader);
    uint64_t backed = (size - sizeof(TraceFileHeader)) / sizeof(TraceRecord);
    avail_ = backed < count_ ? backed : count_;
    return true;
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

uint32_t
MmapTraceFile::crcRange(uint64_t first, uint64_t n, uint32_t crc) const
{
    PARA_ASSERT(first + n <= avail_, "crc range out of bounds");
    return crc32Update(crc, records(first), n * sizeof(TraceRecord));
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

bool
MmapTraceSource::next(TraceRecord &rec)
{
    return nextBatch(&rec, 1) == 1;
}

size_t
MmapTraceSource::nextBatch(TraceRecord *out, size_t max)
{
    uint64_t count = file_->recordCount();
    if (pos_ >= count || max == 0)
        return 0;
    uint64_t remaining = count - pos_;
    size_t n = remaining < max ? static_cast<size_t>(remaining) : max;
    // Past-the-bytes reads throw the reader's truncation error.
    file_->decode(pos_, n, out);
    if (file_->formatVersion() >= 2)
        runningCrc_ = file_->crcRange(pos_, n, runningCrc_);
    pos_ += n;
    if (file_->formatVersion() >= 2 && pos_ == count &&
        runningCrc_ != file_->storedPayloadCrc()) {
        PARA_FATAL("trace file payload checksum mismatch in %s "
                   "(stored %08x, computed %08x over %llu records); "
                   "trace is corrupt",
                   file_->path().c_str(), file_->storedPayloadCrc(),
                   runningCrc_, static_cast<unsigned long long>(count));
    }
    return n;
}

void
MmapTraceSource::reset()
{
    pos_ = 0;
    runningCrc_ = 0;
}

} // namespace trace
} // namespace paragraph
