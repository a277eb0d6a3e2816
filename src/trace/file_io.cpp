#include "trace/file_io.hpp"

#include <cstddef>

#include "support/crc32.hpp"
#include "support/failpoint.hpp"
#include "support/panic.hpp"
#include "trace/validate.hpp"

namespace paragraph {
namespace trace {

uint32_t
traceHeaderCrc(const TraceFileHeader &hdr)
{
    return crc32Of(&hdr, offsetof(TraceFileHeader, headerCrc));
}

TraceFileWriter::TraceFileWriter(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        PARA_FATAL("cannot open trace file for writing: %s", path.c_str());
    writeHeader();
}

TraceFileWriter::~TraceFileWriter()
{
    closeFile(false);
}

void
TraceFileWriter::writeHeader()
{
    TraceFileHeader hdr{traceFileMagic, traceFileVersion, count_,
                        payloadCrc_, 0};
    hdr.headerCrc = traceHeaderCrc(hdr);
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(&hdr, sizeof(hdr), 1, file_) != 1) {
        PARA_FATAL("trace file header write failed: %s", path_.c_str());
    }
}

void
TraceFileWriter::write(const TraceRecord &rec)
{
    write(&rec, 1);
}

void
TraceFileWriter::write(const TraceRecord *recs, size_t n)
{
    PARA_ASSERT(file_, "write after close");
    if (PARA_FAILPOINT("trace.file.write") ||
        std::fwrite(recs, sizeof(TraceRecord), n, file_) != n)
        PARA_FATAL("trace file record write failed: %s", path_.c_str());
    payloadCrc_ = crc32Update(payloadCrc_, recs, n * sizeof(TraceRecord));
    count_ += n;
}

uint64_t
TraceFileWriter::writeAll(TraceSource &src)
{
    SourceBlocks blocks(src, kSourceBlockRecords);
    const TraceRecord *block = nullptr;
    uint64_t n = 0;
    while (size_t got = blocks.next(&block)) {
        write(block, got);
        n += got;
    }
    return n;
}

void
TraceFileWriter::close()
{
    closeFile(true);
}

void
TraceFileWriter::closeFile(bool throwOnError)
{
    if (!file_)
        return;
    std::FILE *f = file_;
    file_ = nullptr;

    // Finalize the header, then check the flush and close results: buffered
    // stdio reports a full disk only here, and dropping that would leave a
    // silently short or checksum-less trace on disk.
    const char *err = nullptr;
    TraceFileHeader hdr{traceFileMagic, traceFileVersion, count_,
                        payloadCrc_, 0};
    hdr.headerCrc = traceHeaderCrc(hdr);
    if (std::fseek(f, 0, SEEK_SET) != 0 ||
        std::fwrite(&hdr, sizeof(hdr), 1, f) != 1) {
        err = "trace file header write failed";
    }
    if (!err && std::fflush(f) != 0)
        err = "trace file flush failed";
    if (std::fclose(f) != 0 && !err)
        err = "trace file close failed";
    if (err) {
        if (throwOnError)
            PARA_FATAL("%s: %s", err, path_.c_str());
        PARA_WARN("%s: %s (in destructor; trace is incomplete)", err,
                  path_.c_str());
    }
}

TraceFileReader::TraceFileReader(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        PARA_FATAL("cannot open trace file: %s", path.c_str());
    TraceFileHeader hdr;
    if (std::fread(&hdr, sizeof(hdr), 1, file_) != 1) {
        std::fclose(file_);
        file_ = nullptr;
        PARA_FATAL("trace file too short: %s", path.c_str());
    }
    if (hdr.magic != traceFileMagic) {
        std::fclose(file_);
        file_ = nullptr;
        PARA_FATAL("bad trace file magic in %s", path.c_str());
    }
    if (hdr.version < 1 || hdr.version > traceFileVersion) {
        std::fclose(file_);
        file_ = nullptr;
        PARA_FATAL("unsupported trace file version %u in %s", hdr.version,
                   path.c_str());
    }
    if (hdr.version >= 2) {
        uint32_t expect = traceHeaderCrc(hdr);
        if (hdr.headerCrc != expect) {
            std::fclose(file_);
            file_ = nullptr;
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
    expectedPayloadCrc_ = hdr.payloadCrc;
}

TraceFileReader::~TraceFileReader()
{
    if (file_)
        std::fclose(file_);
}

bool
TraceFileReader::next(TraceRecord &rec)
{
    if (pos_ >= count_)
        return false;
    if (PARA_FAILPOINT("trace.file.read") ||
        std::fread(&rec, sizeof(rec), 1, file_) != 1) {
        PARA_FATAL("trace file truncated: %s (record %llu at offset %llu)",
                   path_.c_str(), static_cast<unsigned long long>(pos_),
                   static_cast<unsigned long long>(recordOffset(pos_)));
    }
    validateRecords(&rec, 1, path_, pos_);
    if (version_ >= 2)
        runningCrc_ = crc32Update(runningCrc_, &rec, sizeof(rec));
    ++pos_;
    if (version_ >= 2 && pos_ == count_ &&
        runningCrc_ != expectedPayloadCrc_) {
        PARA_FATAL("trace file payload checksum mismatch in %s "
                   "(stored %08x, computed %08x over %llu records); "
                   "trace is corrupt",
                   path_.c_str(), expectedPayloadCrc_, runningCrc_,
                   static_cast<unsigned long long>(count_));
    }
    return true;
}

void
TraceFileReader::reset()
{
    PARA_ASSERT(file_, "reset on closed reader");
    if (std::fseek(file_, sizeof(TraceFileHeader), SEEK_SET) != 0)
        PARA_FATAL("trace file seek failed: %s", path_.c_str());
    pos_ = 0;
    runningCrc_ = 0;
}

uint32_t
traceBufferCrc(const TraceBuffer &buffer)
{
    return crc32Update(0, buffer.records().data(),
                       buffer.size() * sizeof(TraceRecord));
}

uint32_t
traceSourceCrc(TraceSource &src)
{
    SourceBlocks blocks(src, kSourceBlockRecords);
    const TraceRecord *block = nullptr;
    uint32_t crc = 0;
    while (size_t n = blocks.next(&block))
        crc = crc32Update(crc, block, n * sizeof(TraceRecord));
    return crc;
}

} // namespace trace
} // namespace paragraph
