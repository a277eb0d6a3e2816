#include "trace/file_io.hpp"

#include <cstddef>

#include "support/crc32.hpp"
#include "support/failpoint.hpp"
#include "support/panic.hpp"

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
