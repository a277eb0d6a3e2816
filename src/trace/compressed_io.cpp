#include "trace/compressed_io.hpp"

#include <memory>

#include "support/panic.hpp"
#include "trace/file_io.hpp"
#include "trace/mmap_io.hpp"

namespace paragraph {
namespace trace {

namespace {

struct FileHeader
{
    uint32_t magic;
    uint32_t version;
    uint64_t count;
    uint64_t reserved;
};

// Operand tag values.
constexpr uint8_t tagIntReg = 0;
constexpr uint8_t tagFpReg = 1;
constexpr uint8_t tagMemData = 2;
constexpr uint8_t tagMemHeap = 3;
constexpr uint8_t tagMemStack = 4;

uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

int64_t
unzigzag(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

} // namespace

// --- Writer ----------------------------------------------------------------

CompressedTraceWriter::CompressedTraceWriter(const std::string &path)
    : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        PARA_FATAL("cannot open trace file for writing: %s", path.c_str());
    writeHeader();
}

CompressedTraceWriter::~CompressedTraceWriter()
{
    closeFile(false);
}

void
CompressedTraceWriter::writeHeader()
{
    FileHeader hdr{compressedTraceMagic, compressedTraceVersion, count_, 0};
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(&hdr, sizeof(hdr), 1, file_) != 1) {
        PARA_FATAL("trace file header write failed: %s", path_.c_str());
    }
}

void
CompressedTraceWriter::putByte(uint8_t b)
{
    if (std::fputc(b, file_) == EOF)
        PARA_FATAL("trace file write failed");
    ++bytes_;
}

void
CompressedTraceWriter::putVarint(uint64_t v)
{
    while (v >= 0x80) {
        putByte(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    putByte(static_cast<uint8_t>(v));
}

void
CompressedTraceWriter::putSignedVarint(int64_t v)
{
    putVarint(zigzag(v));
}

void
CompressedTraceWriter::putOperand(const Operand &op)
{
    switch (op.kind) {
      case Operand::Kind::IntReg:
        putByte(tagIntReg);
        putByte(static_cast<uint8_t>(op.id));
        return;
      case Operand::Kind::FpReg:
        putByte(tagFpReg);
        putByte(static_cast<uint8_t>(op.id));
        return;
      case Operand::Kind::Mem: {
        uint8_t tag = op.seg == Segment::Heap    ? tagMemHeap
                      : op.seg == Segment::Stack ? tagMemStack
                                                 : tagMemData;
        putByte(tag);
        putSignedVarint(static_cast<int64_t>(op.id) -
                        static_cast<int64_t>(lastMemAddr_));
        lastMemAddr_ = op.id;
        return;
      }
      default:
        PARA_PANIC("cannot encode an invalid operand");
    }
}

void
CompressedTraceWriter::write(const TraceRecord &rec)
{
    PARA_ASSERT(file_, "write after close");
    // The head byte is the class in the low nibble and the record's four
    // flag bits in the high one.
    uint8_t head = static_cast<uint8_t>(
        (static_cast<uint8_t>(rec.cls) & 0x0f) | (rec.flags << 4));
    bool pc_plus_one = rec.pc == lastPc_ + 1;
    const Operand dest = rec.dest();
    uint8_t dest_kind =
        !dest.valid()                           ? 0
        : dest.kind == Operand::Kind::IntReg    ? 1
        : dest.kind == Operand::Kind::FpReg     ? 2
                                                : 3;
    uint8_t ops = static_cast<uint8_t>(
        (rec.numSrcs & 0x03) | ((rec.lastUseMask & 0x07) << 2) |
        (dest_kind << 5) | (pc_plus_one ? 0x80 : 0));
    putByte(head);
    putByte(ops);
    if (!pc_plus_one) {
        putSignedVarint(static_cast<int64_t>(rec.pc) -
                        static_cast<int64_t>(lastPc_));
    }
    lastPc_ = rec.pc;
    for (int s = 0; s < rec.numSrcs; ++s)
        putOperand(rec.src(s));
    if (dest_kind == 1 || dest_kind == 2) {
        putByte(static_cast<uint8_t>(dest.id));
    } else if (dest_kind == 3) {
        putOperand(dest);
    }
    ++count_;
}

uint64_t
CompressedTraceWriter::writeAll(TraceSource &src)
{
    TraceRecord rec;
    uint64_t n = 0;
    while (src.next(rec)) {
        write(rec);
        ++n;
    }
    return n;
}

void
CompressedTraceWriter::close()
{
    closeFile(true);
}

void
CompressedTraceWriter::closeFile(bool throwOnError)
{
    if (!file_)
        return;
    std::FILE *f = file_;
    file_ = nullptr;

    FileHeader hdr{compressedTraceMagic, compressedTraceVersion, count_, 0};
    const char *err = nullptr;
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

// --- Reader ----------------------------------------------------------------

CompressedTraceReader::CompressedTraceReader(const std::string &path)
    : path_(path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        PARA_FATAL("cannot open trace file: %s", path.c_str());
    FileHeader hdr;
    if (std::fread(&hdr, sizeof(hdr), 1, file_) != 1) {
        std::fclose(file_);
        file_ = nullptr;
        PARA_FATAL("trace file too short: %s", path.c_str());
    }
    if (hdr.magic != compressedTraceMagic) {
        std::fclose(file_);
        file_ = nullptr;
        PARA_FATAL("bad compressed-trace magic in %s", path.c_str());
    }
    if (hdr.version != compressedTraceVersion) {
        std::fclose(file_);
        file_ = nullptr;
        PARA_FATAL("unsupported compressed-trace version %u in %s",
                   hdr.version, path.c_str());
    }
    count_ = hdr.count;
}

CompressedTraceReader::~CompressedTraceReader()
{
    if (file_)
        std::fclose(file_);
}

uint8_t
CompressedTraceReader::getByte()
{
    int c = std::fgetc(file_);
    if (c == EOF) {
        PARA_FATAL("trace file truncated: %s (record %llu at offset %llu)",
                   path_.c_str(), static_cast<unsigned long long>(pos_),
                   static_cast<unsigned long long>(std::ftell(file_)));
    }
    return static_cast<uint8_t>(c);
}

uint64_t
CompressedTraceReader::getVarint()
{
    uint64_t v = 0;
    int shift = 0;
    while (true) {
        uint8_t b = getByte();
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        if (shift > 63) {
            PARA_FATAL("malformed varint in %s (record %llu at offset %llu)",
                       path_.c_str(), static_cast<unsigned long long>(pos_),
                       static_cast<unsigned long long>(std::ftell(file_)));
        }
    }
}

int64_t
CompressedTraceReader::getSignedVarint()
{
    return unzigzag(getVarint());
}

Operand
CompressedTraceReader::getOperand()
{
    uint8_t tag = getByte();
    switch (tag) {
      case tagIntReg:
        return Operand::intReg(getByte());
      case tagFpReg:
        return Operand::fpReg(getByte());
      case tagMemData:
      case tagMemHeap:
      case tagMemStack: {
        uint64_t addr = static_cast<uint64_t>(
            static_cast<int64_t>(lastMemAddr_) + getSignedVarint());
        lastMemAddr_ = addr;
        Segment seg = tag == tagMemHeap    ? Segment::Heap
                      : tag == tagMemStack ? Segment::Stack
                                           : Segment::Data;
        return Operand::mem(addr, seg);
      }
      default:
        PARA_FATAL("bad operand tag %u in %s (record %llu at offset %llu)",
                   tag, path_.c_str(), static_cast<unsigned long long>(pos_),
                   static_cast<unsigned long long>(std::ftell(file_) - 1));
    }
}

bool
CompressedTraceReader::next(TraceRecord &rec)
{
    if (pos_ >= count_)
        return false;
    rec = TraceRecord{};
    uint8_t head = getByte();
    if ((head & 0x0f) >= static_cast<uint8_t>(isa::OpClass::NumClasses)) {
        PARA_FATAL(
            "bad operation class %u in %s (record %llu at offset %llu)",
            head & 0x0f, path_.c_str(),
            static_cast<unsigned long long>(pos_),
            static_cast<unsigned long long>(std::ftell(file_) - 1));
    }
    rec.cls = static_cast<isa::OpClass>(head & 0x0f);
    rec.flags = head >> 4;

    uint8_t ops = getByte();
    uint8_t nsrcs = ops & 0x03;
    rec.lastUseMask = (ops >> 2) & 0x07;
    uint8_t dest_kind = (ops >> 5) & 0x03;
    if (ops & 0x80) {
        rec.pc = lastPc_ + 1;
    } else {
        rec.pc = static_cast<uint64_t>(static_cast<int64_t>(lastPc_) +
                                       getSignedVarint());
    }
    lastPc_ = rec.pc;

    for (uint8_t s = 0; s < nsrcs; ++s)
        rec.addSrc(getOperand());
    switch (dest_kind) {
      case 1:
        rec.setDest(Operand::intReg(getByte()));
        break;
      case 2:
        rec.setDest(Operand::fpReg(getByte()));
        break;
      case 3:
        rec.setDest(getOperand());
        break;
      default:
        break;
    }
    ++pos_;
    return true;
}

void
CompressedTraceReader::reset()
{
    PARA_ASSERT(file_, "reset on closed reader");
    if (std::fseek(file_, sizeof(FileHeader), SEEK_SET) != 0)
        PARA_FATAL("trace file seek failed: %s", path_.c_str());
    pos_ = 0;
    lastPc_ = 0;
    lastMemAddr_ = 0;
}

// --- Format dispatch ---------------------------------------------------------

std::unique_ptr<TraceSource>
openTraceFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        PARA_FATAL("cannot open trace file: %s", path.c_str());
    uint32_t magic = 0;
    size_t got = std::fread(&magic, sizeof(magic), 1, f);
    std::fclose(f);
    if (got != 1)
        PARA_FATAL("trace file too short: %s", path.c_str());
    if (magic == compressedTraceMagic)
        return std::make_unique<CompressedTraceReader>(path);
    if (magic == traceFileMagic) {
        // Prefer the mapped reader (zero read syscalls, records copied
        // straight from the page cache); validation failures throw
        // the same errors either way. Fall back to stdio only when the
        // platform refuses the mapping.
        if (auto mapped = MmapTraceFile::tryOpen(path))
            return std::make_unique<MmapTraceSource>(std::move(mapped));
        return std::make_unique<TraceFileReader>(path);
    }
    PARA_FATAL("unrecognized trace file format: %s", path.c_str());
}

} // namespace trace
} // namespace paragraph
