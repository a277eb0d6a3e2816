#include "trace/compressed_io.hpp"

#include <cstring>
#include <memory>

#include "support/panic.hpp"
#include "trace/file_io.hpp"
#include "trace/shared_decode.hpp"

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
        // The wrapped difference: far-apart addresses must not overflow.
        putSignedVarint(static_cast<int64_t>(op.id - lastMemAddr_));
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
        putSignedVarint(static_cast<int64_t>(rec.pc - lastPc_));
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

namespace {

/** Longest encoding of one record: the head and operand bytes, a 10-byte
 *  pc delta, and three memory sources and a memory destination of a tag
 *  and a 10-byte address delta each. */
constexpr size_t kMaxRecordBytes = 2 + 10 + 4 * 11;

/** Record kind byte (kind | segment << 4) of each operand tag. */
constexpr uint8_t kTagKinds[] = {
    static_cast<uint8_t>(Operand::Kind::IntReg),
    static_cast<uint8_t>(Operand::Kind::FpReg),
    static_cast<uint8_t>(static_cast<uint8_t>(Operand::Kind::Mem) |
                         static_cast<uint8_t>(Segment::Data) << 4),
    static_cast<uint8_t>(static_cast<uint8_t>(Operand::Kind::Mem) |
                         static_cast<uint8_t>(Segment::Heap) << 4),
    static_cast<uint8_t>(static_cast<uint8_t>(Operand::Kind::Mem) |
                         static_cast<uint8_t>(Segment::Stack) << 4),
};

/** Decode a varint at @p p, unchecked against the buffer's end. False
 *  when it runs past 10 bytes (malformed). */
inline bool
fastVarint(const uint8_t *&p, uint64_t &out)
{
    uint64_t v = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
        uint8_t b = *p++;
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80)) {
            out = v;
            return true;
        }
    }
    return false;
}

/** Decode one tagged operand into a record slot. False on a bad tag or
 *  a malformed address delta. */
inline bool
fastOperand(const uint8_t *&p, uint64_t &mem, uint8_t &kind, uint64_t &id)
{
    const uint8_t tag = *p++;
    if (tag > tagMemStack)
        return false;
    kind = kTagKinds[tag];
    if (tag <= tagFpReg) {
        id = *p++;
        return true;
    }
    uint64_t delta;
    if (!fastVarint(p, delta))
        return false;
    mem += static_cast<uint64_t>(unzigzag(delta));
    id = mem;
    return true;
}

/**
 * Decode the record at @p p into @p rec with no bounds checks: the caller
 * has kMaxRecordBytes buffered. On success @p p, @p pc and @p mem move
 * past the record; false (a malformed byte) leaves the record to the
 * checked path, which reports it.
 */
inline bool
fastRecord(const uint8_t *&p, uint64_t &pc, uint64_t &mem, TraceRecord &rec)
{
    const uint8_t head = p[0];
    const uint8_t ops = p[1];
    if ((head & 0x0f) >= static_cast<uint8_t>(isa::OpClass::NumClasses))
        return false;
    const uint8_t *q = p + 2;
    uint64_t nextPc = pc + 1;
    if (!(ops & 0x80)) {
        uint64_t delta;
        if (!fastVarint(q, delta))
            return false;
        nextPc = pc + static_cast<uint64_t>(unzigzag(delta));
    }
    uint64_t nextMem = mem;
    rec = TraceRecord{};
    rec.cls = static_cast<isa::OpClass>(head & 0x0f);
    rec.flags = head >> 4;
    rec.numSrcs = ops & 0x03;
    rec.lastUseMask = (ops >> 2) & 0x07;
    for (uint8_t s = 0; s < rec.numSrcs; ++s) {
        if (!fastOperand(q, nextMem, rec.operandKinds[s], rec.operandIds[s]))
            return false;
    }
    constexpr int d = TraceRecord::destSlot;
    switch ((ops >> 5) & 0x03) {
      case 1:
      case 2:
        rec.operandKinds[d] = kTagKinds[((ops >> 5) & 0x03) - 1];
        rec.operandIds[d] = *q++;
        break;
      case 3:
        if (!fastOperand(q, nextMem, rec.operandKinds[d], rec.operandIds[d]))
            return false;
        break;
      default:
        break;
    }
    rec.pc = nextPc;
    p = q;
    pc = nextPc;
    mem = nextMem;
    return true;
}

} // namespace

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
    buf_ = std::make_unique_for_overwrite<uint8_t[]>(kReadBufferBytes);
    bufOffset_ = sizeof(FileHeader);
}

CompressedTraceReader::~CompressedTraceReader()
{
    if (file_)
        std::fclose(file_);
}

bool
CompressedTraceReader::refill()
{
    const size_t keep = end_ - head_;
    std::memmove(buf_.get(), buf_.get() + head_, keep);
    bufOffset_ += head_;
    head_ = 0;
    const size_t want = kReadBufferBytes - keep;
    const size_t got = std::fread(buf_.get() + keep, 1, want, file_);
    end_ = keep + got;
    eof_ = got < want;
    return got > 0;
}

uint8_t
CompressedTraceReader::getByte()
{
    if (head_ == end_ && !refill()) {
        PARA_FATAL("trace file truncated: %s (record %llu at offset %llu)",
                   path_.c_str(), static_cast<unsigned long long>(pos_),
                   static_cast<unsigned long long>(offset()));
    }
    return buf_[head_++];
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
                       static_cast<unsigned long long>(offset()));
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
        // Unsigned, so a corrupt delta wraps instead of overflowing.
        uint64_t addr =
            lastMemAddr_ + static_cast<uint64_t>(getSignedVarint());
        lastMemAddr_ = addr;
        Segment seg = tag == tagMemHeap    ? Segment::Heap
                      : tag == tagMemStack ? Segment::Stack
                                           : Segment::Data;
        return Operand::mem(addr, seg);
      }
      default:
        PARA_FATAL("bad operand tag %u in %s (record %llu at offset %llu)",
                   tag, path_.c_str(), static_cast<unsigned long long>(pos_),
                   static_cast<unsigned long long>(offset() - 1));
    }
}

void
CompressedTraceReader::decodeChecked(TraceRecord &rec)
{
    rec = TraceRecord{};
    uint8_t head = getByte();
    if ((head & 0x0f) >= static_cast<uint8_t>(isa::OpClass::NumClasses)) {
        PARA_FATAL(
            "bad operation class %u in %s (record %llu at offset %llu)",
            head & 0x0f, path_.c_str(),
            static_cast<unsigned long long>(pos_),
            static_cast<unsigned long long>(offset() - 1));
    }
    rec.cls = static_cast<isa::OpClass>(head & 0x0f);
    rec.flags = head >> 4;

    uint8_t ops = getByte();
    uint8_t nsrcs = ops & 0x03;
    rec.lastUseMask = (ops >> 2) & 0x07;
    uint8_t dest_kind = (ops >> 5) & 0x03;
    if (ops & 0x80)
        rec.pc = lastPc_ + 1;
    else
        rec.pc = lastPc_ + static_cast<uint64_t>(getSignedVarint());
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
}

size_t
CompressedTraceReader::decodeRun(TraceRecord *out, size_t max)
{
    // The cursor and delta state live in locals: the record stores are
    // byte stores, which the compiler must otherwise assume alias them.
    const uint8_t *const base = buf_.get();
    const uint8_t *p = base + head_;
    const uint8_t *const end = base + end_;
    uint64_t pc = lastPc_;
    uint64_t mem = lastMemAddr_;
    size_t n = 0;
    while (n < max && static_cast<size_t>(end - p) >= kMaxRecordBytes &&
           fastRecord(p, pc, mem, out[n]))
        ++n;
    head_ = static_cast<size_t>(p - base);
    lastPc_ = pc;
    lastMemAddr_ = mem;
    return n;
}

size_t
CompressedTraceReader::nextBatch(TraceRecord *out, size_t max)
{
    if (max > count_ - pos_)
        max = static_cast<size_t>(count_ - pos_);
    size_t n = 0;
    while (n < max) {
        if (end_ - head_ < kMaxRecordBytes && !eof_)
            refill();
        const size_t got = decodeRun(out + n, max - n);
        n += got;
        pos_ += got;
        // The fast path stopped short of a refill: the file's last few
        // bytes, or a record it found malformed. Decode that record byte
        // by byte, which raises the located error if there is one.
        if (n < max && (eof_ || end_ - head_ >= kMaxRecordBytes)) {
            decodeChecked(out[n]);
            ++n;
            ++pos_;
        }
    }
    return n;
}

bool
CompressedTraceReader::next(TraceRecord &rec)
{
    return nextBatch(&rec, 1) == 1;
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
    head_ = 0;
    end_ = 0;
    bufOffset_ = sizeof(FileHeader);
    eof_ = false;
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
        // A private, uncapped pool: its open verifies the payload CRC and
        // range-checks every block before the first record is read.
        return std::make_unique<SharedDecodeSource>(
            std::make_shared<SharedDecodePool>(
                std::make_shared<MmapTraceFile>(path),
                SharedDecodePool::Options{}));
    }
    PARA_FATAL("unrecognized trace file format: %s", path.c_str());
}

} // namespace trace
} // namespace paragraph
