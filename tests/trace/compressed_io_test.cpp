// Tests for the compressed (v2) trace file format.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "support/panic.hpp"
#include "support/prng.hpp"
#include "trace/buffer.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"
#include "workloads/workload.hpp"

using namespace paragraph;
using namespace paragraph::trace;

namespace {

std::string
tempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() / stem).string();
}

TraceRecord
randomRecord(Prng &prng, uint64_t pc)
{
    TraceRecord rec;
    rec.cls = static_cast<isa::OpClass>(prng.nextBelow(isa::numOpClasses));
    rec.setCreatesValue(prng.nextBelow(2) != 0);
    rec.setSysCall(prng.nextBelow(32) == 0);
    rec.setCondBranch(prng.nextBelow(8) == 0);
    rec.setBranchTaken(rec.isCondBranch() && prng.nextBelow(2) != 0);
    rec.pc = pc;
    rec.lastUseMask = static_cast<uint8_t>(prng.nextBelow(8));
    int nsrcs = static_cast<int>(prng.nextBelow(4));
    for (int i = 0; i < nsrcs; ++i) {
        switch (prng.nextBelow(3)) {
          case 0:
            rec.addSrc(Operand::intReg(
                static_cast<uint8_t>(prng.nextBelow(32))));
            break;
          case 1:
            rec.addSrc(Operand::fpReg(
                static_cast<uint8_t>(prng.nextBelow(32))));
            break;
          default:
            rec.addSrc(Operand::mem(
                0x10000000 + 4 * prng.nextBelow(1 << 20),
                static_cast<Segment>(1 + prng.nextBelow(3))));
            break;
        }
    }
    if (rec.createsValue()) {
        if (prng.nextBelow(4) == 0) {
            rec.setDest(Operand::mem(0x7fff0000 - 8 * prng.nextBelow(1 << 12),
                                    Segment::Stack));
        } else {
            rec.setDest(
                Operand::intReg(static_cast<uint8_t>(prng.nextBelow(32))));
        }
    }
    return rec;
}

/** A trace of @p n random records with pc jumps, and every few hundred
 *  records a far pc and a far memory address, whose deltas take the
 *  longest (10-byte) varints. */
TraceBuffer
mixedTrace(uint64_t seed, size_t n)
{
    Prng prng(seed);
    TraceBuffer buf;
    uint64_t pc = 100;
    for (size_t i = 0; i < n; ++i) {
        pc = prng.nextBelow(8) ? pc + 1 : prng.nextBelow(1 << 20);
        if (prng.nextBelow(300) == 0)
            pc ^= 0x8000000000000000ULL;
        TraceRecord rec = randomRecord(prng, pc);
        if (prng.nextBelow(300) == 0) {
            rec.numSrcs = 0;
            for (int s = 0; s < maxSrcs; ++s)
                rec.setSrc(s, Operand{});
            rec.addSrc(Operand::mem(prng.next(), Segment::Heap));
        }
        buf.push(rec);
    }
    return buf;
}

void
writeCompressed(const std::string &path, const TraceBuffer &buf)
{
    CompressedTraceWriter writer(path);
    BufferSource src(buf);
    writer.writeAll(src);
    writer.close();
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** What decoding a `.ptrz` image yields: its records, or the error. */
struct Decoded
{
    std::vector<TraceRecord> records;
    std::string error;
};

/**
 * The format's definition, one byte at a time over an in-memory image with
 * no buffering: the records, or the located error the reader must raise
 * for @p path (same text, same record index, same byte offset).
 */
Decoded
referenceDecode(const std::vector<uint8_t> &image, const std::string &path)
{
    Decoded out;
    uint64_t count = 0;
    std::memcpy(&count, image.data() + 8, sizeof(count));
    size_t at = 24;
    uint64_t lastPc = 0, lastMem = 0, pos = 0;
    auto fail = [&](const std::string &what, size_t offset) {
        out.error = what + " (record " + std::to_string(pos) + " at offset " +
                    std::to_string(offset) + ")";
    };
    struct Stop
    {
    };
    auto byte = [&]() -> uint8_t {
        if (at >= image.size()) {
            fail("trace file truncated: " + path, image.size());
            throw Stop{};
        }
        return image[at++];
    };
    auto varint = [&]() -> uint64_t {
        uint64_t v = 0;
        for (int shift = 0;; shift += 7) {
            uint8_t b = byte();
            v |= static_cast<uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
            if (shift + 7 > 63) {
                fail("malformed varint in " + path, at);
                throw Stop{};
            }
        }
    };
    auto delta = [&]() {
        uint64_t z = varint();
        return (z >> 1) ^ (0 - (z & 1));
    };
    auto operand = [&]() -> Operand {
        uint8_t tag = byte();
        if (tag == 0 || tag == 1) {
            uint8_t id = byte();
            return tag ? Operand::fpReg(id) : Operand::intReg(id);
        }
        if (tag > 4) {
            fail("bad operand tag " + std::to_string(tag) + " in " + path,
                 at - 1);
            throw Stop{};
        }
        lastMem += delta();
        return Operand::mem(lastMem, static_cast<Segment>(tag - 1));
    };
    try {
        for (; pos < count; ++pos) {
            TraceRecord rec;
            uint8_t head = byte();
            if ((head & 0x0f) >= isa::numOpClasses) {
                fail("bad operation class " + std::to_string(head & 0x0f) +
                         " in " + path,
                     at - 1);
                throw Stop{};
            }
            rec.cls = static_cast<isa::OpClass>(head & 0x0f);
            rec.flags = head >> 4;
            uint8_t ops = byte();
            rec.lastUseMask = (ops >> 2) & 0x07;
            rec.pc = (ops & 0x80) ? lastPc + 1 : lastPc + delta();
            lastPc = rec.pc;
            for (int s = 0; s < (ops & 0x03); ++s)
                rec.addSrc(operand());
            switch ((ops >> 5) & 0x03) {
              case 1:
                rec.setDest(Operand::intReg(byte()));
                break;
              case 2:
                rec.setDest(Operand::fpReg(byte()));
                break;
              case 3:
                rec.setDest(operand());
                break;
            }
            out.records.push_back(rec);
        }
    } catch (Stop) {
    }
    return out;
}

/** Decode @p path through the reader: next() one record at a time, or
 *  nextBatch() in @p batch-record blocks. */
Decoded
readerDecode(const std::string &path, size_t batch)
{
    Decoded out;
    try {
        CompressedTraceReader reader(path);
        if (batch == 1) {
            TraceRecord rec;
            while (reader.next(rec))
                out.records.push_back(rec);
        } else {
            std::vector<TraceRecord> block(batch);
            while (size_t n = reader.nextBatch(block.data(), batch))
                out.records.insert(out.records.end(), block.begin(),
                                   block.begin() + n);
        }
    } catch (const FatalError &e) {
        out.error = e.what();
    }
    return out;
}

} // namespace

TEST(CompressedTrace, RoundTripsRandomRecords)
{
    std::string path = tempPath("para_ctrace_rt.ptrz");
    Prng prng(5);
    TraceBuffer buf;
    uint64_t pc = 100;
    for (int i = 0; i < 3000; ++i) {
        // Mostly sequential pcs with occasional jumps, like a real trace.
        pc = prng.nextBelow(8) ? pc + 1 : prng.nextBelow(1 << 20);
        buf.push(randomRecord(prng, pc));
    }
    {
        CompressedTraceWriter writer(path);
        BufferSource src(buf);
        EXPECT_EQ(writer.writeAll(src), buf.size());
    }
    CompressedTraceReader reader(path);
    EXPECT_EQ(reader.recordCount(), buf.size());
    TraceRecord rec;
    for (size_t i = 0; i < buf.size(); ++i) {
        ASSERT_TRUE(reader.next(rec));
        ASSERT_EQ(rec, buf[i]) << "record " << i;
    }
    EXPECT_FALSE(reader.next(rec));
    std::remove(path.c_str());
}

TEST(CompressedTrace, ResetReplaysWithFreshDeltaState)
{
    std::string path = tempPath("para_ctrace_reset.ptrz");
    Prng prng(6);
    TraceBuffer buf;
    for (int i = 0; i < 200; ++i)
        buf.push(randomRecord(prng, static_cast<uint64_t>(i)));
    {
        CompressedTraceWriter writer(path);
        BufferSource src(buf);
        writer.writeAll(src);
    }
    CompressedTraceReader reader(path);
    TraceRecord rec;
    for (int i = 0; i < 200; ++i)
        ASSERT_TRUE(reader.next(rec));
    reader.reset();
    for (size_t i = 0; i < buf.size(); ++i) {
        ASSERT_TRUE(reader.next(rec));
        ASSERT_EQ(rec, buf[i]) << "replayed record " << i;
    }
    std::remove(path.c_str());
}

TEST(CompressedTrace, MuchSmallerThanFixedFormat)
{
    auto &suite = workloads::WorkloadSuite::instance();
    auto src = suite.makeSource(suite.find("xlisp"), workloads::Scale::Small);
    TraceBuffer buf;
    buf.capture(*src);

    std::string fixed = tempPath("para_size_fixed.ptrc");
    std::string packed = tempPath("para_size_packed.ptrz");
    {
        TraceFileWriter w(fixed);
        BufferSource s(buf);
        w.writeAll(s);
    }
    {
        CompressedTraceWriter w(packed);
        BufferSource s(buf);
        w.writeAll(s);
    }
    auto fixed_size = std::filesystem::file_size(fixed);
    auto packed_size = std::filesystem::file_size(packed);
    EXPECT_LT(packed_size * 4, fixed_size)
        << "compressed " << packed_size << " vs fixed " << fixed_size;

    // And it still decodes identically.
    CompressedTraceReader reader(packed);
    TraceRecord rec;
    size_t i = 0;
    while (reader.next(rec))
        ASSERT_EQ(rec, buf[i++]);
    EXPECT_EQ(i, buf.size());
    std::remove(fixed.c_str());
    std::remove(packed.c_str());
}

TEST(CompressedTrace, OpenTraceFileDispatchesOnMagic)
{
    TraceBuffer buf;
    Prng prng(7);
    for (int i = 0; i < 50; ++i)
        buf.push(randomRecord(prng, static_cast<uint64_t>(i)));

    std::string fixed = tempPath("para_open_fixed.ptrc");
    std::string packed = tempPath("para_open_packed.ptrz");
    {
        TraceFileWriter w(fixed);
        BufferSource s(buf);
        w.writeAll(s);
    }
    {
        CompressedTraceWriter w(packed);
        BufferSource s(buf);
        w.writeAll(s);
    }
    for (const std::string &path : {fixed, packed}) {
        auto reader = openTraceFile(path);
        TraceRecord rec;
        size_t n = 0;
        while (reader->next(rec))
            ++n;
        EXPECT_EQ(n, buf.size()) << path;
        reader->reset();
        ASSERT_TRUE(reader->next(rec));
        EXPECT_EQ(rec, buf[0]) << path;
    }
    std::remove(fixed.c_str());
    std::remove(packed.c_str());
}

TEST(CompressedTrace, RejectsWrongMagic)
{
    std::string path = tempPath("para_ctrace_bad.ptrz");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[32] = "not a compressed trace";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    EXPECT_THROW(CompressedTraceReader reader(path), FatalError);
    EXPECT_THROW(openTraceFile(path), FatalError);
    std::remove(path.c_str());
}

TEST(CompressedTrace, TruncationDetected)
{
    std::string path = tempPath("para_ctrace_trunc.ptrz");
    TraceBuffer buf;
    Prng prng(8);
    for (int i = 0; i < 20; ++i)
        buf.push(randomRecord(prng, static_cast<uint64_t>(i)));
    {
        CompressedTraceWriter w(path);
        BufferSource s(buf);
        w.writeAll(s);
    }
    auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 3);
    CompressedTraceReader reader(path);
    TraceRecord rec;
    EXPECT_THROW(
        {
            while (reader.next(rec)) {
            }
        },
        FatalError);
    std::remove(path.c_str());
}

TEST(CompressedTrace, DecodesAcrossManyReadBuffers)
{
    // More than two read buffers of mixed operands, long varints included:
    // next() and nextBatch() (in block sizes that do and do not divide the
    // trace) must both reproduce the writer's records across every refill.
    std::string path = tempPath("para_ctrace_big.ptrz");
    TraceBuffer buf = mixedTrace(9, 120000);
    writeCompressed(path, buf);
    ASSERT_GT(std::filesystem::file_size(path),
              2 * CompressedTraceReader::kReadBufferBytes);
    for (size_t batch : {size_t{1}, size_t{7}, size_t{4096}}) {
        SCOPED_TRACE(batch);
        Decoded got = readerDecode(path, batch);
        ASSERT_EQ(got.error, "");
        ASSERT_EQ(got.records.size(), buf.size());
        for (size_t i = 0; i < buf.size(); ++i)
            ASSERT_EQ(got.records[i], buf[i]) << "record " << i;
    }
    std::remove(path.c_str());
}

TEST(CompressedTrace, CorruptRecordAcrossARefillReportsItsOffset)
{
    // Short register records up to the end of the first read buffer, then
    // one whose 10-byte address varint straddles that end. Made malformed
    // (a continuation bit on its last byte), it is decoded after a refill
    // has moved it to the front of the buffer; the error must still name
    // its record and the byte offset in the file.
    std::string path = tempPath("para_ctrace_straddle.ptrz");
    const uint64_t bufferEnd = 24 + CompressedTraceReader::kReadBufferBytes;
    auto reg = [](uint64_t pc) {
        TraceRecord rec;
        rec.setCreatesValue(true);
        rec.addSrc(Operand::intReg(3));
        rec.setDest(Operand::intReg(4));
        rec.pc = pc;
        return rec;
    };
    CompressedTraceWriter writer(path);
    uint64_t pc = 1;
    // The straddling record: head, ops, tag, then the varint from +3.
    while (24 + writer.bytesWritten() + 3 + 5 < bufferEnd)
        writer.write(reg(pc++));
    const uint64_t bad = writer.recordsWritten();
    const uint64_t start = 24 + writer.bytesWritten();
    TraceRecord far;
    far.addSrc(Operand::mem(0x8000000000000000ULL, Segment::Heap));
    far.pc = pc++;
    writer.write(far);
    ASSERT_EQ(24 + writer.bytesWritten(), start + 13);
    for (int i = 0; i < 100; ++i)
        writer.write(reg(pc++));
    writer.close();
    ASSERT_LT(start + 3, bufferEnd);
    ASSERT_GT(start + 13, bufferEnd);

    std::vector<uint8_t> bytes = readBytes(path);
    ASSERT_EQ(bytes[start + 12], 0x01);
    bytes[start + 12] = 0x81;
    writeBytes(path, bytes);
    const std::string want = "malformed varint in " + path + " (record " +
                             std::to_string(bad) + " at offset " +
                             std::to_string(start + 13) + ")";
    for (size_t batch : {size_t{1}, size_t{4096}})
        EXPECT_EQ(readerDecode(path, batch).error, want) << "batch " << batch;
    EXPECT_EQ(readerDecode(path, 1).records.size(), bad);
    std::remove(path.c_str());
}

TEST(CompressedTrace, EveryTruncationAndByteEditDecodesOrThrowsLocated)
{
    // Damage a small trace every way a seeded sweep reaches: each prefix
    // of the file, and single-byte edits. The reader must never crash (the
    // sanitizer passes run this) and must agree with the byte-at-a-time
    // reference: the same records, or the same located error.
    std::string path = tempPath("para_ctrace_sweep.ptrz");
    std::string damaged = tempPath("para_ctrace_sweep_damaged.ptrz");
    writeCompressed(path, mixedTrace(10, 300));
    const std::vector<uint8_t> image = readBytes(path);
    ASSERT_EQ(referenceDecode(image, path).records.size(), 300u);

    auto check = [&](const std::vector<uint8_t> &bytes,
                     const std::string &what) {
        writeBytes(damaged, bytes);
        Decoded want = referenceDecode(bytes, damaged);
        for (size_t batch : {size_t{1}, size_t{4096}}) {
            Decoded got = readerDecode(damaged, batch);
            ASSERT_EQ(got.error, want.error) << what << ", batch " << batch;
            if (want.error.empty()) {
                ASSERT_EQ(got.records, want.records)
                    << what << ", batch " << batch;
            }
        }
    };
    for (size_t len = 24; len < image.size(); ++len) {
        std::vector<uint8_t> cut(image.begin(), image.begin() + len);
        Decoded want = referenceDecode(cut, damaged);
        ASSERT_NE(want.error.find("truncated"), std::string::npos);
        ASSERT_NE(want.error.find("at offset " + std::to_string(len) + ")"),
                  std::string::npos);
        check(cut, "truncated to " + std::to_string(len));
    }
    Prng prng(11);
    for (int edit = 0; edit < 2000; ++edit) {
        std::vector<uint8_t> bytes = image;
        size_t at = 24 + prng.nextBelow(image.size() - 24);
        bytes[at] = static_cast<uint8_t>(bytes[at] ^ (1 + prng.nextBelow(255)));
        check(bytes, "byte " + std::to_string(at) + " edited");
    }
    std::remove(path.c_str());
    std::remove(damaged.c_str());
}
