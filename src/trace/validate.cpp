#include "trace/validate.hpp"

#include <cstring>

#include "isa/op_class.hpp"
#include "support/panic.hpp"
#include "trace/file_io.hpp"

#if defined(PARAGRAPH_SIMD) && defined(__SSE2__)
#include <emmintrin.h>
#define PARAGRAPH_BULK_SSE2 1
#elif defined(PARAGRAPH_SIMD) && defined(__ARM_NEON)
#include <arm_neon.h>
#define PARAGRAPH_BULK_NEON 1
#endif

namespace paragraph {
namespace trace {

namespace {

constexpr uint8_t kClsMax =
    static_cast<uint8_t>(isa::OpClass::NumClasses) - 1;

// The eight leading bytes of a record hold every range-checked field:
//   [0] cls            valid iff cls <= kClsMax
//   [1] flags          valid iff (flags & 0xf0) == 0
//   [2] numSrcs        valid iff numSrcs <= maxSrcs (3)
//   [3] lastUseMask    valid iff (lastUseMask & 0xf8) == 0
//   [4..7] kind|seg<<4 valid iff kind <= Mem (3) and seg <= Stack (3),
//                      i.e. (byte & 0xcc) == 0
// Two byte-parallel tests cover all six checks: an AND-mask that must come
// out zero, and a per-byte unsigned ceiling.
constexpr uint64_t kAndMask = 0xccccccccf800f000ull;

inline bool
validHead(uint64_t head)
{
    if (head & kAndMask)
        return false;
    if (static_cast<uint8_t>(head) > kClsMax)
        return false;
    return static_cast<uint8_t>(head >> 16) <= maxSrcs;
}

inline uint64_t
loadHead(const TraceRecord &p)
{
    uint64_t head;
    std::memcpy(&head, &p, sizeof(head));
    return head;
}

void
checkOperandByte(uint8_t kind_seg, const char *which)
{
    uint8_t kind = kind_seg & 0x0f;
    uint8_t seg = kind_seg >> 4;
    if (kind > static_cast<uint8_t>(Operand::Kind::Mem))
        PARA_FATAL("bad %s operand kind %u", which, kind);
    if (seg > static_cast<uint8_t>(Segment::Stack))
        PARA_FATAL("bad %s operand segment %u", which, seg);
}

} // namespace

void
checkRecord(const TraceRecord &rec)
{
    // Range-check every field that selects into an enum or array before
    // trusting it: a flipped on-disk byte must become a diagnosed error,
    // not an out-of-bounds latency lookup or a phantom operation class.
    const unsigned cls = static_cast<uint8_t>(rec.cls);
    if (cls > kClsMax)
        PARA_FATAL("bad operation class %u", cls);
    if (rec.flags & ~0x0fu)
        PARA_FATAL("bad flag bits 0x%02x", rec.flags);
    if (rec.numSrcs > maxSrcs)
        PARA_FATAL("bad source count %u", rec.numSrcs);
    if (rec.lastUseMask & ~0x07u)
        PARA_FATAL("bad last-use mask 0x%02x", rec.lastUseMask);
    for (int i = 0; i < maxSrcs; ++i)
        checkOperandByte(rec.operandKinds[i], "source");
    checkOperandByte(rec.operandKinds[TraceRecord::destSlot], "destination");
}

bool
packedRecordsValid(const TraceRecord *in, size_t n)
{
    size_t i = 0;

#if defined(PARAGRAPH_BULK_SSE2)
    // Two records per 128-bit lane: the validated head bytes of records
    // i and i+1 are packed side by side, then both tests run byte-parallel.
    const __m128i mask = _mm_set1_epi64x(static_cast<long long>(kAndMask));
    const __m128i zero = _mm_setzero_si128();
    const __m128i lim = _mm_setr_epi8(
        static_cast<char>(kClsMax), static_cast<char>(0xff), maxSrcs,
        static_cast<char>(0xff), static_cast<char>(0xff),
        static_cast<char>(0xff), static_cast<char>(0xff),
        static_cast<char>(0xff), static_cast<char>(kClsMax),
        static_cast<char>(0xff), maxSrcs, static_cast<char>(0xff),
        static_cast<char>(0xff), static_cast<char>(0xff),
        static_cast<char>(0xff), static_cast<char>(0xff));
    for (; i + 2 <= n; i += 2) {
        __m128i lo = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(in + i));
        __m128i hi = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(in + i + 1));
        __m128i v = _mm_unpacklo_epi64(lo, hi);
        __m128i ok = _mm_and_si128(
            _mm_cmpeq_epi8(_mm_and_si128(v, mask), zero),
            _mm_cmpeq_epi8(_mm_max_epu8(v, lim), lim));
        if (_mm_movemask_epi8(ok) != 0xffff)
            return false;
    }
#elif defined(PARAGRAPH_BULK_NEON)
    const uint8x8_t maskBytes = vcreate_u8(kAndMask);
    const uint8x16_t mask = vcombine_u8(maskBytes, maskBytes);
    const uint8x8_t limBytes =
        vcreate_u8(0xffffffffff03ff00ull | kClsMax |
                   (static_cast<uint64_t>(maxSrcs) << 16));
    const uint8x16_t lim = vcombine_u8(limBytes, limBytes);
    for (; i + 2 <= n; i += 2) {
        uint8x16_t v = vcombine_u8(
            vld1_u8(reinterpret_cast<const uint8_t *>(in + i)),
            vld1_u8(reinterpret_cast<const uint8_t *>(in + i + 1)));
        uint8x16_t ok =
            vandq_u8(vceqq_u8(vandq_u8(v, mask), vdupq_n_u8(0)),
                     vceqq_u8(vmaxq_u8(v, lim), lim));
        if (vminvq_u8(ok) != 0xff)
            return false;
    }
#endif

    for (; i < n; ++i) {
        if (!validHead(loadHead(in[i])))
            return false;
    }
    return true;
}

void
validateRecords(const TraceRecord *in, size_t n, const std::string &path,
                uint64_t firstIndex)
{
    if (packedRecordsValid(in, n))
        return;
    // Some record in the block is bad: re-run the scalar check so the
    // error names the first bad record and its byte offset.
    for (size_t i = 0; i < n; ++i) {
        try {
            checkRecord(in[i]);
        } catch (const FatalError &e) {
            uint64_t index = firstIndex + i;
            PARA_FATAL("%s: %s (record %llu at offset %llu)", path.c_str(),
                       e.what(), static_cast<unsigned long long>(index),
                       static_cast<unsigned long long>(recordOffset(index)));
        }
    }
}

} // namespace trace
} // namespace paragraph
