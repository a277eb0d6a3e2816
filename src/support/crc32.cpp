#include "support/crc32.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "support/parallel.hpp"

#if defined(PARAGRAPH_SIMD) && defined(__x86_64__)
#include <immintrin.h>
#define PARAGRAPH_CRC32_CLMUL 1
#endif

namespace paragraph {

namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

/** slice[k][b]: the CRC register after byte b followed by k zero bytes. */
struct Crc32Slices
{
    uint32_t slice[16][256];

    constexpr Crc32Slices() : slice{}
    {
        for (uint32_t b = 0; b < 256; ++b) {
            uint32_t c = b;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
            slice[0][b] = c;
        }
        for (int k = 1; k < 16; ++k) {
            for (uint32_t b = 0; b < 256; ++b) {
                const uint32_t prev = slice[k - 1][b];
                slice[k][b] = (prev >> 8) ^ slice[0][prev & 0xffu];
            }
        }
    }
};

constexpr Crc32Slices kSlices{};

/** Little-endian 32-bit load, whatever the host byte order. */
inline uint32_t
load32le(const unsigned char *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

/** a * b modulo the CRC polynomial, in the reflected bit order (bit 31
 *  is x^0). */
constexpr uint32_t
mulModP(uint32_t a, uint32_t b)
{
    uint32_t product = 0;
    for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
        if (a & m)
            product ^= b;
        b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
    }
    return product;
}

/** pow2[k] = x^(2^k) mod P. */
struct Crc32Powers
{
    uint32_t pow2[32];

    constexpr Crc32Powers() : pow2{}
    {
        pow2[0] = 1u << 30; // x^1
        for (int k = 1; k < 32; ++k)
            pow2[k] = mulModP(pow2[k - 1], pow2[k - 1]);
    }
};

constexpr Crc32Powers kPowers{};

// x^(2^32) = x mod P, so pow2 repeats with period 32 and any exponent
// folds onto it.
static_assert(mulModP(kPowers.pow2[31], kPowers.pow2[31]) == kPowers.pow2[0]);

/** x^(8 * bytes) mod P: the shift that appends @p bytes zero bytes. */
constexpr uint32_t
zeroBytesShift(uint64_t bytes)
{
    uint32_t p = 1u << 31; // x^0
    for (unsigned k = 3; bytes != 0; bytes >>= 1, ++k) {
        if (bytes & 1)
            p = mulModP(kPowers.pow2[k & 31], p);
    }
    return p;
}

/** The slicing-by-16 loop over the inverted register @p reg. */
uint32_t
slicing16(uint32_t reg, const unsigned char *p, size_t len)
{
    const auto &t = kSlices.slice;
    for (; len >= 16; p += 16, len -= 16) {
        const uint32_t a = load32le(p) ^ reg;
        const uint32_t b = load32le(p + 4);
        const uint32_t c = load32le(p + 8);
        const uint32_t d = load32le(p + 12);
        reg = t[15][a & 0xff] ^ t[14][(a >> 8) & 0xff] ^
              t[13][(a >> 16) & 0xff] ^ t[12][a >> 24] ^
              t[11][b & 0xff] ^ t[10][(b >> 8) & 0xff] ^
              t[9][(b >> 16) & 0xff] ^ t[8][b >> 24] ^
              t[7][c & 0xff] ^ t[6][(c >> 8) & 0xff] ^
              t[5][(c >> 16) & 0xff] ^ t[4][c >> 24] ^
              t[3][d & 0xff] ^ t[2][(d >> 8) & 0xff] ^
              t[1][(d >> 16) & 0xff] ^ t[0][d >> 24];
    }
    while (len--)
        reg = t[0][(reg ^ *p++) & 0xff] ^ (reg >> 8);
    return reg;
}

#ifdef PARAGRAPH_CRC32_CLMUL

// The carry-less multiply fold of Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
// reflected bit order. A 16-byte lane loaded little-endian holds 128
// message bits, its low quadword the earlier (higher-degree) half. Moving
// a lane d bits further down the message multiplies it by x^d: its low
// quadword by x^(d + 64), its high one by x^d. A reflected 64 x 33-bit
// carry-less product reads as x^32 times the true product in the lane's
// layout, so the constants are x^(d + 32) mod P and x^(d - 32) mod P, each
// a 33-bit reflected value: the register form above (bit 31 is x^0)
// shifted left once.

/** x^(@p bits) mod P as a 33-bit reflected fold constant. */
constexpr uint64_t
foldConstant(unsigned bits)
{
    return uint64_t{zeroBytesShift(bits / 8)} << 1;
}

/** The four lanes fold over 512 bits; one lane folds over 128. */
constexpr uint64_t kFold512Lo = foldConstant(512 + 32);
constexpr uint64_t kFold512Hi = foldConstant(512 - 32);
constexpr uint64_t kFold128Lo = foldConstant(128 + 32);
constexpr uint64_t kFold128Hi = foldConstant(128 - 32);
/** Folds the last lane's 96 bits to 64. */
constexpr uint64_t kFold64 = foldConstant(64);

/** Barrett reduction's P and floor(x^64 / P), each 33 bits reflected. */
constexpr uint64_t kBarrettP = (uint64_t{kPoly} << 1) | 1;
constexpr uint64_t kBarrettMu = 0x1f7011641;

#define PARAGRAPH_CRC32_TARGET __attribute__((target("pclmul,sse4.1")))

/** @p lane carried down the distance @p k's two constants were made
 *  for, added to the lane @p next found there. */
PARAGRAPH_CRC32_TARGET inline __m128i
fold(__m128i lane, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                       _mm_clmulepi64_si128(lane, k, 0x11)),
                         next);
}

inline __m128i
load(const unsigned char *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/**
 * The inverted register @p reg extended over @p len bytes at @p p, where
 * @p len is a multiple of 16 and at least 64: four lanes fold 64 bytes a
 * step, then merge into one, which takes the remaining 16-byte lanes; the
 * last lane reduces to 32 bits by Barrett reduction.
 */
PARAGRAPH_CRC32_TARGET uint32_t
clmulFold(uint32_t reg, const unsigned char *p, size_t len)
{
    __m128i x0 = _mm_xor_si128(load(p),
                               _mm_cvtsi32_si128(static_cast<int>(reg)));
    __m128i x1 = load(p + 16);
    __m128i x2 = load(p + 32);
    __m128i x3 = load(p + 48);
    p += 64;
    len -= 64;
    const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
    for (; len >= 64; p += 64, len -= 64) {
        x0 = fold(x0, k512, load(p));
        x1 = fold(x1, k512, load(p + 16));
        x2 = fold(x2, k512, load(p + 32));
        x3 = fold(x3, k512, load(p + 48));
    }
    const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
    x0 = fold(x0, k128, x1);
    x0 = fold(x0, k128, x2);
    x0 = fold(x0, k128, x3);
    for (; len >= 16; p += 16, len -= 16)
        x0 = fold(x0, k128, load(p));

    // 128 -> 96 bits: the low quadword times x^96 (kFold128Hi) onto the
    // high one. 96 -> 64: the top 32 bits times x^64 onto the rest.
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
    x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k128, 0x10),
                       _mm_srli_si128(x0, 8));
    x0 = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32),
                             _mm_set_epi64x(0, kFold64), 0x00),
        _mm_srli_si128(x0, 4));
    // Barrett: q = (low 32 bits * mu) mod x^32; adding q * P clears the
    // low word and leaves the remainder in the second.
    const __m128i barrett = _mm_set_epi64x(kBarrettMu, kBarrettP);
    const __m128i q = _mm_and_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10),
        low32);
    x0 = _mm_xor_si128(x0, _mm_clmulepi64_si128(q, barrett, 0x00));
    return static_cast<uint32_t>(_mm_extract_epi32(x0, 1));
}

#endif // PARAGRAPH_CRC32_CLMUL

} // namespace

bool
detail::crc32HasClmul()
{
#ifdef PARAGRAPH_CRC32_CLMUL
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return has;
#else
    return false;
#endif
}

uint32_t
detail::crc32Slicing16(uint32_t crc, const void *data, size_t len)
{
    return ~slicing16(~crc, static_cast<const unsigned char *>(data), len);
}

uint32_t
detail::crc32Clmul(uint32_t crc, const void *data, size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    uint32_t reg = ~crc;
#ifdef PARAGRAPH_CRC32_CLMUL
    if (len >= 64) {
        const size_t folded = len & ~size_t{15};
        reg = clmulFold(reg, p, folded);
        p += folded;
        len -= folded;
    }
#endif
    return ~slicing16(reg, p, len);
}

uint32_t
crc32Update(uint32_t crc, const void *data, size_t len)
{
    return len >= 64 && detail::crc32HasClmul()
               ? detail::crc32Clmul(crc, data, len)
               : detail::crc32Slicing16(crc, data, len);
}

uint32_t
crc32Combine(uint32_t crcA, uint32_t crcB, uint64_t lenB)
{
    return mulModP(zeroBytesShift(lenB), crcA) ^ crcB;
}

uint32_t
crc32Parallel(const void *data, size_t len, size_t chunkBytes,
              const Crc32ChunkFn &visit)
{
    return detail::crc32Chunked(data, len, chunkBytes,
                                std::thread::hardware_concurrency(), visit);
}

uint32_t
detail::crc32Chunked(const void *data, size_t len, size_t chunkBytes,
                     unsigned maxThreads, const Crc32ChunkFn &visit)
{
    // Each thread gets a contiguous run of whole chunks; the last run also
    // takes the tail.
    const size_t chunks = len / chunkBytes;
    const size_t parts = std::max<size_t>(
        1, std::min<size_t>(maxThreads, chunks));
    auto begin = [&](size_t part) {
        return part == parts ? len : part * chunks / parts * chunkBytes;
    };
    const unsigned char *bytes = static_cast<const unsigned char *>(data);
    std::vector<uint32_t> crcs(parts, 0);
    runSegmentsParallel(parts, [&](size_t part) {
        for (size_t off = begin(part); off < begin(part + 1);
             off += chunkBytes) {
            const size_t n = std::min(chunkBytes, begin(part + 1) - off);
            crcs[part] = crc32Update(crcs[part], bytes + off, n);
            if (visit)
                visit(off, n);
        }
    });
    uint32_t crc = crcs[0];
    for (size_t part = 1; part < parts; ++part)
        crc = crc32Combine(crc, crcs[part], begin(part + 1) - begin(part));
    return crc;
}

} // namespace paragraph
