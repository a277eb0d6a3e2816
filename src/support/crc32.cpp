#include "support/crc32.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "support/parallel.hpp"

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
uint32_t
zeroBytesShift(uint64_t bytes)
{
    uint32_t p = 1u << 31; // x^0
    for (unsigned k = 3; bytes != 0; bytes >>= 1, ++k) {
        if (bytes & 1)
            p = mulModP(kPowers.pow2[k & 31], p);
    }
    return p;
}

} // namespace

uint32_t
crc32Update(uint32_t crc, const void *data, size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    const auto &t = kSlices.slice;
    crc = ~crc;
    for (; len >= 16; p += 16, len -= 16) {
        const uint32_t a = load32le(p) ^ crc;
        const uint32_t b = load32le(p + 4);
        const uint32_t c = load32le(p + 8);
        const uint32_t d = load32le(p + 12);
        crc = t[15][a & 0xff] ^ t[14][(a >> 8) & 0xff] ^
              t[13][(a >> 16) & 0xff] ^ t[12][a >> 24] ^
              t[11][b & 0xff] ^ t[10][(b >> 8) & 0xff] ^
              t[9][(b >> 16) & 0xff] ^ t[8][b >> 24] ^
              t[7][c & 0xff] ^ t[6][(c >> 8) & 0xff] ^
              t[5][(c >> 16) & 0xff] ^ t[4][c >> 24] ^
              t[3][d & 0xff] ^ t[2][(d >> 8) & 0xff] ^
              t[1][(d >> 16) & 0xff] ^ t[0][d >> 24];
    }
    while (len--)
        crc = t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
    return ~crc;
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
