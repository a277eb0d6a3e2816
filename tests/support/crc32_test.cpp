// The CRC-32 kernels (PCLMULQDQ fold and slicing-by-16), crc32Combine
// and the chunked CRC, each held to a bit-at-a-time reference loop: the
// definition of the reflected CRC-32 that zlib computes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "support/crc32.hpp"
#include "support/prng.hpp"
#include "support/test_seed.hpp"

using namespace paragraph;

namespace {

/** One bit-at-a-time step of the inverted CRC register over byte @p b. */
uint32_t
referenceStep(uint32_t reg, unsigned char b)
{
    reg ^= b;
    for (int k = 0; k < 8; ++k)
        reg = (reg & 1) ? (reg >> 1) ^ 0xEDB88320u : reg >> 1;
    return reg;
}

uint32_t
referenceCrc(const unsigned char *p, size_t len)
{
    uint32_t reg = ~0u;
    while (len--)
        reg = referenceStep(reg, *p++);
    return ~reg;
}

std::vector<unsigned char>
randomBytes(size_t n, uint64_t seed)
{
    Prng prng(testSeed(seed));
    std::vector<unsigned char> bytes(n);
    for (unsigned char &b : bytes)
        b = static_cast<unsigned char>(prng.next());
    return bytes;
}

using Kernel = uint32_t (*)(uint32_t, const void *, size_t);

struct NamedKernel
{
    const char *name;
    Kernel run;
};

/** crc32Update and each kernel this CPU runs. */
std::vector<NamedKernel>
kernels()
{
    std::vector<NamedKernel> out = {{"crc32Update", crc32Update},
                                    {"slicing16", detail::crc32Slicing16}};
    if (detail::crc32HasClmul())
        out.push_back({"clmul", detail::crc32Clmul});
    return out;
}

/** Past 17 folds of 64 bytes, so every loop of the folding kernel runs
 *  with every remainder. */
constexpr size_t kMaxLength = 1100;

} // namespace

TEST(Crc32, KnownAnswers)
{
    const char digits[] = "123456789";
    for (const NamedKernel &k : kernels()) {
        SCOPED_TRACE(k.name);
        EXPECT_EQ(k.run(0, digits, 9), 0xCBF43926u);
        EXPECT_EQ(k.run(0, digits, 0), 0u);
        EXPECT_EQ(k.run(0xCBF43926u, digits, 0), 0xCBF43926u);
    }
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment)
{
    std::vector<unsigned char> buf = randomBytes(kMaxLength + 16, 1);
    for (const NamedKernel &k : kernels()) {
        SCOPED_TRACE(k.name);
        for (size_t offset = 0; offset < 16; ++offset) {
            // The reference register runs along the buffer, one byte per
            // length.
            const unsigned char *p = buf.data() + offset;
            uint32_t reg = ~0u;
            for (size_t len = 0; len <= kMaxLength; ++len) {
                ASSERT_EQ(k.run(0, p, len), ~reg)
                    << "offset " << offset << " length " << len;
                if (len < kMaxLength)
                    reg = referenceStep(reg, p[len]);
            }
        }
    }
}

TEST(Crc32, IncrementalUpdateSplitsAnywhere)
{
    std::vector<unsigned char> buf = randomBytes(kMaxLength + 16, 2);
    const std::vector<NamedKernel> all = kernels();
    for (size_t offset = 0; offset < 16; ++offset) {
        const unsigned char *p = buf.data() + offset;
        const uint32_t whole = referenceCrc(p, kMaxLength);
        // Each kernel continues the other's register.
        for (const NamedKernel &first : all) {
            for (const NamedKernel &second : all) {
                for (size_t split = 0; split <= kMaxLength; ++split) {
                    const uint32_t crc = second.run(
                        first.run(0, p, split), p + split,
                        kMaxLength - split);
                    ASSERT_EQ(crc, whole)
                        << first.name << " then " << second.name
                        << ", offset " << offset << ", split at " << split;
                }
            }
        }
    }
}

TEST(Crc32, CombineMatchesTheConcatenation)
{
    std::vector<unsigned char> buf = randomBytes(4096, 3);
    Prng prng(testSeed(4));
    for (int trial = 0; trial < 200; ++trial) {
        const size_t len = prng.nextBelow(buf.size() + 1);
        // Every tenth split is an empty half.
        size_t split = prng.nextBelow(len + 1);
        if (trial % 10 == 0)
            split = trial % 20 == 0 ? 0 : len;
        const uint32_t a = crc32Of(buf.data(), split);
        const uint32_t b = crc32Of(buf.data() + split, len - split);
        EXPECT_EQ(crc32Combine(a, b, len - split), crc32Of(buf.data(), len))
            << "length " << len << " split " << split;
    }
}

TEST(Crc32, CombineShiftsComposeAtAnyLength)
{
    // Appending b then c equals appending the combined bc: the shift by
    // lenB + lenC must equal the two shifts in turn, here at lengths past
    // 2^29 bytes, where the x^(2^k) powers wrap around their period.
    Prng prng(testSeed(5));
    for (int trial = 0; trial < 100; ++trial) {
        const uint32_t a = static_cast<uint32_t>(prng.next());
        const uint32_t b = static_cast<uint32_t>(prng.next());
        const uint32_t c = static_cast<uint32_t>(prng.next());
        const uint64_t lenB = prng.next() >> 20;
        const uint64_t lenC = prng.next() >> 20;
        EXPECT_EQ(crc32Combine(crc32Combine(a, b, lenB), c, lenC),
                  crc32Combine(a, crc32Combine(b, c, lenC), lenB + lenC));
    }
}

TEST(Crc32, ChunkedEqualsSerialAroundChunkMultiples)
{
    constexpr size_t kChunk = 64;
    std::vector<unsigned char> buf = randomBytes(9 * kChunk, 6);
    for (unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
        EXPECT_EQ(detail::crc32Chunked(buf.data(), 0, kChunk, threads), 0u);
        for (size_t k = 1; k <= 8; ++k) {
            for (size_t len : {k * kChunk - 1, k * kChunk, k * kChunk + 1}) {
                EXPECT_EQ(detail::crc32Chunked(buf.data(), len, kChunk,
                                               threads),
                          referenceCrc(buf.data(), len))
                    << "length " << len << " on " << threads << " threads";
            }
        }
    }
    EXPECT_EQ(crc32Parallel(buf.data(), buf.size()),
              referenceCrc(buf.data(), buf.size()));
}

TEST(Crc32, ChunkedVisitSeesEveryPieceOnce)
{
    // Whole chunks, then the tail as its own piece: together they tile the
    // buffer exactly, and the checksum is unchanged by the visits.
    constexpr size_t kChunk = 64;
    std::vector<unsigned char> buf = randomBytes(9 * kChunk, 7);
    for (unsigned threads : {1u, 3u, 4u}) {
        for (size_t len : {size_t{0}, kChunk - 1, 5 * kChunk,
                           8 * kChunk + 13}) {
            std::mutex mutex;
            std::map<size_t, size_t> pieces;
            uint32_t crc = detail::crc32Chunked(
                buf.data(), len, kChunk, threads,
                [&](size_t offset, size_t n) {
                    std::lock_guard<std::mutex> lock(mutex);
                    EXPECT_TRUE(pieces.emplace(offset, n).second);
                });
            EXPECT_EQ(crc, referenceCrc(buf.data(), len));
            size_t next = 0;
            for (const auto &[offset, n] : pieces) {
                EXPECT_EQ(offset, next);
                EXPECT_LE(n, kChunk);
                next = offset + n;
            }
            EXPECT_EQ(next, len) << len << " bytes on " << threads;
        }
    }
}
