/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), bit-identical to
 * zlib's crc32().
 *
 * Used by the v2 trace file format to checksum the header and the record
 * payload so a flipped byte in a multi-gigabyte capture is a diagnosed
 * error rather than silent analysis corruption. Incremental form matches
 * zlib's crc32(): crc32Update(crc32Update(0, a, la), b, lb) equals
 * crc32Of(ab) for the concatenation.
 *
 * Two kernels compute it. On an x86-64 CPU that reports PCLMULQDQ and
 * SSE4.1 (checked once at run time; compiled under the PARAGRAPH_SIMD
 * build option), inputs of 64 bytes or more fold 64 bytes per step with
 * carry-less multiplies (Gopal et al., Intel 2009). Shorter inputs, the
 * last len % 16 bytes, and every input on other CPUs go through portable
 * slicing-by-16: sixteen 256-entry tables, built at compile time, fold
 * 16 bytes per step.
 */

#ifndef PARAGRAPH_SUPPORT_CRC32_HPP
#define PARAGRAPH_SUPPORT_CRC32_HPP

#include <cstddef>
#include <cstdint>
#include <functional>

namespace paragraph {

/** Extend @p crc (a previous crc32 result, or 0) over @p len bytes. */
uint32_t crc32Update(uint32_t crc, const void *data, size_t len);

/** CRC-32 of one buffer. */
inline uint32_t
crc32Of(const void *data, size_t len)
{
    return crc32Update(0, data, len);
}

/**
 * CRC-32 of the concatenation ab from @p crcA = crc32Of(a),
 * @p crcB = crc32Of(b) and @p lenB = |b| (zlib's crc32_combine).
 */
uint32_t crc32Combine(uint32_t crcA, uint32_t crcB, uint64_t lenB);

/** Called with the (offset, length) of each piece a chunked CRC has just
 *  checksummed, on the thread that checksummed it. */
using Crc32ChunkFn = std::function<void(size_t, size_t)>;

/** Default chunk of crc32Parallel(): large enough that a thread's start
 *  and the combine step vanish against the bytes it checksums. */
constexpr size_t crc32ChunkBytes = size_t{8} << 20;

/**
 * crc32Of(@p data, @p len), computed in @p chunkBytes chunks on up to
 * hardware_concurrency() threads and combined; serial when there is only
 * one chunk or one thread. @p visit, if set, gets each piece right after
 * it is checksummed, while its bytes are in cache: every whole chunk, and
 * the tail as a piece of its own; it runs concurrently on the
 * checksumming threads.
 */
uint32_t crc32Parallel(const void *data, size_t len,
                       size_t chunkBytes = crc32ChunkBytes,
                       const Crc32ChunkFn &visit = {});

namespace detail {

/** The slicing-by-16 kernel alone: crc32Update() on a CPU without the
 *  folding kernel, and the reference the folding kernel is tested
 *  against. */
uint32_t crc32Slicing16(uint32_t crc, const void *data, size_t len);

/** True when crc32Update() folds with PCLMULQDQ: an x86-64 build with
 *  PARAGRAPH_SIMD, on a CPU that reports PCLMULQDQ and SSE4.1. */
bool crc32HasClmul();

/** crc32Update() through the PCLMULQDQ fold, whatever the length (under 64
 *  bytes, slicing-by-16 alone). Call only when crc32HasClmul() holds; a
 *  build without the kernel runs slicing-by-16. */
uint32_t crc32Clmul(uint32_t crc, const void *data, size_t len);

/**
 * crc32Parallel() with its chunking as parameters: the buffer is cut into
 * whole @p chunkBytes chunks (> 0) and a tail, up to @p maxThreads threads
 * each checksum a contiguous run of them, and @p visit (if set) sees each
 * piece as crc32Parallel's does.
 */
uint32_t crc32Chunked(const void *data, size_t len, size_t chunkBytes,
                      unsigned maxThreads, const Crc32ChunkFn &visit = {});

} // namespace detail

} // namespace paragraph

#endif // PARAGRAPH_SUPPORT_CRC32_HPP
