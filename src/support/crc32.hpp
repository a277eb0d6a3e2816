/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), bit-identical to
 * zlib's crc32().
 *
 * Used by the v2 trace file format to checksum the header and the record
 * payload so a flipped byte in a multi-gigabyte capture is a diagnosed
 * error rather than silent analysis corruption. Incremental form matches
 * zlib's crc32(): crc32Update(crc32Update(0, a, la), b, lb) equals
 * crc32Of(ab) for the concatenation. The kernel is portable
 * slicing-by-16: sixteen 256-entry tables, built at compile time, fold
 * 16 bytes per step.
 */

#ifndef PARAGRAPH_SUPPORT_CRC32_HPP
#define PARAGRAPH_SUPPORT_CRC32_HPP

#include <cstddef>
#include <cstdint>

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

/**
 * crc32Of(@p data, @p len), computed in chunks of at least 8 MiB on up to
 * hardware_concurrency() threads and combined; serial when there is only
 * one chunk or one thread.
 */
uint32_t crc32Parallel(const void *data, size_t len);

namespace detail {

/**
 * crc32Parallel() with its chunking as parameters: the buffer is cut into
 * whole @p chunkBytes chunks (> 0), the last one also taking the tail, and
 * up to @p maxThreads threads each checksum a contiguous run of them.
 */
uint32_t crc32Chunked(const void *data, size_t len, size_t chunkBytes,
                      unsigned maxThreads);

} // namespace detail

} // namespace paragraph

#endif // PARAGRAPH_SUPPORT_CRC32_HPP
