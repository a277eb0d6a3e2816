/**
 * @file
 * Record validation: the range checks every record read from a trace file
 * passes before anything indexes a table with its fields.
 *
 * A record on disk is the record the analyzer reads (record.hpp), so
 * validation is the only work between a mapped payload and the placement
 * loop. At streaming rates per-record branches would dominate it, so the
 * bulk check is split: a SIMD scan proves every record in a block passes
 * (the eight leading bytes of a record carry every range-checked field);
 * only when it finds a bad byte does the scalar check run, so the
 * FatalError names the exact record and byte offset.
 *
 * SSE2 / NEON variants are selected under the PARAGRAPH_SIMD build option;
 * without it (or on other architectures) a scalar 64-bit scan runs the same
 * checks, with the same verdict.
 */

#ifndef PARAGRAPH_TRACE_VALIDATE_HPP
#define PARAGRAPH_TRACE_VALIDATE_HPP

#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/record.hpp"

namespace paragraph {
namespace trace {

/**
 * Range-check one record: operation class, flag bits, source count,
 * last-use mask, operand kinds and segments. Throws FatalError naming the
 * first bad field ("bad source count 9"), without a location.
 */
void checkRecord(const TraceRecord &rec);

/**
 * True iff all @p n records pass checkRecord(). SIMD-accelerated when
 * built with PARAGRAPH_SIMD.
 */
bool packedRecordsValid(const TraceRecord *in, size_t n);

/**
 * Check @p n records read from @p path. On any invalid record throws the
 * located FatalError "<path>: bad ... (record <index> at offset
 * <offset>)", where the index counts from @p firstIndex within the named
 * file.
 */
void validateRecords(const TraceRecord *in, size_t n, const std::string &path,
                     uint64_t firstIndex);

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_VALIDATE_HPP
