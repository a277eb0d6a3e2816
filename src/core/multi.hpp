/**
 * @file
 * Single-pass multi-configuration analysis (trace-major, block-major).
 *
 * The paper's Figure 8 re-extracted the DDG once per window size — "each
 * point in the graph represents a full DDG extraction and analysis of up to
 * 100,000,000 instructions (and requires approximately 10 hours on a
 * DECstation 3100)". The analyses are independent, so one pass over the
 * trace can feed any number of differently-configured engines: trace
 * generation (simulation, file decompression) is paid once instead of once
 * per configuration.
 *
 * Execution is block-major: each shared block is fetched once, then each
 * engine's bulk inner loop runs over the whole block — engine-major within
 * a block, so every live well stays cache-hot instead of being re-warmed
 * per record. Engines that hit their own maxInstructions leave a compact
 * live-engine list and stop costing anything. A streaming source fills one
 * reused block at a time on the calling thread (trace::SourceBlocks);
 * nothing decodes or simulates on a helper thread.
 *
 * Cancellation is honored: each engine's AnalysisConfig::cancel is polled
 * from its bulk loop at the same cadence as Paragraph::processAll, and
 * analyzeMany() propagates the resulting CancelledError (abandoning the
 * pass). analyzeManyGuarded() instead contains any engine's exception to
 * its own slot so sibling configurations still complete — the sweep
 * engine's fused groups are built on it.
 */

#ifndef PARAGRAPH_CORE_MULTI_HPP
#define PARAGRAPH_CORE_MULTI_HPP

#include <exception>
#include <vector>

#include "core/paragraph.hpp"
#include "trace/block_source.hpp"
#include "trace/buffer.hpp"
#include "trace/source.hpp"

namespace paragraph {
namespace core {

/**
 * Analyze one trace under several configurations in a single pass.
 *
 * Equivalent to running Paragraph::analyze once per configuration over a
 * reset source (a tested invariant), but the trace is produced only once.
 * Engines that hit their own maxInstructions simply stop consuming; when
 * every config is capped, the source is never drained past the largest cap.
 *
 * Throws on the first engine or source error — including CancelledError
 * when any config's AnalysisConfig::cancel fires — abandoning the pass.
 *
 * @return one AnalysisResult per configuration, in order.
 */
std::vector<AnalysisResult>
analyzeMany(trace::TraceSource &src,
            const std::vector<AnalysisConfig> &configs);

/**
 * The most records a fused pass under @p configs can consume: the largest
 * AnalysisConfig::maxInstructions, or 0 (the whole trace) when any config
 * is uncapped or there are none.
 */
uint64_t passRecordLimit(const std::vector<AnalysisConfig> &configs);

/** Per-config outcome of a guarded fused pass. */
struct MultiOutcome
{
    /** Valid only when error is empty. */
    AnalysisResult result;

    /** The engine's exception (CancelledError included); null when ok. */
    std::exception_ptr error;

    /** Seconds spent inside this engine's bulk loop and finish() — the
     *  per-config share of the fused pass (block fetches are shared and
     *  not attributed). */
    double engineSeconds = 0.0;

    /** Seconds the fused pass spent fetching blocks (a streamed source's
     *  inline decode or simulation) — shared across the whole pass, so
     *  every outcome carries the same value. */
    double decodeSeconds = 0.0;
};

/**
 * Like analyzeMany(), but an engine's exception is contained to its own
 * MultiOutcome slot: the failing engine is dropped from the pass and every
 * sibling configuration still completes. Source errors (a corrupt trace
 * file, for instance) affect all engines equally and are still thrown.
 * The source fills one reused 4K-record block at a time on the calling
 * thread, up to passRecordLimit(@p configs) records.
 */
std::vector<MultiOutcome>
analyzeManyGuarded(trace::TraceSource &src,
                   const std::vector<AnalysisConfig> &configs);

/**
 * Guarded fused pass over an in-memory capture: the engines' bulk loops
 * walk the buffer's contiguous storage in shared blocks directly — no
 * copies, no producer thread. Results are identical to the source overload.
 */
std::vector<MultiOutcome>
analyzeManyGuarded(const trace::TraceBuffer &buffer,
                   const std::vector<AnalysisConfig> &configs);

/**
 * Guarded fused pass fed straight from a BlockSource (a shared decode
 * cursor or any block producer). Each handed-out block is consumed by
 * every live engine before the next is requested; results are identical
 * to the other overloads over the same records.
 */
std::vector<MultiOutcome>
analyzeManyGuarded(trace::BlockSource &blocks,
                   const std::vector<AnalysisConfig> &configs);

} // namespace core
} // namespace paragraph

#endif // PARAGRAPH_CORE_MULTI_HPP
