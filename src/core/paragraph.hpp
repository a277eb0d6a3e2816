/**
 * @file
 * Paragraph: the DDG extraction and analysis engine (paper Section 3.2).
 *
 * Paragraph consumes a serial execution trace one record at a time and
 * places every value-creating instruction into the dynamic dependency graph
 * using the live well. The DDG itself is never materialized — only its
 * topologically-sorted level structure, which suffices for the parallelism
 * profile, critical path, value lifetimes, and degree-of-sharing metrics.
 *
 * Placement rule (levels are 0-based; a value created by an operation of
 * latency t that issues at level i becomes available at Ldest = i + t - 1):
 *
 *     issue = MAX( MAX_over_sources(Lsrc) + 1,   true data dependencies
 *                  highestLevel,                 firewalls (syscalls, window)
 *                  Ddest + 1 )                   storage dependencies
 *
 * where Ddest is the deepest level of any computation that used (or created)
 * the previous value in the destination location, applied only when the
 * destination's storage class is not renamed. Sources absent from the live
 * well are pre-existing values, entered at highestLevel - 1 so they never
 * delay computation. Functional-unit limits slide the issue level further
 * down to the first level range with free units.
 *
 * Every record of every grid cell runs the placement, so the record loop
 * is compiled once per configuration shape — segment log, finite window,
 * FU limit, last-use eviction, full distributions or a cell's means — and
 * begin()/beginSegment() pick the one this run needs. Inside it those
 * switches are compile-time constants: a record pays only for the work
 * its configuration does (DESIGN.md §4.1).
 */

#ifndef PARAGRAPH_CORE_PARAGRAPH_HPP
#define PARAGRAPH_CORE_PARAGRAPH_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "core/branch_predictor.hpp"
#include "core/config.hpp"
#include "core/fu_throttle.hpp"
#include "core/live_well.hpp"
#include "core/result.hpp"
#include "core/segment_log.hpp"
#include "core/window.hpp"
#include "trace/buffer.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace paragraph {
namespace core {

/**
 * Carried true-run state at a split-and-patch boundary (core/shard.hpp):
 * everything a sequential replay needs to continue a solo-equivalent
 * analysis mid-trace. Levels are absolute (solo) levels.
 */
struct PatchCarry
{
    LiveWell well;        ///< live values at absolute levels
    int64_t floor = 0;    ///< firewall floor (highestLevel)
    int64_t deepest = -1; ///< deepest DDG level so far
    /** Last min(W, records seen) levels, oldest first (finite windows). */
    std::vector<int64_t> windowRing;
    /** FU-limited configs only: throttle occupancy rows for absolute
     *  levels [floor, deepest] (FuThrottle::snapshotSpan layout). Empty
     *  at a total firewall, where no occupied level is ever probed
     *  again. */
    std::vector<uint32_t> fuRows;
};

/**
 * Count a dying value into @p res: its lifetime (creation to deepest use)
 * and degree of sharing and, with @p Full, its storage-profile interval.
 * @p Full is AnalysisConfig::distributions: without it lifetimes and
 * sharing keep only a count and a sum (Histogram::tally), which is all a
 * sweep cell renders. Pre-existing values are not counted. Inline: runs
 * once per overwritten or evicted value on the placement hot path.
 */
template <bool Full>
inline void
retireValue(AnalysisResult &res, const LiveValue &lv)
{
    if (lv.preExisting)
        return;
    const auto lifetime = static_cast<uint64_t>(lv.deepestAccess - lv.level);
    if constexpr (Full) {
        res.lifetimes.add(lifetime);
        res.sharing.add(lv.useCount);
        if (lv.level >= 0) {
            res.storageProfile.add(static_cast<uint64_t>(lv.level),
                                   static_cast<uint64_t>(lv.deepestAccess));
        }
    } else {
        res.lifetimes.tally(lifetime);
        res.sharing.tally(lv.useCount);
    }
}

class Paragraph
{
  public:
    explicit Paragraph(AnalysisConfig cfg = {});

    /** Active configuration. */
    const AnalysisConfig &config() const { return cfg_; }

    /** Run a complete analysis: begin(), drain @p src, finish(). */
    AnalysisResult analyze(trace::TraceSource &src);

    /**
     * Run a complete analysis over an in-memory capture. Skips the
     * TraceSource virtual-dispatch-per-record path: the record loop walks
     * the buffer's contiguous storage directly. Results are identical to
     * the streaming overload.
     */
    AnalysisResult analyze(const trace::TraceBuffer &buffer);

    // --- Incremental interface (drive record-by-record) ------------------

    /** Reset all state for a new trace. */
    void begin();

    /**
     * Like begin(), but analyze the upcoming records as one shard segment:
     * boundary episodes of every touched location are recorded into @p log
     * (cleared first), and finish() exports the final live well instead of
     * retiring it — carried values' lifetimes belong to the stitch
     * (core/shard.hpp). @p log must outlive the run.
     */
    void beginSegment(SegmentLog *log);

    /**
     * Consume precomputed branch-predictor outcomes instead of the live
     * model: bit @p next_ordinal of @p bits (LSB-first within each 64-bit
     * word, one bit per conditional branch in trace order, 1 = mispredict)
     * decides the next conditional branch. Predictors are deterministic
     * functions of the branch-record stream alone, so a sequential pre-pass
     * over the whole trace makes predictor state cut-invariant for
     * split-and-patch (core/shard.hpp). Call after begin(), beginSegment()
     * or resumeSpan(); each of those clears the feed. @p bits must outlive
     * the run.
     */
    void
    feedMispredicts(const uint64_t *bits, uint64_t next_ordinal)
    {
        misBits_ = bits;
        misCursor_ = next_ordinal;
    }

    /**
     * Like begin(), but continue a solo-equivalent analysis from carried
     * mid-trace state: @p acc holds the metrics accumulated so far (at
     * absolute levels) and @p carry the live well, firewall floor, deepest
     * level and window ring at the boundary. Used by the split-and-patch
     * replay of segments whose splice conditions fail. With functional-unit
     * limits the boundary must either be a total firewall (floor ==
     * deepest + 1: all throttle occupancy sits strictly below the floor
     * and is never probed again, so an empty throttle is exact) or carry
     * the occupancy rows for [floor, deepest] in carry.fuRows — issue
     * levels never probe below the floor, so those rows are the entire
     * reachable throttle state.
     */
    void resumeSpan(AnalysisResult &&acc, PatchCarry &&carry);

    /**
     * Inverse of resumeSpan(): hand the accumulated metrics and carried
     * state back without retiring the live well. The engine is hollow
     * until the next begin()/beginSegment()/resumeSpan().
     */
    void suspendSpan(AnalysisResult &acc, PatchCarry &carry);

    /** Consume one trace record. */
    void process(const trace::TraceRecord &rec);

    /** Consume every record in @p buffer (stops early at maxInstructions). */
    void processAll(const trace::TraceBuffer &buffer);

    /**
     * Consume @p n contiguous records (stops early at maxInstructions).
     * The bulk inner loop shared by the buffer overload and the fused
     * multi-config pass: prefetched, with the cancel token polled every
     * few tens of thousands of records.
     */
    void processAll(const trace::TraceRecord *records, size_t n);

    /** True once maxInstructions records have been consumed. */
    bool done() const { return done_; }

    /** Retire remaining live values and return the metrics. */
    AnalysisResult finish();

    // --- Introspection (tests and examples) ------------------------------

    /** Firewall floor: first level available for placement. */
    int64_t highestLevel() const { return highestLevel_; }

    /** Deepest DDG level used so far (-1 before any placement). */
    int64_t deepestLevel() const { return deepestLevel_; }

    /** Level the last processed record was placed at (-1 if not placed). */
    int64_t lastPlacedLevel() const { return lastPlacedLevel_; }

    /** The live well (read-only). */
    const LiveWell &liveWell() const { return liveWell_; }

    /** Window ring: last min(W, seen) levels, oldest first; empty for
     *  unbounded windows. */
    std::vector<int64_t> windowRing() const;

  private:
    /**
     * The run-invariant switches the record loop is specialized on: each
     * combination is one instantiation of spanLoop(), and pickSpan()
     * chooses it once per run.
     */
    enum Shape : unsigned
    {
        shapeSegment = 1u << 0, ///< beginSegment(): boundary episodes logged
        shapeWindow = 1u << 1,  ///< a finite instruction window
        shapeFu = 1u << 2,      ///< a functional-unit limit
        shapeLastUse = 1u << 3, ///< two-pass (last-use) eviction
        shapeFull = 1u << 4,    ///< full distributions, not a cell's means
        shapeCount = 1u << 5,
    };

    /** A record loop: consume @p n contiguous records, counting none. */
    using SpanFn = void (Paragraph::*)(const trace::TraceRecord *, size_t);

    AnalysisConfig cfg_;
    LiveWell liveWell_;
    FuThrottle throttle_;
    BranchPredictor predictor_;
    std::unique_ptr<SlidingWindow> window_;
    AnalysisResult result_;

    int64_t highestLevel_ = 0;
    int64_t deepestLevel_ = -1;
    int64_t lastPlacedLevel_ = -1;
    bool done_ = false;
    bool finished_ = false;

    /** Segment mode: boundary-episode log (null in normal runs). */
    SegmentLog *segLog_ = nullptr;
    /** Max well size since the last first-touch event (segment mode). */
    uint64_t segPeakWindow_ = 0;
    /** Records consumed since beginSegment() (head-window logging). */
    uint64_t segSeen_ = 0;

    /** Precomputed mispredict bitvector (null: live predictor model). */
    const uint64_t *misBits_ = nullptr;
    /** Ordinal of the next conditional branch within misBits_. */
    uint64_t misCursor_ = 0;

    /** destRenamed() precomputed per kind byte (kind | segment << 4, at
     *  most 0x33 in a valid record): bit b answers byte b; see begin(). */
    uint64_t renamedByKindByte_ = 0;

    /** The record loop of this run's shape (pickSpan()). */
    SpanFn span_ = nullptr;

    /** Point span_ at the spanLoop() instantiation for the current
     *  configuration and segment mode. */
    void pickSpan();

    /** The record loop of one shape: step() over @p n records, prefetching
     *  the live-well slots a few records ahead. */
    template <unsigned ShapeBits>
    void spanLoop(const trace::TraceRecord *records, size_t n);

    /** Consume one record (no instruction counting: callers count spans):
     *  window, branch, placement and firewall work, with every switch in
     *  @p ShapeBits resolved at compile time. */
    template <unsigned ShapeBits>
    void step(const trace::TraceRecord &rec);

    /** Prefetch the live-well slots @p rec's memory operands will probe. */
    void prefetchRecord(const trace::TraceRecord &rec) const;

    /** Predict a conditional branch; firewall at its resolution level on a
     *  miss. */
    void handleCondBranch(const trace::TraceRecord &rec);

    /** True when the storage class of a destination with kind byte
     *  @p kind_seg has renaming enabled. */
    bool destRenamed(uint8_t kind_seg) const;

    /** Raise the firewall floor to @p level (counts a firewall if raised). */
    void raiseFloor(int64_t level);

    // --- Segment-mode hooks (called only when segLog_ is set) -------------

    /** A value entered the well at @p key: log a first touch (read or
     *  write) or just advance the peak watermark for a later episode. For
     *  a write-first touch, @p close_issue is the touching op's
     *  post-data-dependency issue level (the carried value's storage
     *  dependency applies to it solo-side), or
     *  SegmentImport::unconstrained when the destination is renamed. */
    void noteWellInsert(uint64_t key, bool via_read, int64_t close_issue);

    /** A pre-existing occupant of @p key died: capture its read stats into
     *  the open first-touch episode (later episodes are shift-identical to
     *  the solo run and need nothing). @p close_issue as above, for the
     *  overwriting op (unconstrained for eviction deaths). */
    void closeImport(uint64_t key, const LiveValue &lv, int64_t close_issue);
};

} // namespace core
} // namespace paragraph

#endif // PARAGRAPH_CORE_PARAGRAPH_HPP
