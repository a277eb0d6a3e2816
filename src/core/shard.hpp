/**
 * @file
 * Split-and-patch trace sharding: split one trace at arbitrary boundaries,
 * analyze the segments independently, and patch an exact solo-equivalent
 * result — for every configuration.
 *
 * A segment analyzed from scratch reproduces the solo run's placements
 * shifted down by the true firewall floor F at its cut whenever nothing
 * carried across the boundary can reach the shifted placements:
 *
 *  - data dependencies on carried values never bind
 *    (carried.level + 1 <= floor-at-first-touch + F);
 *  - storage dependencies on carried values never bind
 *    (carried.deepestAccess + 1 <= close-issue + F);
 *  - window displacements of pre-cut entries are no-op floor raises while
 *    the fresh window fills, and the displacement streams coincide after;
 *  - the first stalling syscall re-anchors both floors at the same level;
 *  - with functional-unit limits, the boundary is a total firewall
 *    (floor == deepest + 1), so pre-cut throttle occupancy — which never
 *    extends past the deepest level — is never probed again.
 *
 * At a total-firewall cut (immediately after a stalling syscall under the
 * paper's conservative assumption) every condition holds unconditionally —
 * that is PR 7's firewall-point theorem as a special case. At an arbitrary
 * cut the conditions are checked per segment against the carried state
 * (patchSegments): segments that pass are spliced in O(boundary episodes);
 * segments that fail are replayed sequentially through a resumable
 * Paragraph seeded with the exact true state, which is byte-exact by
 * construction. Modeled branch predictors are made cut-invariant by a
 * sequential predictor pre-pass that precomputes a per-branch mispredict
 * bitvector (predictors consume only the branch-record stream).
 *
 * The boundary data a segment exports — first-touch import episodes, head
 * floors/levels, window tail, per-level op counts, well watermarks — is
 * described in core/segment_log.hpp. The patch reproduces every counter,
 * the lifetime/sharing histograms, the live-well peak, the critical path
 * and the ops-per-level profile exactly; the storage profile is re-based
 * bin-accurately (exact at unit bucket width).
 */

#ifndef PARAGRAPH_CORE_SHARD_HPP
#define PARAGRAPH_CORE_SHARD_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/paragraph.hpp"
#include "core/result.hpp"
#include "core/segment_log.hpp"
#include "trace/record.hpp"

namespace paragraph {
namespace core {

/**
 * True when @p cfg admits the firewall-point fast path: every cut after a
 * stalling syscall is a total firewall, so all splices validate and the
 * predictor pre-pass is unnecessary. Sharding itself no longer requires
 * this — patchSegments handles every config.
 */
bool shardableConfig(const AnalysisConfig &cfg);

/**
 * Per-branch mispredict bits from the sequential predictor pre-pass:
 * bit i (LSB-first within each word) is 1 when conditional branch i of the
 * trace mispredicts under the modeled predictor.
 */
struct MispredictBits
{
    std::vector<uint64_t> words;
    uint64_t count = 0; ///< conditional branches recorded

    void
    push(bool mispredicted)
    {
        if ((count & 63) == 0)
            words.push_back(0);
        if (mispredicted)
            words.back() |= 1ULL << (count & 63);
        ++count;
    }

    bool bit(uint64_t i) const { return (words[i >> 6] >> (i & 63)) & 1; }
};

/**
 * Sequential predictor pre-pass: run the modeled predictor once over the
 * branch-record stream (no live well, no placement — cheap) to make
 * predictor state cut-invariant. Feed records in trace order, possibly in
 * chunks (e.g. a mapped trace's blocks); collects the mispredict bitvector
 * and the record positions immediately after mispredicted branches, which
 * are natural cut candidates (the firewall raise at a mispredict tends to
 * clear the live well the same way a syscall stall does).
 */
class PredictorPrepass
{
  public:
    explicit PredictorPrepass(const AnalysisConfig &cfg);

    /** Consume @p n records continuing the global trace order. */
    void feed(const trace::TraceRecord *records, size_t n);

    MispredictBits bits;
    std::vector<size_t> mispredictCuts; ///< record index after each miss

  private:
    BranchPredictor predictor_;
    size_t offset_ = 0;
};

/**
 * A full split plan over one trace: interior cut positions plus the
 * predictor pre-pass products segments need (empty bits when the predictor
 * is Perfect).
 */
struct PatchPlan
{
    /** Sorted interior cut positions; empty means run solo. */
    std::vector<size_t> cuts;

    /** Mispredict bitvector (modeled predictors only). */
    MispredictBits bits;

    /** Per segment: conditional branches preceding its first record. */
    std::vector<uint64_t> branchBase;

    /** True when the cuts sit at stall/mispredict candidates rather than
     *  on plain equal tiles. Under shardableConfig() every such cut is a
     *  total firewall, so every splice validates by construction. */
    bool naturalCuts = false;

    size_t segments() const { return cuts.size() + 1; }
};

/**
 * Plan up to @p shards segments over @p records[0, n) under @p cfg. Cut
 * candidates are the positions immediately after stalling syscalls (when
 * the config stalls) and after mispredicted branches (modeled predictors,
 * discovered by the pre-pass run here); with no candidates at all the plan
 * falls back to plain equal-spacing cuts — the patch validates every
 * splice and replays on failure, so correctness never depends on the cut
 * choice, only speed does. Returns an empty-cut plan when shards < 2 or
 * the trace has fewer than 2 records.
 */
PatchPlan planPatchPlan(const AnalysisConfig &cfg,
                        const trace::TraceRecord *records, size_t n,
                        unsigned shards);

/**
 * Choose up to @p shards - 1 cut positions over @p records[0, n): each cut
 * is a record index immediately after a syscall record, picked nearest to
 * the equal-spacing targets k * n / shards — the firewall-only planner.
 * Returns a sorted, deduplicated list of interior cut positions (empty
 * when the trace has no interior syscall — the caller falls back to a solo
 * run).
 */
std::vector<size_t> planShardCuts(const trace::TraceRecord *records,
                                  size_t n, unsigned shards);

/** One analyzed segment: its standalone result plus the boundary log. */
struct SegmentRun
{
    AnalysisResult result;
    SegmentLog log;
};

/**
 * Analyze @p records[0, n) as one shard segment under @p cfg (segment
 * instruction caps are ignored: the caller slices exact spans). Runs on
 * the calling thread; segments are independent, so callers parallelize by
 * invoking this from one thread per segment. For modeled predictors pass
 * the plan's bitvector and the segment's branchBase so the segment
 * consumes the precomputed, cut-invariant outcomes.
 */
void runSegment(const AnalysisConfig &cfg, const trace::TraceRecord *records,
                size_t n, SegmentRun &out,
                const MispredictBits *bits = nullptr,
                uint64_t branch_base = 0);

/**
 * Stitch segment results (in trace order) into the solo-equivalent
 * AnalysisResult, assuming every boundary is a valid splice point (the
 * firewall fast path: shardableConfig() with stall cuts). All counters,
 * the lifetime/sharing histograms, the live-well peak/final population,
 * the critical path and the ops-per-level profile are exact; the storage
 * profile is folded at each segment's bucket resolution. analysisSeconds
 * is left 0 (the caller owns wall-clock attribution).
 */
AnalysisResult stitchSegments(const AnalysisConfig &cfg,
                              std::vector<SegmentRun> &segments);

/** How patchSegments resolved each boundary. */
struct PatchOutcome
{
    unsigned spliced = 0;  ///< segments merged via the O(episodes) splice
    unsigned replayed = 0; ///< segments re-run sequentially
};

/**
 * Re-feed segment @p seg's records into @p engine (which is mid-run via
 * resumeSpan): processAll() over the segment's exact record span(s).
 */
using SegmentFeed = std::function<void(Paragraph &engine, size_t seg)>;

/**
 * Validate-or-replay patch: walk @p segments in trace order carrying the
 * true live well, floor, deepest level and window ring. Each segment whose
 * splice conditions hold (see file header) is merged exactly like
 * stitchSegments; each segment that fails is replayed sequentially through
 * a resumable Paragraph seeded with the true boundary state — consecutive
 * failing segments share one engine session, preserving functional-unit
 * and window continuity. The result is byte-exact against a solo run for
 * every configuration. @p replay may be null only when every boundary is
 * guaranteed to splice (e.g. shardableConfig() stall cuts); @p bits (with
 * @p branch_base, both from the plan) is required for modeled predictors.
 */
AnalysisResult patchSegments(const AnalysisConfig &cfg,
                             std::vector<SegmentRun> &segments,
                             const SegmentFeed &replay,
                             const MispredictBits *bits = nullptr,
                             const std::vector<uint64_t> *branch_base =
                                 nullptr,
                             PatchOutcome *outcome = nullptr);

/**
 * Exact-equivalence check between a solo result and a patched result:
 * every counter and histogram must match exactly, and the ops-per-level
 * profile must match bin-for-bin; the storage profile is compared on its
 * exact scalar invariants (interval count, levels-lived, deepest level).
 * On mismatch, appends a description to @p diff (when non-null) and
 * returns false. Timing and live-well byte fields are excluded
 * (machine-dependent).
 */
bool shardedResultsEqual(const AnalysisResult &solo,
                         const AnalysisResult &stitched, std::string *diff);

} // namespace core
} // namespace paragraph

#endif // PARAGRAPH_CORE_SHARD_HPP
