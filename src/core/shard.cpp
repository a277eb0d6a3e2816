#include "core/shard.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "core/window.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace core {

bool
shardableConfig(const AnalysisConfig &cfg)
{
    // Every stall cut is a total firewall (the floor clears the whole live
    // well) and prediction carries no table state: all splices validate.
    return cfg.sysCallsStall &&
           cfg.branchPredictor == PredictorKind::Perfect;
}

PredictorPrepass::PredictorPrepass(const AnalysisConfig &cfg)
    : predictor_(cfg.branchPredictor, cfg.predictorTableBits)
{
}

void
PredictorPrepass::feed(const trace::TraceRecord *records, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        if (!records[i].isCondBranch())
            continue;
        bool correct =
            predictor_.predictAndUpdate(records[i].pc,
                                        records[i].branchTaken());
        bits.push(!correct);
        if (!correct)
            mispredictCuts.push_back(offset_ + i + 1);
    }
    offset_ += n;
}

namespace {

/** Pick up to @p shards - 1 cuts from the sorted, non-empty
 *  @p candidates, nearest to the equal-spacing targets over @p n records. */
std::vector<size_t>
selectShardCuts(const std::vector<size_t> &candidates, size_t n,
                unsigned shards)
{
    std::vector<size_t> cuts;
    for (unsigned k = 1; k < shards; ++k) {
        size_t target = static_cast<size_t>(
            static_cast<uint64_t>(n) * k / shards);
        auto it = std::lower_bound(candidates.begin(), candidates.end(),
                                   target);
        size_t best;
        if (it == candidates.end())
            best = candidates.back();
        else if (it == candidates.begin())
            best = *it;
        else
            best = (*it - target < target - *(it - 1)) ? *it : *(it - 1);
        cuts.push_back(best);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    return cuts;
}

} // namespace

std::vector<size_t>
planShardCuts(const trace::TraceRecord *records, size_t n, unsigned shards)
{
    // A stalling, perfectly predicted config: syscall candidates only, and
    // no equal-tile fallback.
    PatchPlan plan = planPatchPlan(AnalysisConfig(), records, n, shards);
    return plan.naturalCuts ? plan.cuts : std::vector<size_t>();
}

PatchPlan
planPatchPlan(const AnalysisConfig &cfg, const trace::TraceRecord *records,
              size_t n, unsigned shards)
{
    PatchPlan plan;
    const bool modeled = cfg.branchPredictor != PredictorKind::Perfect;
    const bool cutting = shards >= 2 && n >= 2;

    // The predictor pre-pass and the stall candidates.
    PredictorPrepass pre(cfg);
    std::vector<size_t> candidates;
    if (modeled)
        pre.feed(records, n);
    if (cutting && cfg.sysCallsStall) {
        for (size_t i = 0; i + 1 < n; ++i) {
            if (records[i].isSysCall())
                candidates.push_back(i + 1);
        }
    }

    if (cutting) {
        if (modeled) {
            for (size_t pos : pre.mispredictCuts) {
                if (pos < n)
                    candidates.push_back(pos);
            }
            std::sort(candidates.begin(), candidates.end());
            candidates.erase(
                std::unique(candidates.begin(), candidates.end()),
                candidates.end());
        }
        plan.naturalCuts = !candidates.empty();
        if (plan.naturalCuts) {
            plan.cuts = selectShardCuts(candidates, n, shards);
        } else {
            // No natural boundary anywhere: plain equal-spacing cuts. The
            // patch validates every splice and replays on failure, so the
            // cut choice only affects speed, never correctness.
            for (unsigned k = 1; k < shards; ++k) {
                size_t pos = n * k / shards;
                if (pos > 0 && pos < n)
                    plan.cuts.push_back(pos);
            }
            plan.cuts.erase(
                std::unique(plan.cuts.begin(), plan.cuts.end()),
                plan.cuts.end());
        }
    }

    if (modeled) {
        // Each segment's branch base: the conditional branches before it.
        plan.branchBase.assign(plan.cuts.size() + 1, 0);
        uint64_t base = 0;
        size_t pos = 0;
        for (size_t s = 0; s < plan.cuts.size(); ++s) {
            for (; pos < plan.cuts[s]; ++pos)
                base += records[pos].isCondBranch();
            plan.branchBase[s + 1] = base;
        }
        plan.bits = std::move(pre.bits);
    }
    return plan;
}

void
runSegment(const AnalysisConfig &cfg, const trace::TraceRecord *records,
           size_t n, SegmentRun &out, const MispredictBits *bits,
           uint64_t branch_base)
{
    AnalysisConfig seg_cfg = cfg;
    seg_cfg.maxInstructions = 0; // the caller slices exact spans
    Paragraph engine(seg_cfg);
    out.log.reserve(n);
    engine.beginSegment(&out.log);
    if (bits)
        engine.feedMispredicts(bits->words.data(), branch_base);
    engine.processAll(records, n);
    out.result = engine.finish();
}

namespace {

/**
 * The sequential patch walk's accumulator: the true (solo) state at the
 * current boundary plus the merged result so far. splice() is the exact
 * merge of one validated segment — the firewall stitch generalized to an
 * arbitrary boundary at floor off.
 */
struct Splicer
{
    const AnalysisConfig &cfg;
    AnalysisResult out;

    /** Carried live well: values alive across the current boundary, at
     *  absolute (solo) levels. Mirrors the solo run's well exactly. */
    LiveWell well;

    uint64_t watermarkPeak = 0; ///< solo well peak from segment watermarks
    uint64_t off = 0;           ///< true firewall floor at the boundary
    int64_t deepest = -1;       ///< true deepest level so far
    uint64_t peakBytes = 0;
    std::vector<int64_t> ring; ///< true window ring, oldest first

    /** FU-limited configs: throttle occupancy rows for the boundary span
     *  [off, deepest] (empty at a total firewall). An FU-limited splice
     *  requires its cut be a total firewall, so all occupancy reachable
     *  from the boundary comes from the last boundary-moving segment
     *  alone — its fuTail is the complete carry for a later replay. */
    std::vector<uint32_t> fuRows;

    std::vector<char> wasCarried;

    explicit Splicer(const AnalysisConfig &c) : cfg(c)
    {
        out.profile = BucketedProfile(cfg.profileBins);
        out.storageProfile = IntervalProfile(cfg.profileBins);
    }

    void
    retireInto(const LiveValue &lv)
    {
        if (cfg.distributions)
            retireValue<true>(out, lv);
        else
            retireValue<false>(out, lv);
    }

    void splice(SegmentRun &seg);
    AnalysisResult finish();
};

void
Splicer::splice(SegmentRun &seg)
{
    const AnalysisResult &r = seg.result;
    out.instructions += r.instructions;
    out.placedOps += r.placedOps;
    out.sysCalls += r.sysCalls;
    out.firewalls += r.firewalls;
    out.preExistingValues += r.preExistingValues;
    out.storageDelayedOps += r.storageDelayedOps;
    out.fuDelayedOps += r.fuDelayedOps;
    out.condBranches += r.condBranches;
    out.branchMispredictions += r.branchMispredictions;
    if (r.liveWellPeakBytes > peakBytes)
        peakBytes = r.liveWellPeakBytes;

    const SegmentLog &log = seg.log;

    // Boundary-episode walk. The solo well size at any instant is
    //   segment-relative size + carried - touchedCarried:
    // each first touch of a carried location adds a segment-local entry
    // where solo re-uses (read) or replaces in place (write) the carried
    // one. The watermarks between touches therefore reconstruct the solo
    // live-well peak exactly.
    uint64_t carried = well.size();
    uint64_t touched = 0;
    wasCarried.assign(log.imports.size(), 0);
    for (size_t i = 0; i < log.imports.size(); ++i) {
        const SegmentImport &im = log.imports[i];
        LiveValue *cv = well.find(im.key);
        wasCarried[i] = cv != nullptr;
        uint64_t cand = im.peakBefore + carried - touched;
        if (cand > watermarkPeak)
            watermarkPeak = cand;
        if (cv)
            ++touched;
        cand = im.sizeAfter + carried - touched;
        if (cand > watermarkPeak)
            watermarkPeak = cand;
        if (!cv)
            continue;
        if (im.viaRead) {
            // The segment entered a fresh pre-existing value where the
            // solo run read the carried one.
            --out.preExistingValues;
        }
        cv->useCount += im.useCount; // wraparound matches solo
        if (im.useCount > 0) {
            int64_t abs_read = static_cast<int64_t>(off) + im.maxReadRel;
            if (abs_read > cv->deepestAccess)
                cv->deepestAccess = abs_read;
        }
        if (im.died) {
            retireInto(*cv);
            well.killFound(im.key, cv);
        }
    }
    uint64_t cand = log.trailingPeak + carried - touched;
    if (cand > watermarkPeak)
        watermarkPeak = cand;

    // Segment-local distributions (levels re-based by the offset). The
    // ops profile is rebuilt from the log's exact per-level counts — the
    // segment's own BucketedProfile may have folded, and mergeShifted of
    // a folded profile is only bin-accurate.
    out.lifetimes.merge(r.lifetimes);
    out.sharing.merge(r.sharing);
    for (size_t lvl = 0; lvl < log.levelOps.size(); ++lvl) {
        if (log.levelOps[lvl])
            out.profile.add(off + lvl, log.levelOps[lvl]);
    }
    out.storageProfile.mergeShifted(r.storageProfile, off);

    // Fold the segment's final well into the carried well. A carried
    // location whose first-touch value is still open keeps its carried
    // entry (the read stats were folded above); everything else is the
    // solo well's content, shifted.
    for (const auto &kv : log.exports) {
        const uint64_t key = kv.first;
        const LiveValue &lv = kv.second;
        if (lv.preExisting) {
            if (const uint32_t *pos = log.index.find(key)) {
                const SegmentImport &im = log.imports[*pos];
                if (!im.died && wasCarried[*pos])
                    continue;
            }
        }
        LiveValue shifted = lv;
        shifted.level += static_cast<int64_t>(off);
        shifted.deepestAccess += static_cast<int64_t>(off);
        well.insertOrAssign(key, shifted);
    }

    if (log.relDeepest >= 0) {
        int64_t seg_deepest = static_cast<int64_t>(off) + log.relDeepest;
        if (seg_deepest > deepest)
            deepest = seg_deepest;
    }

    // Carry the true window ring: the segment's tail (shifted) appended to
    // the previous ring, trimmed to the last W entries.
    if (cfg.windowSize > 0) {
        for (int64_t lvl : log.windowTail) {
            ring.push_back(lvl == SlidingWindow::notPlaced
                               ? lvl
                               : lvl + static_cast<int64_t>(off));
        }
        const size_t w = static_cast<size_t>(cfg.windowSize);
        if (ring.size() > w)
            ring.erase(ring.begin(),
                       ring.begin() + static_cast<long>(ring.size() - w));
    }

    // A boundary-moving segment owns every level reachable from the new
    // boundary (its cut was a total firewall under FU limits); a segment
    // that moved neither the floor nor the deepest level leaves the
    // carried occupancy in force.
    if (log.relHighest > 0 || log.relDeepest >= 0)
        fuRows = std::move(seg.log.fuTail);

    off += static_cast<uint64_t>(log.relHighest);
}

AnalysisResult
Splicer::finish()
{
    well.forEach([&](uint64_t, const LiveValue &lv) { retireInto(lv); });
    out.liveWellFinal = well.size();
    // Watermarks cover every spliced instant; the well's own peak covers
    // replayed spans (it travels with the well through resume/suspend) and
    // never exceeds a true boundary population during splices.
    out.liveWellPeak =
        std::max(watermarkPeak, static_cast<uint64_t>(well.peakSize()));
    out.liveWellPeakBytes = peakBytes;
    out.criticalPathLength =
        deepest >= 0 ? static_cast<uint64_t>(deepest) + 1 : 0;
    out.availableParallelism =
        out.criticalPathLength
            ? static_cast<double>(out.placedOps) /
                  static_cast<double>(out.criticalPathLength)
            : 0.0;
    return out;
}

/** True when @p cfg enables any functional-unit limit. */
bool
fuLimitedConfig(const AnalysisConfig &cfg)
{
    if (cfg.totalFuLimit > 0)
        return true;
    for (uint32_t lim : cfg.fuLimit) {
        if (lim > 0)
            return true;
    }
    return false;
}

/**
 * The split-and-patch validity conditions for splicing @p seg onto the
 * true boundary state (floor @p F, deepest @p deepest, carried @p well,
 * window ring @p ring): true iff the fresh segment run is the solo run
 * shifted by F. Checked in trace-event order, so the first failing
 * condition is the first true divergence and the whole segment replays.
 */
bool
canSpliceAt(const AnalysisConfig &cfg, int64_t F, int64_t deepest,
            const LiveWell &well, const std::vector<int64_t> &ring,
            const SegmentRun &seg)
{
    const SegmentLog &log = seg.log;

    // Functional-unit limits: placement is shift-invariant only when no
    // pre-boundary occupancy can be probed again. Occupancy never extends
    // past the deepest level, and first-fit search starts at the floor —
    // a total firewall therefore isolates it for good.
    if (fuLimitedConfig(cfg) && F != deepest + 1)
        return false;

    // First stalling syscall: both runs re-anchor the floor at
    // deepest + 1. The anchors coincide iff the fresh deepest (shifted)
    // has caught up with the true deepest by then; afterwards alignment
    // is unconditional.
    if (log.firstStallDeepest != SegmentLog::noStall &&
        F + log.firstStallDeepest < deepest)
        return false;

    // Finite window: while the fresh window is still filling, the true
    // run displaces pre-boundary entries the fresh run cannot see; each
    // such raise must be a no-op against the true floor of that record.
    if (cfg.windowSize > 0) {
        const size_t w = static_cast<size_t>(cfg.windowSize);
        const size_t r = ring.size();
        const uint64_t n = seg.result.instructions;
        const size_t lim = static_cast<size_t>(
            std::min<uint64_t>(n, static_cast<uint64_t>(w)));
        for (size_t j = 0; j < lim; ++j) {
            if (r + j < w)
                continue; // true window not yet full: no displacement
            const size_t pos = r + j - w;
            int64_t lvl;
            if (pos < r) {
                lvl = ring[pos]; // pre-boundary entry, absolute level
            } else {
                lvl = log.headLevels[pos - r]; // segment-own, fresh level
                if (lvl != SlidingWindow::notPlaced)
                    lvl += F;
            }
            if (lvl == SlidingWindow::notPlaced)
                continue;
            if (lvl + 1 > F + log.headFloors[j])
                return false;
        }
    }

    // Carried-location first touches: the carried value must never bind —
    // neither as a data dependency at its first read nor as a storage
    // dependency at the episode's closing overwrite.
    for (const SegmentImport &im : log.imports) {
        const LiveValue *cv = well.find(im.key);
        if (!cv)
            continue;
        if (im.viaRead && cv->level + 1 > im.floorAtTouch + F)
            return false;
        if (im.closeIssue != SegmentImport::unconstrained &&
            cv->deepestAccess + 1 > im.closeIssue + F)
            return false;
    }
    return true;
}

} // namespace

AnalysisResult
stitchSegments(const AnalysisConfig &cfg, std::vector<SegmentRun> &segments)
{
    Splicer sp(cfg);
    for (SegmentRun &seg : segments)
        sp.splice(seg);
    return sp.finish();
}

AnalysisResult
patchSegments(const AnalysisConfig &cfg, std::vector<SegmentRun> &segments,
              const SegmentFeed &replay, const MispredictBits *bits,
              const std::vector<uint64_t> *branch_base,
              PatchOutcome *outcome)
{
    PARA_ASSERT(cfg.branchPredictor == PredictorKind::Perfect ||
                    bits != nullptr,
                "modeled predictors need the pre-pass bitvector");
    Splicer sp(cfg);
    PatchOutcome oc;

    // The replay engine is created on first use and kept across
    // non-adjacent replays (resumeSpan reseeds all state). While a replay
    // session is open the true state lives inside the engine; consecutive
    // failing segments share the session, preserving functional-unit and
    // window continuity across boundaries that are not total firewalls.
    std::unique_ptr<Paragraph> engine;
    bool inEngine = false;

    auto suspendInto = [&]() {
        PatchCarry carry;
        if (engine->liveWell().memoryBytes() > sp.peakBytes)
            sp.peakBytes = engine->liveWell().memoryBytes();
        engine->suspendSpan(sp.out, carry);
        sp.well = std::move(carry.well);
        sp.off = static_cast<uint64_t>(carry.floor);
        sp.deepest = carry.deepest;
        sp.ring = std::move(carry.windowRing);
        // Mid-walk suspension means the next segment's splice validated,
        // which under FU limits requires this boundary be a total
        // firewall: no throttle rows to carry.
        sp.fuRows.clear();
        inEngine = false;
    };

    for (size_t k = 0; k < segments.size(); ++k) {
        bool ok;
        if (inEngine) {
            ok = canSpliceAt(cfg, engine->highestLevel(),
                             engine->deepestLevel(), engine->liveWell(),
                             engine->windowRing(), segments[k]);
        } else {
            ok = canSpliceAt(cfg, static_cast<int64_t>(sp.off), sp.deepest,
                             sp.well, sp.ring, segments[k]);
        }
        if (ok) {
            if (inEngine)
                suspendInto();
            sp.splice(segments[k]);
            ++oc.spliced;
        } else {
            PARA_ASSERT(replay != nullptr,
                        "patch boundary failed validation with no replay "
                        "feed");
            if (!inEngine) {
                if (!engine) {
                    AnalysisConfig run_cfg = cfg;
                    run_cfg.maxInstructions = 0; // exact spans are fed
                    engine = std::make_unique<Paragraph>(run_cfg);
                }
                PatchCarry carry;
                carry.well = std::move(sp.well);
                carry.floor = static_cast<int64_t>(sp.off);
                carry.deepest = sp.deepest;
                carry.windowRing = std::move(sp.ring);
                carry.fuRows = std::move(sp.fuRows);
                engine->resumeSpan(std::move(sp.out), std::move(carry));
                inEngine = true;
            }
            if (bits) {
                engine->feedMispredicts(
                    bits->words.data(),
                    branch_base ? (*branch_base)[k] : 0);
            }
            replay(*engine, k);
            ++oc.replayed;
        }
    }
    if (inEngine)
        suspendInto();
    if (outcome)
        *outcome = oc;
    return sp.finish();
}

namespace {

void
appendDiff(std::string *diff, const char *field, uint64_t a, uint64_t b)
{
    if (!diff)
        return;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s%s: solo=%" PRIu64 " sharded=%" PRIu64,
                  diff->empty() ? "" : "; ", field, a, b);
    *diff += buf;
}

bool
equalU64(uint64_t a, uint64_t b, const char *field, std::string *diff)
{
    if (a == b)
        return true;
    appendDiff(diff, field, a, b);
    return false;
}

bool
histogramsEqual(const Histogram &a, const Histogram &b, const char *name,
                std::string *diff)
{
    std::string field(name);
    bool ok = true;
    ok &= equalU64(a.totalCount(), b.totalCount(),
                   (field + ".total").c_str(), diff);
    ok &= equalU64(a.overflowCount(), b.overflowCount(),
                   (field + ".overflow").c_str(), diff);
    ok &= equalU64(a.maxSample(), b.maxSample(),
                   (field + ".maxSample").c_str(), diff);
    if (a.mean() != b.mean()) {
        appendDiff(diff, (field + ".mean*1e6").c_str(),
                   static_cast<uint64_t>(a.mean() * 1e6),
                   static_cast<uint64_t>(b.mean() * 1e6));
        ok = false;
    }
    size_t range = std::max(a.exactRange(), b.exactRange());
    for (size_t v = 0; v < range; ++v) {
        if (a.count(v) != b.count(v)) {
            appendDiff(diff, (field + ".bin").c_str(), a.count(v),
                       b.count(v));
            ok = false;
            break;
        }
    }
    return ok;
}

} // namespace

bool
shardedResultsEqual(const AnalysisResult &solo,
                    const AnalysisResult &stitched, std::string *diff)
{
    bool ok = true;
    ok &= equalU64(solo.instructions, stitched.instructions,
                   "instructions", diff);
    ok &= equalU64(solo.placedOps, stitched.placedOps, "placedOps", diff);
    ok &= equalU64(solo.sysCalls, stitched.sysCalls, "sysCalls", diff);
    ok &= equalU64(solo.firewalls, stitched.firewalls, "firewalls", diff);
    ok &= equalU64(solo.preExistingValues, stitched.preExistingValues,
                   "preExistingValues", diff);
    ok &= equalU64(solo.storageDelayedOps, stitched.storageDelayedOps,
                   "storageDelayedOps", diff);
    ok &= equalU64(solo.fuDelayedOps, stitched.fuDelayedOps,
                   "fuDelayedOps", diff);
    ok &= equalU64(solo.condBranches, stitched.condBranches,
                   "condBranches", diff);
    ok &= equalU64(solo.branchMispredictions,
                   stitched.branchMispredictions,
                   "branchMispredictions", diff);
    ok &= equalU64(solo.criticalPathLength, stitched.criticalPathLength,
                   "criticalPathLength", diff);
    ok &= equalU64(solo.liveWellPeak, stitched.liveWellPeak,
                   "liveWellPeak", diff);
    ok &= equalU64(solo.liveWellFinal, stitched.liveWellFinal,
                   "liveWellFinal", diff);
    if (solo.availableParallelism != stitched.availableParallelism) {
        appendDiff(diff, "availableParallelism",
                   static_cast<uint64_t>(solo.availableParallelism * 1e6),
                   static_cast<uint64_t>(stitched.availableParallelism *
                                         1e6));
        ok = false;
    }
    ok &= histogramsEqual(solo.lifetimes, stitched.lifetimes, "lifetimes",
                          diff);
    ok &= histogramsEqual(solo.sharing, stitched.sharing, "sharing", diff);
    ok &= equalU64(solo.profile.totalOps(), stitched.profile.totalOps(),
                   "profile.totalOps", diff);
    ok &= equalU64(solo.profile.maxLevel(), stitched.profile.maxLevel(),
                   "profile.maxLevel", diff);
    {
        // The patched ops profile is rebuilt from exact per-level counts,
        // so the rendered series must match the solo run bin-for-bin.
        std::vector<BucketedProfile::Point> a = solo.profile.series();
        std::vector<BucketedProfile::Point> b = stitched.profile.series();
        if (a.size() != b.size()) {
            appendDiff(diff, "profile.series.size", a.size(), b.size());
            ok = false;
        } else {
            for (size_t i = 0; i < a.size(); ++i) {
                if (a[i].firstLevel != b[i].firstLevel ||
                    a[i].lastLevel != b[i].lastLevel ||
                    a[i].opsPerLevel != b[i].opsPerLevel) {
                    appendDiff(diff, "profile.series.bin",
                               a[i].firstLevel, b[i].firstLevel);
                    ok = false;
                    break;
                }
            }
        }
    }
    ok &= equalU64(solo.storageProfile.intervals(),
                   stitched.storageProfile.intervals(),
                   "storageProfile.intervals", diff);
    ok &= equalU64(solo.storageProfile.totalLiveLevels(),
                   stitched.storageProfile.totalLiveLevels(),
                   "storageProfile.totalLiveLevels", diff);
    ok &= equalU64(solo.storageProfile.maxLevel(),
                   stitched.storageProfile.maxLevel(),
                   "storageProfile.maxLevel", diff);
    return ok;
}

} // namespace core
} // namespace paragraph
