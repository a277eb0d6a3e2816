// Split-and-patch sharding: segments analyzed independently and stitched
// (firewall cuts) or validated-and-patched (arbitrary cuts, every config)
// must reproduce the solo run exactly (core/shard.hpp).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/paragraph.hpp"
#include "core/shard.hpp"
#include "support/prng.hpp"
#include "support/test_seed.hpp"
#include "trace/last_use.hpp"

#include "trace_helpers.hpp"

namespace paragraph {
namespace core {
namespace {

using testhelpers::randomTrace;
using trace::TraceBuffer;
using trace::TraceRecord;

/** randomTrace with its control records turned into predictable-and-
 *  mispredictable conditional branches (folded PCs alias bimodal
 *  counters), so modeled predictors actually fire. */
TraceBuffer
branchyTrace(uint64_t seed, size_t length, bool with_syscalls = true)
{
    TraceBuffer buf = randomTrace(seed, length, with_syscalls);
    Prng prng(testSeed(seed + 7919));
    for (TraceRecord &rec : buf.records()) {
        if (rec.cls == isa::OpClass::Control && !rec.isSysCall()) {
            rec.setCondBranch(true);
            rec.setBranchTaken(prng.nextBelow(3) != 0); // taken-biased
            rec.pc %= 61; // alias counters: hits and misses both occur
        }
    }
    return buf;
}

AnalysisResult
analyzeSolo(const AnalysisConfig &cfg, const TraceBuffer &buf)
{
    Paragraph engine(cfg);
    return engine.analyze(buf);
}

/** Run the full plan → parallel-segment → validate-or-replay patch over
 *  explicit @p bounds (segment k spans [bounds[k], bounds[k+1])). */
AnalysisResult
patchOverBounds(const AnalysisConfig &cfg, const TraceBuffer &buf,
                const std::vector<size_t> &bounds, const PatchPlan &plan,
                PatchOutcome *outcome = nullptr)
{
    const TraceRecord *records = buf.records().data();
    const bool modeled = cfg.branchPredictor != PredictorKind::Perfect;
    std::vector<SegmentRun> segments(bounds.size() - 1);
    for (size_t k = 0; k + 1 < bounds.size(); ++k) {
        runSegment(cfg, records + bounds[k], bounds[k + 1] - bounds[k],
                   segments[k], modeled ? &plan.bits : nullptr,
                   modeled ? plan.branchBase[k] : 0);
    }
    auto replay = [&](Paragraph &engine, size_t s) {
        engine.processAll(records + bounds[s],
                          bounds[s + 1] - bounds[s]);
    };
    return patchSegments(cfg, segments, replay,
                         modeled ? &plan.bits : nullptr,
                         modeled ? &plan.branchBase : nullptr, outcome);
}

AnalysisResult
analyzeViaPatch(const AnalysisConfig &cfg, const TraceBuffer &buf,
                unsigned shards, PatchOutcome *outcome = nullptr)
{
    size_t n = buf.records().size();
    PatchPlan plan = planPatchPlan(cfg, buf.records().data(), n, shards);
    std::vector<size_t> bounds;
    bounds.push_back(0);
    bounds.insert(bounds.end(), plan.cuts.begin(), plan.cuts.end());
    bounds.push_back(n);
    return patchOverBounds(cfg, buf, bounds, plan, outcome);
}

void
expectPatchExact(const AnalysisConfig &cfg, const TraceBuffer &buf,
                 unsigned shards, const char *what)
{
    AnalysisResult solo = analyzeSolo(cfg, buf);
    PatchOutcome outcome;
    AnalysisResult patched = analyzeViaPatch(cfg, buf, shards, &outcome);
    std::string diff;
    EXPECT_TRUE(shardedResultsEqual(solo, patched, &diff))
        << what << " (shards=" << shards
        << ", spliced=" << outcome.spliced
        << ", replayed=" << outcome.replayed << "): " << diff;
}

AnalysisResult
analyzeViaShards(const AnalysisConfig &cfg, const TraceBuffer &buf,
                 unsigned shards)
{
    const TraceRecord *records = buf.records().data();
    size_t n = buf.records().size();
    std::vector<size_t> cuts = planShardCuts(records, n, shards);
    std::vector<size_t> bounds;
    bounds.push_back(0);
    bounds.insert(bounds.end(), cuts.begin(), cuts.end());
    bounds.push_back(n);
    std::vector<SegmentRun> segments(bounds.size() - 1);
    for (size_t k = 0; k + 1 < bounds.size(); ++k) {
        runSegment(cfg, records + bounds[k], bounds[k + 1] - bounds[k],
                   segments[k]);
    }
    return stitchSegments(cfg, segments);
}

void
expectShardExact(const AnalysisConfig &cfg, const TraceBuffer &buf,
                 unsigned shards, const char *what)
{
    AnalysisResult solo = analyzeSolo(cfg, buf);
    AnalysisResult stitched = analyzeViaShards(cfg, buf, shards);
    std::string diff;
    EXPECT_TRUE(shardedResultsEqual(solo, stitched, &diff))
        << what << " (shards=" << shards << "): " << diff;
}

TEST(ShardGate, RequiresStallingSyscallsAndPerfectPrediction)
{
    AnalysisConfig cfg;
    EXPECT_TRUE(shardableConfig(cfg));
    cfg.windowSize = 64;
    EXPECT_TRUE(shardableConfig(cfg));
    cfg.sysCallsStall = false;
    EXPECT_FALSE(shardableConfig(cfg));
    cfg.sysCallsStall = true;
    cfg.branchPredictor = PredictorKind::Bimodal;
    EXPECT_FALSE(shardableConfig(cfg));
}

TEST(ShardPlan, CutsFollowSyscalls)
{
    TraceBuffer buf = randomTrace(11, 4000);
    const TraceRecord *records = buf.records().data();
    size_t n = buf.records().size();
    std::vector<size_t> cuts = planShardCuts(records, n, 8);
    EXPECT_LE(cuts.size(), 7u);
    EXPECT_FALSE(cuts.empty()); // 1% syscall rate: ~40 candidates
    size_t prev = 0;
    for (size_t cut : cuts) {
        ASSERT_GT(cut, 0u);
        ASSERT_LT(cut, n);
        EXPECT_GT(cut, prev);
        EXPECT_TRUE(records[cut - 1].isSysCall())
            << "cut " << cut << " not after a syscall";
        prev = cut;
    }
}

TEST(ShardPlan, NoSyscallsMeansNoCuts)
{
    TraceBuffer buf = randomTrace(12, 1000, /*with_syscalls=*/false);
    EXPECT_TRUE(
        planShardCuts(buf.records().data(), buf.records().size(), 4)
            .empty());
}

TEST(ShardStitch, MatchesSoloUnboundedWindow)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        TraceBuffer buf = randomTrace(seed, 3000);
        expectShardExact(AnalysisConfig::dataflowConservative(), buf, 4,
                         "unbounded conservative");
    }
}

TEST(ShardStitch, MatchesSoloFiniteWindows)
{
    for (uint64_t seed = 21; seed <= 26; ++seed) {
        TraceBuffer buf = randomTrace(seed, 3000);
        expectShardExact(AnalysisConfig::windowed(16), buf, 4,
                         "windowed(16)");
        expectShardExact(AnalysisConfig::windowed(64), buf, 3,
                         "windowed(64)");
    }
}

TEST(ShardStitch, ProfileExactWhenSegmentBucketsFold)
{
    // Regression: a segment's BucketedProfile folds (bucket width > 1)
    // once its critical path reaches the bin count, and merging a folded
    // profile is only bin-accurate — the stitch must rebuild the profile
    // from SegmentLog's exact per-level counts. Tiny bins force folding
    // at unit-test trace sizes; at the default 4096 bins the same
    // divergence appeared only past ~400K-record traces.
    for (uint64_t seed = 31; seed <= 34; ++seed) {
        TraceBuffer buf = randomTrace(seed, 4000);
        AnalysisConfig cfg = AnalysisConfig::dataflowConservative();
        cfg.profileBins = 16;
        expectShardExact(cfg, buf, 4, "folded profile, conservative");
        AnalysisConfig narrow = AnalysisConfig::windowed(16);
        narrow.profileBins = 16;
        expectShardExact(narrow, buf, 3, "folded profile, windowed(16)");
    }
}

TEST(ShardStitch, MatchesSoloWithoutRenaming)
{
    for (uint64_t seed = 31; seed <= 36; ++seed) {
        TraceBuffer buf = randomTrace(seed, 3000);
        AnalysisConfig cfg = AnalysisConfig::noRenaming();
        expectShardExact(cfg, buf, 4, "no renaming");
        expectShardExact(AnalysisConfig::regsRenamed(), buf, 4,
                         "regs renamed");
    }
}

TEST(ShardStitch, MatchesSoloWithFuLimits)
{
    for (uint64_t seed = 41; seed <= 44; ++seed) {
        TraceBuffer buf = randomTrace(seed, 2500);
        AnalysisConfig cfg;
        cfg.totalFuLimit = 2;
        expectShardExact(cfg, buf, 4, "fu limit 2");
        cfg.totalFuLimit = 0;
        cfg.fuLimit[static_cast<size_t>(isa::OpClass::IntAlu)] = 3;
        cfg.windowSize = 32;
        expectShardExact(cfg, buf, 4, "per-class fu limit + window");
    }
}

TEST(ShardStitch, MatchesSoloWithLastUseEviction)
{
    for (uint64_t seed = 51; seed <= 54; ++seed) {
        TraceBuffer buf = randomTrace(seed, 2500);
        trace::annotateLastUses(buf);
        AnalysisConfig cfg;
        cfg.useLastUseEviction = true;
        expectShardExact(cfg, buf, 4, "last-use eviction");
        cfg.windowSize = 16;
        expectShardExact(cfg, buf, 4, "last-use eviction + window");
    }
}

TEST(ShardStitch, MatchesSoloInEveryLoopShape)
{
    // Segment mode in every record-loop shape: finite window x FU limit x
    // last-use eviction x full distributions or a sweep cell's means.
    TraceBuffer buf = randomTrace(57, 2500);
    trace::annotateLastUses(buf);
    for (uint64_t window : {uint64_t{0}, uint64_t{32}}) {
        for (uint32_t fus : {0u, 2u}) {
            for (bool last_use : {false, true}) {
                for (bool full : {true, false}) {
                    AnalysisConfig cfg;
                    cfg.windowSize = window;
                    cfg.totalFuLimit = fus;
                    cfg.useLastUseEviction = last_use;
                    cfg.distributions = full;
                    const std::string what =
                        "window " + std::to_string(window) + ", fus " +
                        std::to_string(fus) +
                        (last_use ? ", last use" : ", overwrite") +
                        (full ? ", full distributions" : ", cell means");
                    expectShardExact(cfg, buf, 4, what.c_str());
                }
            }
        }
    }
}

TEST(ShardStitch, ManyShardsAndDegenerateCounts)
{
    TraceBuffer buf = randomTrace(61, 4000);
    AnalysisConfig cfg = AnalysisConfig::windowed(32);
    expectShardExact(cfg, buf, 1, "one shard (solo fallback)");
    expectShardExact(cfg, buf, 2, "two shards");
    expectShardExact(cfg, buf, 16, "sixteen shards");
    expectShardExact(cfg, buf, 64, "more shards than syscalls");
}

TEST(PatchPlan, FallsBackToPlainTilesWithoutCandidates)
{
    // No syscalls and a perfect predictor: no natural boundary anywhere,
    // so the plan cuts plain interior tiles instead of going solo.
    TraceBuffer buf = randomTrace(71, 1000, /*with_syscalls=*/false);
    PatchPlan plan =
        planPatchPlan(AnalysisConfig(), buf.records().data(),
                      buf.records().size(), 4);
    ASSERT_EQ(plan.cuts.size(), 3u);
    size_t prev = 0;
    for (size_t cut : plan.cuts) {
        EXPECT_GT(cut, prev);
        EXPECT_LT(cut, buf.records().size());
        prev = cut;
    }
}

TEST(PatchPlan, ModeledPredictorCutsAfterMispredictsWithBranchBase)
{
    TraceBuffer buf = branchyTrace(72, 4000);
    AnalysisConfig cfg;
    cfg.branchPredictor = PredictorKind::Bimodal;
    const TraceRecord *records = buf.records().data();
    size_t n = buf.records().size();
    PatchPlan plan = planPatchPlan(cfg, records, n, 8);
    ASSERT_FALSE(plan.cuts.empty());
    ASSERT_EQ(plan.branchBase.size(), plan.segments());
    EXPECT_EQ(plan.branchBase[0], 0u);
    // branchBase[k] must count the conditional branches before segment k.
    for (size_t k = 0; k < plan.cuts.size(); ++k) {
        uint64_t count = 0;
        for (size_t i = 0; i < plan.cuts[k]; ++i) {
            if (records[i].isCondBranch())
                ++count;
        }
        EXPECT_EQ(plan.branchBase[k + 1], count) << "cut " << k;
    }
    // The bitvector holds one bit per conditional branch of the trace.
    uint64_t branches = 0;
    for (size_t i = 0; i < n; ++i)
        branches += records[i].isCondBranch() ? 1 : 0;
    EXPECT_EQ(plan.bits.count, branches);
}

TEST(SplitAndPatch, MatchesSoloAcrossConfigMatrix)
{
    // The full switch matrix, including every previously-unshardable
    // config: optimistic syscalls, modeled predictors, and their
    // combinations with windows, renaming, and FU limits.
    std::vector<std::pair<AnalysisConfig, const char *>> matrix;
    matrix.emplace_back(AnalysisConfig::dataflowConservative(),
                        "conservative");
    matrix.emplace_back(AnalysisConfig::dataflowOptimistic(),
                        "optimistic (no stall)");
    matrix.emplace_back(AnalysisConfig::noRenaming(), "no renaming");
    matrix.emplace_back(AnalysisConfig::windowed(16), "windowed(16)");
    {
        AnalysisConfig cfg;
        cfg.branchPredictor = PredictorKind::Bimodal;
        matrix.emplace_back(cfg, "bimodal");
    }
    {
        AnalysisConfig cfg;
        cfg.sysCallsStall = false;
        cfg.branchPredictor = PredictorKind::AlwaysWrong;
        cfg.windowSize = 32;
        matrix.emplace_back(cfg, "no stall + always-wrong + window");
    }
    {
        AnalysisConfig cfg;
        cfg.branchPredictor = PredictorKind::NeverTaken;
        cfg.renameRegisters = false;
        cfg.renameData = false;
        cfg.renameStack = false;
        matrix.emplace_back(cfg, "never-taken, no renaming");
    }
    {
        AnalysisConfig cfg;
        cfg.sysCallsStall = false;
        cfg.totalFuLimit = 2;
        matrix.emplace_back(cfg, "no stall + fu limit");
    }
    for (uint64_t seed = 81; seed <= 83; ++seed) {
        TraceBuffer buf = branchyTrace(seed, 3000);
        for (const auto &[cfg, what] : matrix)
            expectPatchExact(cfg, buf, 4, what);
    }
}

TEST(SplitAndPatch, StallCutsSpliceWithoutReplay)
{
    // At total-firewall cuts every splice condition holds: the patch must
    // merge all segments without a single sequential replay.
    TraceBuffer buf = randomTrace(84, 3000);
    AnalysisConfig cfg = AnalysisConfig::dataflowConservative();
    AnalysisResult solo = analyzeSolo(cfg, buf);
    PatchOutcome outcome;
    AnalysisResult patched = analyzeViaPatch(cfg, buf, 4, &outcome);
    std::string diff;
    EXPECT_TRUE(shardedResultsEqual(solo, patched, &diff)) << diff;
    EXPECT_EQ(outcome.replayed, 0u);
    EXPECT_GE(outcome.spliced, 2u);
}

TEST(SplitAndPatch, PlainTilesStayExactViaReplay)
{
    // No natural boundaries at all (no syscalls, perfect prediction, no
    // renaming): tiles cut mid-dependence-chain, most splices fail, and
    // the sequential replay must still patch the exact solo result.
    TraceBuffer buf = randomTrace(85, 2000, /*with_syscalls=*/false);
    AnalysisConfig cfg = AnalysisConfig::noRenaming();
    expectPatchExact(cfg, buf, 4, "plain tiles, no renaming");
    AnalysisConfig windowed = AnalysisConfig::windowed(16);
    expectPatchExact(windowed, buf, 4, "plain tiles, windowed");
    AnalysisConfig fu;
    fu.totalFuLimit = 2;
    expectPatchExact(fu, buf, 4, "plain tiles, fu limit");
}

TEST(SplitAndPatch, EmptyAndAdjacentSegments)
{
    // Degenerate explicit bounds: empty segments at the very start and
    // end, adjacent cuts producing an empty middle segment, and a
    // one-record segment. The patch must be exact through all of them.
    TraceBuffer buf = branchyTrace(86, 400);
    const size_t n = buf.records().size();
    for (const AnalysisConfig &cfg :
         {AnalysisConfig(), AnalysisConfig::windowed(8)}) {
        AnalysisResult solo = analyzeSolo(cfg, buf);
        PatchPlan plan; // no precomputed bits: Perfect predictor
        std::vector<size_t> bounds{0,     0,     7,     8,     150,
                                   150,   n - 1, n,     n};
        AnalysisResult patched = patchOverBounds(cfg, buf, bounds, plan);
        std::string diff;
        EXPECT_TRUE(shardedResultsEqual(solo, patched, &diff)) << diff;
    }
}

TEST(SplitAndPatch, WindowStraddlingChain)
{
    // A dependence chain threaded through a finite window, cut mid-chain:
    // the fresh segment's head records are displaced by pre-cut window
    // entries solo-side, exercising the head-floor validation and the
    // carried-ring reconstruction.
    using namespace testhelpers;
    TraceBuffer buf;
    for (int i = 0; i < 64; ++i)
        buf.push(alu(static_cast<uint8_t>(1 + (i % 7)),
                     {static_cast<uint8_t>(1 + ((i + 1) % 7))}));
    AnalysisConfig cfg = AnalysisConfig::windowed(4);
    AnalysisResult solo = analyzeSolo(cfg, buf);
    for (size_t cut : {size_t(1), size_t(2), size_t(31), size_t(62)}) {
        PatchPlan plan;
        std::vector<size_t> bounds{0, cut, buf.records().size()};
        AnalysisResult patched = patchOverBounds(cfg, buf, bounds, plan);
        std::string diff;
        EXPECT_TRUE(shardedResultsEqual(solo, patched, &diff))
            << "cut=" << cut << ": " << diff;
    }
}

TEST(SplitAndPatch, MoreShardsThanRecords)
{
    TraceBuffer buf = branchyTrace(87, 40);
    AnalysisConfig cfg;
    cfg.branchPredictor = PredictorKind::Bimodal;
    expectPatchExact(cfg, buf, 64, "more shards than records");
    expectPatchExact(cfg, buf, 2, "two shards, tiny trace");
}

TEST(SplitAndPatch, ConsecutiveReplaysShareOneSession)
{
    // FU-limited configs only splice at total firewalls; a no-syscall
    // trace tiled into 8 segments replays every boundary, exercising the
    // shared sequential engine session across consecutive failures.
    TraceBuffer buf = randomTrace(88, 1500, /*with_syscalls=*/false);
    AnalysisConfig cfg;
    cfg.totalFuLimit = 1;
    AnalysisResult solo = analyzeSolo(cfg, buf);
    PatchOutcome outcome;
    AnalysisResult patched = analyzeViaPatch(cfg, buf, 8, &outcome);
    std::string diff;
    EXPECT_TRUE(shardedResultsEqual(solo, patched, &diff)) << diff;
    EXPECT_GT(outcome.replayed, 0u);
}

TEST(ShardStitch, SyscallAdjacentCuts)
{
    // Back-to-back syscalls produce adjacent candidate cuts and
    // near-empty segments; the stitch must still be exact.
    TraceBuffer buf;
    using namespace testhelpers;
    buf.push(alu(3, {1, 2}));
    buf.push(syscall());
    buf.push(syscall());
    buf.push(alu(4, {3}));
    buf.push(syscall());
    buf.push(store(0x1000, 4));
    buf.push(load(5, 0x1000));
    AnalysisConfig cfg;
    for (unsigned shards = 2; shards <= 6; ++shards)
        expectShardExact(cfg, buf, shards, "adjacent syscalls");
}

} // namespace
} // namespace core
} // namespace paragraph
