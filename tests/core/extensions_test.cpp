// Tests for the two Section-2.3/3.2 extensions: branch-misprediction
// firewalls (with predictor models) and the storage (waiting-token) profile.
#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "core/branch_predictor.hpp"
#include "core/ddg_builder.hpp"
#include "core/paragraph.hpp"
#include "support/interval_profile.hpp"
#include "tests/core/trace_helpers.hpp"
#include "workloads/workload.hpp"

using namespace paragraph;
using namespace paragraph::core;
using namespace paragraph::testhelpers;

namespace {

TraceRecord
condBranch(uint8_t src, bool taken, uint64_t pc)
{
    TraceRecord rec = branch({src});
    rec.setCondBranch(true);
    rec.setBranchTaken(taken);
    rec.pc = pc;
    return rec;
}

} // namespace

// ---------------------------------------------------------------------------
// BranchPredictor unit tests.
// ---------------------------------------------------------------------------

TEST(BranchPredictor, PerfectNeverMisses)
{
    BranchPredictor pred(PredictorKind::Perfect);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(pred.predictAndUpdate(7, (i % 3) == 0));
    EXPECT_EQ(pred.mispredictions(), 0u);
    EXPECT_DOUBLE_EQ(pred.accuracy(), 1.0);
}

TEST(BranchPredictor, AlwaysWrongAlwaysMisses)
{
    BranchPredictor pred(PredictorKind::AlwaysWrong);
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(pred.predictAndUpdate(7, i % 2 == 0));
    EXPECT_EQ(pred.mispredictions(), 50u);
    EXPECT_DOUBLE_EQ(pred.accuracy(), 0.0);
}

TEST(BranchPredictor, StaticModels)
{
    BranchPredictor taken(PredictorKind::AlwaysTaken);
    EXPECT_TRUE(taken.predictAndUpdate(1, true));
    EXPECT_FALSE(taken.predictAndUpdate(1, false));

    BranchPredictor not_taken(PredictorKind::NeverTaken);
    EXPECT_FALSE(not_taken.predictAndUpdate(1, true));
    EXPECT_TRUE(not_taken.predictAndUpdate(1, false));
}

TEST(BranchPredictor, BimodalLearnsABiasedBranch)
{
    BranchPredictor pred(PredictorKind::Bimodal, 10);
    // Loop-style branch: taken 99 times, not-taken once per 100.
    uint64_t wrong = 0;
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 99; ++i) {
            if (!pred.predictAndUpdate(0x40, true))
                ++wrong;
        }
        pred.predictAndUpdate(0x40, false);
    }
    // After warm-up, the taken predictions are essentially always right.
    EXPECT_LT(wrong, 5u);
    EXPECT_GT(pred.accuracy(), 0.95);
}

TEST(BranchPredictor, BimodalCountersAreHysteretic)
{
    BranchPredictor pred(PredictorKind::Bimodal, 8);
    // Saturate toward taken.
    for (int i = 0; i < 4; ++i)
        pred.predictAndUpdate(5, true);
    // One not-taken outcome must not flip the next prediction.
    pred.predictAndUpdate(5, false);
    EXPECT_TRUE(pred.predictAndUpdate(5, true));
}

TEST(BranchPredictor, ResetClearsStateAndStats)
{
    BranchPredictor pred(PredictorKind::Bimodal, 8);
    pred.predictAndUpdate(1, true);
    pred.predictAndUpdate(1, true);
    pred.reset();
    EXPECT_EQ(pred.predictions(), 0u);
    // Counters back to weakly-not-taken: first prediction is not-taken.
    EXPECT_FALSE(pred.predictAndUpdate(1, true));
}

TEST(BranchPredictor, KindNames)
{
    EXPECT_STREQ(predictorKindName(PredictorKind::Perfect), "perfect");
    EXPECT_STREQ(predictorKindName(PredictorKind::Bimodal), "bimodal");
    EXPECT_STREQ(predictorKindName(PredictorKind::AlwaysWrong),
                 "always-wrong");
}

// ---------------------------------------------------------------------------
// Misprediction firewalls in the engine.
// ---------------------------------------------------------------------------

TEST(MispredictFirewall, PerfectPredictionChangesNothing)
{
    Paragraph engine(AnalysisConfig::dataflowConservative());
    engine.process(alu(1, {}));
    engine.process(condBranch(1, true, 10));
    engine.process(alu(2, {}));
    EXPECT_EQ(engine.lastPlacedLevel(), 0); // no firewall
    AnalysisResult res = engine.finish();
    EXPECT_EQ(res.condBranches, 1u);
    EXPECT_EQ(res.branchMispredictions, 0u);
}

TEST(MispredictFirewall, MispredictionStallsAtResolution)
{
    AnalysisConfig cfg = AnalysisConfig::dataflowConservative();
    cfg.branchPredictor = PredictorKind::AlwaysWrong;
    Paragraph engine(cfg);
    engine.process(typed(isa::OpClass::IntMul, 1, {})); // r1 at L5
    engine.process(condBranch(1, true, 10)); // resolves at level 6
    engine.process(alu(2, {}));              // must wait for resolution
    EXPECT_EQ(engine.lastPlacedLevel(), 6);
    AnalysisResult res = engine.finish();
    EXPECT_EQ(res.branchMispredictions, 1u);
    EXPECT_GT(res.firewalls, 0u);
}

TEST(MispredictFirewall, ResolutionUsesBranchSources)
{
    AnalysisConfig cfg = AnalysisConfig::dataflowConservative();
    cfg.branchPredictor = PredictorKind::AlwaysWrong;
    Paragraph engine(cfg);
    // A branch on a pre-existing value resolves at the top: firewall floor
    // stays at level 0 and later ops are unaffected.
    engine.process(condBranch(9, false, 3));
    engine.process(alu(2, {}));
    EXPECT_EQ(engine.lastPlacedLevel(), 0);
}

TEST(MispredictFirewall, SerializesLoopIterations)
{
    // A chain: each iteration computes r1 and branches on it. With an
    // adversarial predictor every branch stalls the next iteration.
    AnalysisConfig wrong = AnalysisConfig::dataflowConservative();
    wrong.branchPredictor = PredictorKind::AlwaysWrong;
    AnalysisConfig perfect = AnalysisConfig::dataflowConservative();

    TraceBuffer buf;
    for (int i = 0; i < 100; ++i) {
        buf.push(alu(static_cast<uint8_t>(1 + (i % 4)), {}));
        buf.push(condBranch(static_cast<uint8_t>(1 + (i % 4)), i % 2 == 0,
                            static_cast<uint64_t>(i % 7)));
    }
    trace::BufferSource a(buf), b(buf);
    AnalysisResult perfect_res = Paragraph(perfect).analyze(a);
    AnalysisResult wrong_res = Paragraph(wrong).analyze(b);
    EXPECT_EQ(perfect_res.criticalPathLength, 1u); // all independent
    EXPECT_EQ(wrong_res.criticalPathLength, 100u); // fully serialized
}

TEST(MispredictFirewall, AccuracyOrdersParallelism)
{
    // perfect >= bimodal >= always-wrong on every workload.
    auto &suite = workloads::WorkloadSuite::instance();
    for (const char *name : {"xlisp", "cc1", "doduc"}) {
        double par[3];
        PredictorKind kinds[3] = {PredictorKind::Perfect,
                                  PredictorKind::Bimodal,
                                  PredictorKind::AlwaysWrong};
        for (int i = 0; i < 3; ++i) {
            AnalysisConfig cfg = AnalysisConfig::dataflowConservative();
            cfg.branchPredictor = kinds[i];
            auto src = suite.makeSource(suite.find(name),
                                        workloads::Scale::Small);
            par[i] = Paragraph(cfg).analyze(*src).availableParallelism;
        }
        EXPECT_GE(par[0], par[1] - 1e-9) << name;
        EXPECT_GE(par[1], par[2] - 1e-9) << name;
        // And misprediction must actually bite on branchy codes.
        EXPECT_LT(par[2], par[0]) << name;
    }
}

TEST(MispredictFirewall, BaselineAndBuilderAgreeUnderPredictors)
{
    TraceBuffer buf = randomTrace(31, 3000);
    // randomTrace branches are not conditional; synthesize outcomes.
    for (auto &rec : buf.records()) {
        if (rec.cls == isa::OpClass::Control) {
            rec.setCondBranch(true);
            rec.setBranchTaken((rec.pc % 3) != 0);
        }
    }
    AnalysisConfig cfg = AnalysisConfig::dataflowConservative();
    cfg.branchPredictor = PredictorKind::Bimodal;
    trace::BufferSource a(buf), b(buf);
    AnalysisResult full = Paragraph(cfg).analyze(a);
    BaselineResult fast = CriticalPathAnalyzer(cfg).analyze(b);
    EXPECT_EQ(full.criticalPathLength, fast.criticalPathLength);

    Ddg ddg = buildDdg(buf, cfg);
    EXPECT_EQ(ddg.criticalPathLength, full.criticalPathLength);
}

// ---------------------------------------------------------------------------
// IntervalProfile and the storage profile.
// ---------------------------------------------------------------------------

TEST(IntervalProfile, SingleInterval)
{
    IntervalProfile p(16);
    p.add(2, 5);
    EXPECT_EQ(p.intervals(), 1u);
    EXPECT_EQ(p.maxLevel(), 5u);
    auto series = p.series();
    ASSERT_EQ(series.size(), 6u);
    // Live through levels 2..5 (boundary-exact between buckets).
    EXPECT_DOUBLE_EQ(series[3].liveValues, 1.0);
    EXPECT_DOUBLE_EQ(series[4].liveValues, 1.0);
    EXPECT_DOUBLE_EQ(series[0].liveValues, 0.0);
    EXPECT_DOUBLE_EQ(p.peakLive(), 1.0);
}

TEST(IntervalProfile, OverlappingIntervalsStack)
{
    IntervalProfile p(32);
    for (int i = 0; i < 10; ++i)
        p.add(0, 9);
    EXPECT_DOUBLE_EQ(p.peakLive(), 10.0);
    auto series = p.series();
    EXPECT_DOUBLE_EQ(series[4].liveValues, 10.0);
}

TEST(IntervalProfile, DegenerateAndReversedIntervals)
{
    IntervalProfile p(16);
    p.add(3, 3); // zero-length lifetime
    p.add(7, 2); // reversed end clamps to start
    EXPECT_EQ(p.intervals(), 2u);
    EXPECT_EQ(p.maxLevel(), 7u);
}

TEST(IntervalProfile, FoldsKeepCounts)
{
    IntervalProfile p(4);
    for (uint64_t i = 0; i < 100; ++i)
        p.add(i * 10, i * 10 + 5);
    EXPECT_EQ(p.intervals(), 100u);
    EXPECT_GT(p.bucketWidth(), 1u);
    // Each interval is live for 6 of every 10 levels: mean ~0.6.
    EXPECT_NEAR(p.meanLive(), 0.6, 0.15);
}

TEST(IntervalProfile, EmptyIsEmpty)
{
    IntervalProfile p(8);
    EXPECT_TRUE(p.empty());
    EXPECT_TRUE(p.series().empty());
    EXPECT_DOUBLE_EQ(p.peakLive(), 0.0);
    EXPECT_DOUBLE_EQ(p.meanLive(), 0.0);
}

TEST(StorageProfile, TracksLiveValues)
{
    // Ten values created at level 0, all read once by a level-6 consumer
    // chain: they stay live until their reader fires.
    Paragraph engine(AnalysisConfig::dataflowConservative());
    for (uint8_t r = 1; r <= 8; ++r)
        engine.process(alu(r, {}));
    engine.process(typed(isa::OpClass::IntMul, 9, {1, 2})); // L6
    AnalysisResult res = engine.finish();
    EXPECT_EQ(res.storageProfile.intervals(), res.placedOps);
    EXPECT_GE(res.storageProfile.peakLive(), 8.0);
}

TEST(StorageProfile, DisableSwitchWorks)
{
    // A sweep cell's config: the values still die and count toward the
    // lifetime and sharing means, but no interval is recorded.
    AnalysisConfig cfg = AnalysisConfig::dataflowConservative();
    cfg.distributions = false;
    Paragraph engine(cfg);
    engine.process(alu(1, {}));
    engine.process(alu(2, {1}));
    AnalysisResult res = engine.finish();
    EXPECT_TRUE(res.storageProfile.empty());
    EXPECT_EQ(res.storageProfile.capacity(), 0u);
    EXPECT_EQ(res.lifetimes.totalCount(), 2u);
    EXPECT_EQ(res.sharing.totalCount(), 2u);
    EXPECT_EQ(res.sharing.mean(), 0.5);
}

TEST(StorageProfile, PeakAtLeastMeanParallelismTimesLifetime)
{
    // Sanity on a workload: storage peak must be at least as large as the
    // live-well's (trace-order) peak is meaningful and non-trivial.
    auto &suite = workloads::WorkloadSuite::instance();
    auto src = suite.makeSource(suite.find("fpppp"), workloads::Scale::Small);
    AnalysisResult res =
        Paragraph(AnalysisConfig::dataflowConservative()).analyze(*src);
    EXPECT_GT(res.storageProfile.peakLive(), 100.0);
    EXPECT_EQ(res.storageProfile.intervals(),
              res.lifetimes.totalCount());
}
