// Reproductions of the paper's worked examples: Figures 1, 2, 3, 4, and the
// live-well state of Figure 5. Levels here are 0-based (the paper's Figure 5
// uses the same convention: pre-existing values sit at level -1).
#include <gtest/gtest.h>

#include "core/ddg_builder.hpp"
#include "core/paragraph.hpp"
#include "tests/core/trace_helpers.hpp"

using namespace paragraph;
using namespace paragraph::core;
using namespace paragraph::testhelpers;

namespace {

// The S := A + B + C + D evaluation of Figure 1. Registers r0..r6 hold the
// paper's names; A..D are pre-initialized DATA words, S is a DATA word.
constexpr uint64_t addrA = 0x1000;
constexpr uint64_t addrB = 0x1004;
constexpr uint64_t addrC = 0x1008;
constexpr uint64_t addrD = 0x100c;
constexpr uint64_t addrS = 0x1010;

TraceBuffer
figure1Trace()
{
    TraceBuffer buf;
    buf.push(load(0, addrA)); // load r0,A
    buf.push(load(1, addrB)); // load r1,B
    buf.push(alu(4, {0, 1})); // r4 <- r0 + r1
    buf.push(load(2, addrC)); // load r2,C
    buf.push(load(3, addrD)); // load r3,D
    buf.push(alu(5, {2, 3})); // r5 <- r2 + r3
    buf.push(alu(6, {4, 5})); // r6 <- r4 + r5
    buf.push(store(addrS, 6)); // store r6,S
    return buf;
}

// Figure 2: the same computation reusing r0/r1 for C and D.
TraceBuffer
figure2Trace()
{
    TraceBuffer buf;
    buf.push(load(0, addrA));
    buf.push(load(1, addrB));
    buf.push(alu(4, {0, 1}));
    buf.push(load(0, addrC)); // reuses r0
    buf.push(load(1, addrD)); // reuses r1
    buf.push(alu(5, {0, 1}));
    buf.push(alu(6, {4, 5}));
    buf.push(store(addrS, 6));
    return buf;
}

std::vector<int64_t>
placementLevels(Paragraph &engine, const TraceBuffer &buf)
{
    std::vector<int64_t> levels;
    for (size_t i = 0; i < buf.size(); ++i) {
        engine.process(buf[i]);
        levels.push_back(engine.lastPlacedLevel());
    }
    return levels;
}

} // namespace

TEST(PaperFigure1, DataflowPlacementAndCriticalPath)
{
    Paragraph engine(AnalysisConfig::dataflowConservative());
    TraceBuffer buf = figure1Trace();
    auto levels = placementLevels(engine, buf);
    // Loads at level 0, the two adds at 1, the final add at 2, store at 3.
    EXPECT_EQ(levels,
              (std::vector<int64_t>{0, 0, 1, 0, 0, 1, 2, 3}));
    AnalysisResult res = engine.finish();
    EXPECT_EQ(res.criticalPathLength, 4u);
    EXPECT_EQ(res.placedOps, 8u);
    EXPECT_DOUBLE_EQ(res.availableParallelism, 2.0);

    // Parallelism profile: 4, 2, 1, 1 operations in levels 0..3.
    auto series = res.profile.series();
    ASSERT_EQ(series.size(), 4u);
    EXPECT_DOUBLE_EQ(series[0].opsPerLevel, 4.0);
    EXPECT_DOUBLE_EQ(series[1].opsPerLevel, 2.0);
    EXPECT_DOUBLE_EQ(series[2].opsPerLevel, 1.0);
    EXPECT_DOUBLE_EQ(series[3].opsPerLevel, 1.0);
}

TEST(PaperFigure5, LiveWellStateAfterFigure1)
{
    Paragraph engine(AnalysisConfig::dataflowConservative());
    TraceBuffer buf = figure1Trace();
    for (size_t i = 0; i < buf.size(); ++i)
        engine.process(buf[i]);

    // Figure 5: r0..r3 created in level 0, r4/r5 in 1, r6 in 2, S in 3;
    // A..D entered as pre-existing values in level -1; highestLevel 0;
    // deepestLevelYetUsed 3.
    const LiveWell &well = engine.liveWell();
    auto level_of = [&](const trace::Operand &op) {
        const LiveValue *lv = well.find(trace::locationKey(op));
        EXPECT_NE(lv, nullptr);
        return lv ? lv->level : INT64_MIN;
    };
    for (uint8_t r : {0, 1, 2, 3})
        EXPECT_EQ(level_of(trace::Operand::intReg(r)), 0) << "r" << int(r);
    EXPECT_EQ(level_of(trace::Operand::intReg(4)), 1);
    EXPECT_EQ(level_of(trace::Operand::intReg(5)), 1);
    EXPECT_EQ(level_of(trace::Operand::intReg(6)), 2);
    EXPECT_EQ(
        level_of(trace::Operand::mem(addrS, trace::Segment::Data)), 3);
    for (uint64_t a : {addrA, addrB, addrC, addrD}) {
        const LiveValue *lv =
            well.find(trace::locationKey(
                trace::Operand::mem(a, trace::Segment::Data)));
        ASSERT_NE(lv, nullptr);
        EXPECT_EQ(lv->level, -1);
        EXPECT_TRUE(lv->preExisting);
    }
    EXPECT_EQ(engine.highestLevel(), 0);
    EXPECT_EQ(engine.deepestLevel(), 3);
}

TEST(PaperFigure2, StorageDependenciesWithoutRegisterRenaming)
{
    AnalysisConfig cfg = AnalysisConfig::dataflowConservative();
    cfg.renameRegisters = false;
    Paragraph engine(cfg);
    TraceBuffer buf = figure2Trace();
    auto levels = placementLevels(engine, buf);
    // "The subexpression C + D cannot begin execution until the
    //  subexpression A + B has completed using the registers r0 and r1."
    EXPECT_EQ(levels,
              (std::vector<int64_t>{0, 0, 1, 2, 2, 3, 4, 5}));
    AnalysisResult res = engine.finish();
    EXPECT_EQ(res.criticalPathLength, 6u);
    EXPECT_GT(res.storageDelayedOps, 0u);

    // Profile: 2, 1, 2, 1, 1, 1 in levels 0..5.
    auto series = res.profile.series();
    ASSERT_EQ(series.size(), 6u);
    EXPECT_DOUBLE_EQ(series[0].opsPerLevel, 2.0);
    EXPECT_DOUBLE_EQ(series[1].opsPerLevel, 1.0);
    EXPECT_DOUBLE_EQ(series[2].opsPerLevel, 2.0);
    EXPECT_DOUBLE_EQ(series[3].opsPerLevel, 1.0);
    EXPECT_DOUBLE_EQ(series[4].opsPerLevel, 1.0);
    EXPECT_DOUBLE_EQ(series[5].opsPerLevel, 1.0);
}

TEST(PaperFigure2, RenamingRestoresTheDataflowShape)
{
    // With register renaming on, Figure 2's trace is Figure 1's DDG.
    Paragraph engine(AnalysisConfig::dataflowConservative());
    TraceBuffer buf = figure2Trace();
    auto levels = placementLevels(engine, buf);
    EXPECT_EQ(levels, (std::vector<int64_t>{0, 0, 1, 0, 0, 1, 2, 3}));
    EXPECT_EQ(engine.finish().criticalPathLength, 4u);
}

TEST(PaperFigure3, ControlDependencyViaFirewall)
{
    // "read r1" is an input syscall; under the conservative assumption the
    // computation of C + D is delayed until after it.
    TraceBuffer buf;
    buf.push(load(0, addrA)); // load r0,A
    buf.push(syscall());      // read r1 (stand-in: writes v0/r2... use r1)
    buf.records().back().setDest(trace::Operand::intReg(1));
    buf.push(branch({1}));    // cmp/ble r1 (not placed)
    buf.push(alu(2, {0, 1})); // r2 <- r0 - r1 (the taken path)
    buf.push(store(addrS, 2));
    buf.push(load(3, addrC));
    buf.push(load(4, addrD));
    buf.push(alu(5, {3, 4}));

    AnalysisConfig conservative = AnalysisConfig::dataflowConservative();
    Paragraph engine(conservative);
    auto levels = placementLevels(engine, buf);
    // syscall at 0, firewall after it; everything later is below level 0.
    EXPECT_EQ(levels[0], 0);  // load A
    EXPECT_EQ(levels[1], 0);  // read r1
    EXPECT_EQ(levels[2], -1); // branch: not placed
    EXPECT_EQ(levels[3], 1);  // r2
    EXPECT_EQ(levels[4], 2);  // store
    EXPECT_EQ(levels[5], 1);  // load C *delayed by the firewall*
    EXPECT_EQ(levels[6], 1);  // load D
    EXPECT_EQ(levels[7], 2);  // r5
    AnalysisResult res = engine.finish();
    EXPECT_EQ(res.firewalls, 1u);
    EXPECT_EQ(res.placedOps, 7u); // branch excluded

    // Optimistically, the loads of C and D float to the top level.
    AnalysisConfig optimistic = AnalysisConfig::dataflowOptimistic();
    Paragraph opt(optimistic);
    auto opt_levels = placementLevels(opt, buf);
    EXPECT_EQ(opt_levels[1], -1); // syscall ignored entirely
    EXPECT_EQ(opt_levels[5], 0);  // load C at the top
    EXPECT_EQ(opt_levels[6], 0);
    AnalysisResult opt_res = opt.finish();
    EXPECT_EQ(opt_res.firewalls, 0u);
    EXPECT_EQ(opt_res.placedOps, 6u); // syscall also excluded
}

TEST(PaperFigure4, ResourceDependenciesWithTwoFus)
{
    // "The processor executing the code fragment contains only two generic
    //  functional units, thus at most two operations can coexist in any
    //  single level of the DDG."
    AnalysisConfig cfg = AnalysisConfig::dataflowConservative();
    cfg.totalFuLimit = 2;
    Paragraph engine(cfg);
    TraceBuffer buf = figure1Trace();
    auto levels = placementLevels(engine, buf);
    // Greedy trace-order placement (what a streaming analyzer does): r4 is
    // placed before loads C/D arrive and claims a level-1 unit, so the
    // critical path is 6 rather than the figure's idealized min-makespan
    // schedule of 5. The figure's *invariant* — at most two operations per
    // level — holds exactly (checked below on the explicit DDG).
    EXPECT_EQ(levels,
              (std::vector<int64_t>{0, 0, 1, 1, 2, 3, 4, 5}));
    AnalysisResult res = engine.finish();
    EXPECT_EQ(res.criticalPathLength, 6u);
    EXPECT_GT(res.fuDelayedOps, 0u);

    // No level of the explicit DDG holds more than two operations.
    Ddg ddg = buildDdg(figure1Trace(), cfg);
    for (uint64_t count : ddg.levelHistogram())
        EXPECT_LE(count, 2u);
    EXPECT_EQ(ddg.criticalPathLength, 6u);
}
