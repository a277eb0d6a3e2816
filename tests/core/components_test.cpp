// Unit tests for the smaller core components: FuThrottle, SlidingWindow,
// DdgBuilder edge semantics, and report rendering.
#include <gtest/gtest.h>

#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "core/ddg_builder.hpp"
#include "core/fu_throttle.hpp"
#include "core/paragraph.hpp"
#include "core/report.hpp"
#include "core/window.hpp"
#include "tests/core/trace_helpers.hpp"

using namespace paragraph;
using namespace paragraph::core;
using namespace paragraph::testhelpers;

TEST(FuThrottle, DisabledIsIdentity)
{
    AnalysisConfig cfg;
    FuThrottle throttle(cfg);
    EXPECT_FALSE(throttle.enabled());
    EXPECT_EQ(throttle.place(isa::OpClass::IntAlu, 17, 1), 17);
}

TEST(FuThrottle, TotalLimitSlidesOverflow)
{
    AnalysisConfig cfg;
    cfg.totalFuLimit = 2;
    FuThrottle throttle(cfg);
    EXPECT_EQ(throttle.place(isa::OpClass::IntAlu, 0, 1), 0);
    EXPECT_EQ(throttle.place(isa::OpClass::IntAlu, 0, 1), 0);
    EXPECT_EQ(throttle.place(isa::OpClass::IntAlu, 0, 1), 1); // level 0 full
    EXPECT_EQ(throttle.place(isa::OpClass::Load, 0, 1), 1);
    EXPECT_EQ(throttle.place(isa::OpClass::Load, 0, 1), 2);
}

TEST(FuThrottle, ClassLimitsAreIndependent)
{
    AnalysisConfig cfg;
    cfg.fuLimit[static_cast<size_t>(isa::OpClass::FpMul)] = 1;
    FuThrottle throttle(cfg);
    EXPECT_TRUE(throttle.enabled());
    EXPECT_EQ(throttle.place(isa::OpClass::FpMul, 0, 6), 0);
    // Second FP multiply cannot overlap the first anywhere in levels 0-5.
    EXPECT_EQ(throttle.place(isa::OpClass::FpMul, 0, 6), 6);
    // Other classes are unconstrained.
    EXPECT_EQ(throttle.place(isa::OpClass::IntAlu, 0, 1), 0);
    EXPECT_EQ(throttle.place(isa::OpClass::IntAlu, 0, 1), 0);
}

TEST(FuThrottle, NonPipelinedOccupiesWholeSpan)
{
    AnalysisConfig cfg;
    cfg.totalFuLimit = 1;
    cfg.pipelinedFus = false;
    FuThrottle throttle(cfg);
    EXPECT_EQ(throttle.place(isa::OpClass::IntMul, 0, 6), 0);  // levels 0-5
    EXPECT_EQ(throttle.place(isa::OpClass::IntAlu, 3, 1), 6);  // must wait
}

TEST(FuThrottle, PipelinedOccupiesIssueLevelOnly)
{
    AnalysisConfig cfg;
    cfg.totalFuLimit = 1;
    cfg.pipelinedFus = true;
    FuThrottle throttle(cfg);
    EXPECT_EQ(throttle.place(isa::OpClass::IntMul, 0, 6), 0); // level 0 only
    EXPECT_EQ(throttle.place(isa::OpClass::IntAlu, 0, 1), 1);
}

TEST(FuThrottle, ResetClearsOccupancy)
{
    AnalysisConfig cfg;
    cfg.totalFuLimit = 1;
    FuThrottle throttle(cfg);
    EXPECT_EQ(throttle.place(isa::OpClass::IntAlu, 0, 1), 0);
    throttle.reset();
    EXPECT_EQ(throttle.place(isa::OpClass::IntAlu, 0, 1), 0);
}

TEST(SlidingWindow, DisplacesOldestAfterFilling)
{
    SlidingWindow win(3);
    EXPECT_EQ(win.willEnter(), SlidingWindow::notPlaced);
    win.entered(10);
    win.entered(20);
    EXPECT_EQ(win.willEnter(), SlidingWindow::notPlaced); // not yet full
    win.entered(30);
    EXPECT_EQ(win.willEnter(), 10);
    win.entered(40);
    EXPECT_EQ(win.willEnter(), 20);
    win.entered(50);
    EXPECT_EQ(win.willEnter(), 30);
}

TEST(SlidingWindow, ResetEmpties)
{
    SlidingWindow win(2);
    win.entered(1);
    win.entered(2);
    EXPECT_EQ(win.willEnter(), 1);
    win.reset();
    EXPECT_EQ(win.willEnter(), SlidingWindow::notPlaced);
    EXPECT_EQ(win.capacity(), 2u);
}

/** The window against an independent model: the last W entered levels in
 *  a deque, oldest first. Each capacity runs through at least three wraps,
 *  with unplaced records mixed in, asking willEnter() before every
 *  entered(); at checkpoints mid-stream (before and after the first wrap)
 *  the run continues on a fresh window seeded from the snapshot. */
TEST(SlidingWindow, MatchesADequeModelThroughWrapsAndReseeds)
{
    const int64_t notPlaced = SlidingWindow::notPlaced;
    for (uint64_t cap : {1u, 2u, 3u, 7u, 64u, 257u}) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        SlidingWindow window(cap);
        std::deque<int64_t> model;
        const uint64_t steps = 3 * cap + cap / 2 + 2;
        for (uint64_t i = 0; i < steps; ++i) {
            const int64_t displaced =
                model.size() == cap ? model.front() : notPlaced;
            ASSERT_EQ(window.willEnter(), displaced) << "record " << i;
            const int64_t level =
                i % 5 == 3 ? notPlaced : static_cast<int64_t>(i * 7919 % 1000);
            window.entered(level);
            if (model.size() == cap)
                model.pop_front();
            model.push_back(level);

            if (i % (cap / 2 + 2) == 1 || i == cap - 1 || i == cap) {
                const std::vector<int64_t> snap = window.snapshot();
                ASSERT_EQ(snap,
                          std::vector<int64_t>(model.begin(), model.end()))
                    << "snapshot after record " << i;
                SlidingWindow reseeded(cap);
                reseeded.seed(snap);
                ASSERT_EQ(reseeded.snapshot(), snap);
                window = reseeded;
            }
        }
        EXPECT_EQ(window.capacity(), cap);
        window.reset();
        EXPECT_EQ(window.willEnter(), notPlaced);
        EXPECT_TRUE(window.snapshot().empty());
    }
}

TEST(LiveWell, LocateFromKindAndIdAgreesWithTheTaggedKey)
{
    // The placement loop locates operands from their record kind byte and
    // id; key-based callers (the shard splice, introspection) locate by
    // trace::locationKey. Both must name the same slot for every id,
    // including ids whose high bits overlap the key's namespace tag.
    const trace::Operand::Kind kinds[] = {trace::Operand::Kind::IntReg,
                                          trace::Operand::Kind::FpReg,
                                          trace::Operand::Kind::Mem};
    const uint64_t ids[] = {0,
                            5,
                            63,
                            64,
                            1ULL << 40,
                            (1ULL << 62) | 5,
                            (1ULL << 63) | 5,
                            (3ULL << 62) | 5,
                            ~0ULL >> 2};
    for (trace::Operand::Kind kind : kinds) {
        for (uint64_t id : ids) {
            const trace::Operand op{kind, trace::Segment::Data, id};
            const uint8_t kb = trace::kindByte(
                kind == trace::Operand::Kind::Mem
                    ? op
                    : trace::Operand{kind, trace::Segment::None, id});
            const LiveWell::Loc a = LiveWell::locate(kb, id);
            const LiveWell::Loc b =
                LiveWell::locate(trace::locationKey(kb, id));
            EXPECT_EQ(a.file, b.file) << int(kb) << " " << id;
            EXPECT_EQ(a.at, b.at) << int(kb) << " " << id;
        }
    }
    // Register ids inside a file index it directly; memory never does.
    EXPECT_TRUE(LiveWell::locate(1, 63).direct());
    EXPECT_FALSE(LiveWell::locate(1, 64).direct());
    EXPECT_FALSE(LiveWell::locate(0x13, 5).direct());

    // A value defined through one name is found through the other.
    LiveWell well;
    well.define(LiveWell::locate(2, 7), 11);
    const LiveValue *lv = well.find(trace::locationKey(2, 7));
    ASSERT_NE(lv, nullptr);
    EXPECT_EQ(lv->level, 11);
    EXPECT_EQ(well.size(), 1u);
}

TEST(DdgBuilder, TrueEdgesConnectProducersToConsumers)
{
    TraceBuffer buf;
    buf.push(alu(1, {}));      // node 0
    buf.push(alu(2, {}));      // node 1
    buf.push(alu(3, {1, 2}));  // node 2 <- 0, 1
    Ddg ddg = buildDdg(buf, AnalysisConfig::dataflowConservative());
    ASSERT_EQ(ddg.nodes.size(), 3u);
    ASSERT_EQ(ddg.edges.size(), 2u);
    EXPECT_EQ(ddg.countEdges(DepKind::True), 2u);
    EXPECT_EQ(ddg.edges[0].to, 2u);
    EXPECT_EQ(ddg.edges[1].to, 2u);
}

TEST(DdgBuilder, DuplicateSourceProducesOneEdge)
{
    TraceBuffer buf;
    buf.push(alu(1, {}));
    buf.push(alu(2, {1, 1}));
    Ddg ddg = buildDdg(buf, AnalysisConfig::dataflowConservative());
    EXPECT_EQ(ddg.countEdges(DepKind::True), 1u);
}

TEST(DdgBuilder, StorageEdgesOnlyWithoutRenaming)
{
    TraceBuffer buf;
    buf.push(alu(1, {}));
    buf.push(alu(2, {1}));
    buf.push(alu(1, {})); // overwrite r1
    AnalysisConfig renamed = AnalysisConfig::dataflowConservative();
    EXPECT_EQ(buildDdg(buf, renamed).countEdges(DepKind::Storage), 0u);

    AnalysisConfig not_renamed = renamed;
    not_renamed.renameRegisters = false;
    Ddg ddg = buildDdg(buf, not_renamed);
    // WAW edge from the old producer and WAR edge from its reader.
    EXPECT_EQ(ddg.countEdges(DepKind::Storage), 2u);
}

TEST(DdgBuilder, ControlEdgesFromSysCallFirewall)
{
    TraceBuffer buf;
    buf.push(syscall());   // node 0, firewall
    buf.push(alu(4, {}));  // floor-bound: control edge from the syscall
    Ddg ddg = buildDdg(buf, AnalysisConfig::dataflowConservative());
    ASSERT_EQ(ddg.countEdges(DepKind::Control), 1u);
    for (const auto &e : ddg.edges) {
        if (e.kind == DepKind::Control) {
            EXPECT_EQ(e.from, 0u);
            EXPECT_EQ(e.to, 1u);
        }
    }
}

TEST(DdgBuilder, DotOutputIsWellFormed)
{
    TraceBuffer buf;
    buf.push(alu(1, {}));
    buf.push(alu(2, {1}));
    Ddg ddg = buildDdg(buf, AnalysisConfig::dataflowConservative());
    std::string dot = ddg.toDot();
    EXPECT_NE(dot.find("digraph ddg"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
    EXPECT_NE(dot.find("rank=same"), std::string::npos);
    EXPECT_EQ(dot.back(), '\n');
}

TEST(DdgBuilder, LevelHistogramMatchesNodes)
{
    TraceBuffer buf = randomTrace(4, 500);
    Ddg ddg = buildDdg(buf, AnalysisConfig::dataflowConservative());
    auto hist = ddg.levelHistogram();
    uint64_t total = 0;
    for (uint64_t c : hist)
        total += c;
    EXPECT_EQ(total, ddg.nodes.size());
    EXPECT_EQ(hist.size(), ddg.criticalPathLength);
}

TEST(Report, SummaryAndProfileRender)
{
    TraceBuffer buf = randomTrace(6, 2000);
    trace::BufferSource src(buf);
    AnalysisConfig cfg = AnalysisConfig::dataflowConservative();
    Paragraph engine(cfg);
    AnalysisResult res = engine.analyze(src);

    std::ostringstream oss;
    printSummary(oss, "random", cfg, res);
    printProfile(oss, res, 16);
    printProfilePlot(oss, res, 8, 40);
    printDistributions(oss, res);
    printStorageProfile(oss, res, 8, 40);
    std::string out = oss.str();
    EXPECT_NE(out.find("random"), std::string::npos);
    EXPECT_NE(out.find("critical path"), std::string::npos);
    EXPECT_NE(out.find("Ops/level"), std::string::npos);
    EXPECT_NE(out.find("value lifetimes"), std::string::npos);
    EXPECT_NE(out.find("degree of sharing"), std::string::npos);
    EXPECT_NE(out.find("live values"), std::string::npos);
}
