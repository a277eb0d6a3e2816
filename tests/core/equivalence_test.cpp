// Equivalence suite for the hot-path overhaul: a deliberately simple
// reference analyzer — single hash-map live well (no split register files,
// no handles), two-phase find-then-insert probes, frontier-less linear-scan
// FU placement — must produce results identical to the optimized Paragraph
// across the full switch matrix and all three drive paths (record-at-a-time
// process(), streaming analyze(TraceSource&), bulk analyze(TraceBuffer&)).
//
// Every comparable AnalysisResult field is checked exactly, including the
// complete bin contents of the parallelism profile, both histograms, and the
// storage profile series — or, for a sweep cell's config (no
// distributions), the two histograms' counts and means against the
// reference's plain sums, with no bins and no storage profile. Only
// analysisSeconds (wall clock) and liveWellPeakBytes
// (representation-specific by design) are exempt.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/branch_predictor.hpp"
#include "core/multi.hpp"
#include "core/paragraph.hpp"
#include "core/window.hpp"
#include "support/flat_hash_map.hpp"
#include "tests/core/trace_helpers.hpp"
#include "trace/buffer.hpp"
#include "trace/last_use.hpp"

namespace paragraph {
namespace {

using core::AnalysisConfig;
using core::AnalysisResult;
using core::LiveValue;
using core::Paragraph;
using core::PredictorKind;
using core::SlidingWindow;
using trace::locationKey;
using trace::Operand;
using trace::Segment;
using trace::TraceBuffer;
using trace::TraceRecord;

/** First-fit functional-unit placement by plain linear scan: no saturation
 *  frontiers, no skip pointers. The optimized FuThrottle must agree with
 *  this on every placement. */
class ReferenceThrottle
{
  public:
    explicit ReferenceThrottle(const AnalysisConfig &cfg)
        : pipelined_(cfg.pipelinedFus),
          totalLimit_(cfg.totalFuLimit),
          classLimit_(cfg.fuLimit)
    {
        enabled_ = totalLimit_ > 0;
        for (uint32_t lim : classLimit_) {
            if (lim > 0)
                enabled_ = true;
        }
    }

    bool enabled() const { return enabled_; }

    int64_t
    place(isa::OpClass cls, int64_t min_issue, uint32_t span)
    {
        if (!enabled_)
            return min_issue;
        int64_t issue = min_issue;
        while (!fits(cls, issue, span))
            ++issue;
        reserve(cls, issue, span);
        return issue;
    }

  private:
    bool enabled_ = false;
    bool pipelined_ = false;
    uint32_t totalLimit_ = 0;
    std::array<uint32_t, isa::numOpClasses> classLimit_ = {};
    std::array<std::vector<uint32_t>, isa::numOpClasses> usage_;
    std::vector<uint32_t> totalUsage_;

    static uint32_t
    at(const std::vector<uint32_t> &v, int64_t level)
    {
        size_t idx = static_cast<size_t>(level);
        return idx < v.size() ? v[idx] : 0;
    }

    bool
    fits(isa::OpClass cls, int64_t issue, uint32_t span) const
    {
        uint32_t levels = pipelined_ ? 1 : span;
        uint32_t class_limit = classLimit_[static_cast<size_t>(cls)];
        const auto &class_usage = usage_[static_cast<size_t>(cls)];
        for (uint32_t i = 0; i < levels; ++i) {
            int64_t level = issue + static_cast<int64_t>(i);
            if (class_limit > 0 && at(class_usage, level) >= class_limit)
                return false;
            if (totalLimit_ > 0 && at(totalUsage_, level) >= totalLimit_)
                return false;
        }
        return true;
    }

    void
    reserve(isa::OpClass cls, int64_t issue, uint32_t span)
    {
        uint32_t levels = pipelined_ ? 1 : span;
        auto bump = [](std::vector<uint32_t> &v, int64_t level) {
            size_t idx = static_cast<size_t>(level);
            if (idx >= v.size())
                v.resize(idx + 1, 0);
            ++v[idx];
        };
        for (uint32_t i = 0; i < levels; ++i) {
            int64_t level = issue + static_cast<int64_t>(i);
            if (classLimit_[static_cast<size_t>(cls)] > 0)
                bump(usage_[static_cast<size_t>(cls)], level);
            if (totalLimit_ > 0)
                bump(totalUsage_, level);
        }
    }
};

/** What a sweep cell renders of the lifetime and sharing distributions,
 *  as plain sums: dying values counted, and their lifetimes and reader
 *  counts added up. */
struct ReferenceMeans
{
    uint64_t values = 0;
    uint64_t lifetimeSum = 0;
    uint64_t sharingSum = 0;

    static double
    mean(uint64_t sum, uint64_t n)
    {
        return n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
    }
};

/** The placement algorithm in its plainest form: every location hashes into
 *  one map, every phase re-probes by key. */
class ReferenceAnalyzer
{
  public:
    explicit ReferenceAnalyzer(AnalysisConfig cfg)
        : cfg_(cfg),
          throttle_(cfg),
          predictor_(cfg.branchPredictor, cfg.predictorTableBits)
    {
        if (cfg_.windowSize > 0)
            window_ = std::make_unique<SlidingWindow>(cfg_.windowSize);
        result_.profile = BucketedProfile(cfg_.profileBins);
        result_.storageProfile = IntervalProfile(cfg_.profileBins);
    }

    AnalysisResult
    run(const TraceBuffer &buffer)
    {
        for (const TraceRecord &rec : buffer.records()) {
            if (cfg_.maxInstructions &&
                result_.instructions >= cfg_.maxInstructions)
                break;
            ++result_.instructions;
            step(rec);
        }
        well_.forEach(
            [this](uint64_t, const LiveValue &lv) { retire(lv); });
        result_.liveWellFinal = well_.size();
        result_.liveWellPeak = well_.peakSize();
        result_.criticalPathLength =
            deepest_ >= 0 ? static_cast<uint64_t>(deepest_) + 1 : 0;
        result_.availableParallelism =
            result_.criticalPathLength
                ? static_cast<double>(result_.placedOps) /
                      static_cast<double>(result_.criticalPathLength)
                : 0.0;
        return result_;
    }

    /** The lifetime and sharing sums of the run (either config mode). */
    const ReferenceMeans &means() const { return means_; }

  private:
    AnalysisConfig cfg_;
    ReferenceMeans means_;
    FlatHashMap<uint64_t, LiveValue> well_;
    ReferenceThrottle throttle_;
    core::BranchPredictor predictor_;
    std::unique_ptr<SlidingWindow> window_;
    AnalysisResult result_;
    int64_t highest_ = 0;
    int64_t deepest_ = -1;

    void
    raiseFloor(int64_t level)
    {
        if (level > highest_) {
            highest_ = level;
            ++result_.firewalls;
        }
    }

    LiveValue *
    findOrCreatePre(uint64_t key)
    {
        if (LiveValue *lv = well_.find(key))
            return lv;
        ++result_.preExistingValues;
        return &well_.insertOrAssign(
            key, LiveValue{highest_ - 1, highest_ - 1, 0, true});
    }

    bool
    renamed(const Operand &op) const
    {
        switch (op.kind) {
          case Operand::Kind::IntReg:
          case Operand::Kind::FpReg:
            return cfg_.renameRegisters;
          case Operand::Kind::Mem:
            return op.seg == Segment::Stack ? cfg_.renameStack
                                            : cfg_.renameData;
          default:
            return true;
        }
    }

    void
    retire(const LiveValue &lv)
    {
        if (lv.preExisting)
            return;
        const auto lifetime =
            static_cast<uint64_t>(lv.deepestAccess - lv.level);
        ++means_.values;
        means_.lifetimeSum += lifetime;
        means_.sharingSum += lv.useCount;
        if (!cfg_.distributions)
            return;
        result_.lifetimes.add(lifetime);
        result_.sharing.add(lv.useCount);
        if (lv.level >= 0) {
            result_.storageProfile.add(
                static_cast<uint64_t>(lv.level),
                static_cast<uint64_t>(lv.deepestAccess));
        }
    }

    void
    step(const TraceRecord &rec)
    {
        if (window_) {
            int64_t displaced = window_->willEnter();
            if (displaced != SlidingWindow::notPlaced)
                raiseFloor(displaced + 1);
        }
        if (rec.isSysCall())
            ++result_.sysCalls;
        if (rec.isCondBranch()) {
            ++result_.condBranches;
            if (predictor_.kind() != PredictorKind::Perfect &&
                !predictor_.predictAndUpdate(rec.pc, rec.branchTaken())) {
                ++result_.branchMispredictions;
                int64_t resolve = highest_;
                for (int s = 0; s < rec.numSrcs; ++s) {
                    LiveValue *lv =
                        findOrCreatePre(locationKey(rec.src(s)));
                    if (lv->level + 1 > resolve)
                        resolve = lv->level + 1;
                }
                raiseFloor(resolve);
            }
        }

        bool place = rec.createsValue();
        if (rec.isSysCall() && !cfg_.sysCallsStall)
            place = false;

        int64_t level = SlidingWindow::notPlaced;
        if (place)
            level = placeRecord(rec);

        if (rec.isSysCall() && cfg_.sysCallsStall)
            raiseFloor(deepest_ + 1);
        if (window_)
            window_->entered(level);
    }

    int64_t
    placeRecord(const TraceRecord &rec)
    {
        // True data dependencies.
        int64_t issue = highest_;
        for (int s = 0; s < rec.numSrcs; ++s) {
            LiveValue *lv = findOrCreatePre(locationKey(rec.src(s)));
            if (lv->level + 1 > issue)
                issue = lv->level + 1;
        }
        // Storage dependency on the destination.
        const bool has_dest = rec.dest().valid();
        const uint64_t dkey = has_dest ? locationKey(rec.dest()) : 0;
        if (has_dest && !renamed(rec.dest())) {
            if (LiveValue *dp = well_.find(dkey)) {
                if (dp->deepestAccess + 1 > issue) {
                    issue = dp->deepestAccess + 1;
                    ++result_.storageDelayedOps;
                }
            }
        }
        // Resource dependencies.
        const uint32_t top = cfg_.latency[static_cast<size_t>(rec.cls)];
        if (throttle_.enabled()) {
            int64_t adjusted = throttle_.place(rec.cls, issue, top);
            if (adjusted > issue)
                ++result_.fuDelayedOps;
            issue = adjusted;
        }
        const int64_t ldest = issue + static_cast<int64_t>(top) - 1;

        // Read accesses (re-probed by key; no handles anywhere).
        for (int s = 0; s < rec.numSrcs; ++s) {
            LiveValue *lv = well_.find(locationKey(rec.src(s)));
            ++lv->useCount;
            if (ldest > lv->deepestAccess)
                lv->deepestAccess = ldest;
        }
        // Two-pass deadness.
        if (cfg_.useLastUseEviction && rec.lastUseMask) {
            for (int s = 0; s < rec.numSrcs; ++s) {
                if (!(rec.lastUseMask & (1u << s)))
                    continue;
                uint64_t key = locationKey(rec.src(s));
                if (LiveValue *lv = well_.find(key)) {
                    retire(*lv);
                    well_.erase(key);
                }
            }
        }
        // The created value displaces the previous occupant.
        if (has_dest) {
            if (LiveValue *prev = well_.find(dkey)) {
                retire(*prev);
                *prev = LiveValue{ldest, ldest, 0, false};
            } else {
                well_.insertOrAssign(dkey,
                                     LiveValue{ldest, ldest, 0, false});
            }
        }

        ++result_.placedOps;
        result_.profile.add(static_cast<uint64_t>(ldest));
        if (ldest > deepest_)
            deepest_ = ldest;
        return ldest;
    }
};

void
expectHistogramsEqual(const Histogram &ref, const Histogram &got,
                      const std::string &what)
{
    EXPECT_EQ(ref.totalCount(), got.totalCount()) << what;
    EXPECT_EQ(ref.mean(), got.mean()) << what;
    EXPECT_EQ(ref.overflowCount(), got.overflowCount()) << what;
    EXPECT_EQ(ref.maxSample(), got.maxSample()) << what;
    ASSERT_EQ(ref.exactRange(), got.exactRange()) << what;
    for (uint64_t v = 0; v < ref.exactRange(); ++v)
        ASSERT_EQ(ref.count(v), got.count(v)) << what << " bin " << v;
}

/** Every counter and the parallelism profile: what both config modes
 *  compute in full. */
void
expectCountersEqual(const AnalysisResult &ref, const AnalysisResult &got)
{
    EXPECT_EQ(ref.instructions, got.instructions);
    EXPECT_EQ(ref.placedOps, got.placedOps);
    EXPECT_EQ(ref.sysCalls, got.sysCalls);
    EXPECT_EQ(ref.firewalls, got.firewalls);
    EXPECT_EQ(ref.preExistingValues, got.preExistingValues);
    EXPECT_EQ(ref.storageDelayedOps, got.storageDelayedOps);
    EXPECT_EQ(ref.fuDelayedOps, got.fuDelayedOps);
    EXPECT_EQ(ref.condBranches, got.condBranches);
    EXPECT_EQ(ref.branchMispredictions, got.branchMispredictions);
    EXPECT_EQ(ref.criticalPathLength, got.criticalPathLength);
    EXPECT_EQ(ref.availableParallelism, got.availableParallelism);
    EXPECT_EQ(ref.liveWellPeak, got.liveWellPeak);
    EXPECT_EQ(ref.liveWellFinal, got.liveWellFinal);

    ASSERT_EQ(ref.profile.numBins(), got.profile.numBins());
    EXPECT_EQ(ref.profile.totalOps(), got.profile.totalOps());
    EXPECT_EQ(ref.profile.maxLevel(), got.profile.maxLevel());
    EXPECT_EQ(ref.profile.bucketWidth(), got.profile.bucketWidth());
    for (size_t b = 0; b < ref.profile.numBins(); ++b)
        ASSERT_EQ(ref.profile.binCount(b), got.profile.binCount(b))
            << "profile bin " << b;
}

void
expectResultsEqual(const AnalysisResult &ref, const AnalysisResult &got,
                   const std::string &what)
{
    SCOPED_TRACE(what);
    expectCountersEqual(ref, got);
    expectHistogramsEqual(ref.lifetimes, got.lifetimes, "lifetimes");
    expectHistogramsEqual(ref.sharing, got.sharing, "sharing");

    EXPECT_EQ(ref.storageProfile.intervals(), got.storageProfile.intervals());
    EXPECT_EQ(ref.storageProfile.maxLevel(), got.storageProfile.maxLevel());
    EXPECT_EQ(ref.storageProfile.bucketWidth(),
              got.storageProfile.bucketWidth());
    EXPECT_EQ(ref.storageProfile.meanLive(), got.storageProfile.meanLive());
    EXPECT_EQ(ref.storageProfile.peakLive(), got.storageProfile.peakLive());
    auto ref_series = ref.storageProfile.series();
    auto got_series = got.storageProfile.series();
    ASSERT_EQ(ref_series.size(), got_series.size());
    for (size_t i = 0; i < ref_series.size(); ++i) {
        ASSERT_EQ(ref_series[i].firstLevel, got_series[i].firstLevel) << i;
        ASSERT_EQ(ref_series[i].lastLevel, got_series[i].lastLevel) << i;
        ASSERT_EQ(ref_series[i].liveValues, got_series[i].liveValues) << i;
    }
}

/** The two distributions' counts and means against the reference's plain
 *  sums — what a sweep cell renders, in either config mode. */
void
expectMeansEqual(const ReferenceMeans &ref, const AnalysisResult &got)
{
    EXPECT_EQ(got.lifetimes.totalCount(), ref.values);
    EXPECT_EQ(got.sharing.totalCount(), ref.values);
    EXPECT_EQ(got.lifetimes.mean(),
              ReferenceMeans::mean(ref.lifetimeSum, ref.values));
    EXPECT_EQ(got.sharing.mean(),
              ReferenceMeans::mean(ref.sharingSum, ref.values));
}

/** A sweep cell's result (no distributions): the counters and profile of
 *  the reference, and of the distributions nothing but their counts and
 *  sums — no histogram bins, overflow or maximum, no storage profile. */
void
expectCellResultEqual(const AnalysisResult &ref, const AnalysisResult &got)
{
    expectCountersEqual(ref, got);
    for (const Histogram *h : {&got.lifetimes, &got.sharing}) {
        EXPECT_EQ(h->capacity(), 0u);
        EXPECT_EQ(h->overflowCount(), 0u);
        EXPECT_EQ(h->maxSample(), 0u);
    }
    EXPECT_TRUE(got.storageProfile.empty());
    EXPECT_EQ(got.storageProfile.capacity(), 0u);
}

/** Run the reference and all three optimized drive paths; everything must
 *  agree exactly — in full, or as a cell's counts and means. */
void
checkAllPaths(const TraceBuffer &buffer, const AnalysisConfig &cfg,
              const std::string &what)
{
    ReferenceAnalyzer reference(cfg);
    const AnalysisResult ref = reference.run(buffer);
    auto check = [&](const AnalysisResult &got, const std::string &path) {
        SCOPED_TRACE(what + path);
        if (cfg.distributions)
            expectResultsEqual(ref, got, "full distributions");
        else
            expectCellResultEqual(ref, got);
        expectMeansEqual(reference.means(), got);
    };

    Paragraph bulk(cfg);
    check(bulk.analyze(buffer), " [bulk]");

    trace::BufferSource src(buffer);
    Paragraph streaming(cfg);
    check(streaming.analyze(src), " [stream]");

    Paragraph scalar(cfg);
    for (const TraceRecord &rec : buffer.records()) {
        if (scalar.done())
            break;
        scalar.process(rec);
    }
    check(scalar.finish(), " [scalar]");
}

/** The full switch matrix of paper Section 3.2: window x renaming x syscall
 *  assumption x predictor x FU limits x eviction policy x full
 *  distributions or a sweep cell's means — every record-loop shape outside
 *  segment mode. Trace depth stays below profileBins so profile folding
 *  never depends on the live well's end-of-trace iteration order (which is
 *  representation-specific). */
TEST(HotPathEquivalence, FullSwitchMatrix)
{
    TraceBuffer buffer = testhelpers::randomTrace(2026, 1000);
    TraceBuffer annotated(buffer.records());
    trace::annotateLastUses(annotated);

    const struct
    {
        const char *name;
        bool regs, data, stack;
    } renames[] = {
        {"rename-all", true, true, true},
        {"rename-none", false, false, false},
        {"rename-regs", true, false, false},
        {"rename-regs+data", true, true, false},
    };
    const struct
    {
        const char *name;
        uint32_t total;
        uint32_t intAlu;
        bool pipelined;
    } fus[] = {
        {"fu-none", 0, 0, false},
        {"fu-total4", 4, 0, false},
        {"fu-alu2-pipelined", 3, 2, true},
    };

    for (uint64_t window : {uint64_t{0}, uint64_t{64}}) {
        for (const auto &rn : renames) {
            for (bool stall : {true, false}) {
                for (PredictorKind pred :
                     {PredictorKind::Perfect, PredictorKind::Bimodal}) {
                    for (const auto &fu : fus) {
                      for (bool full : {true, false}) {
                        for (bool last_use : {false, true}) {
                            AnalysisConfig cfg;
                            cfg.windowSize = window;
                            cfg.renameRegisters = rn.regs;
                            cfg.renameData = rn.data;
                            cfg.renameStack = rn.stack;
                            cfg.sysCallsStall = stall;
                            cfg.branchPredictor = pred;
                            cfg.totalFuLimit = fu.total;
                            cfg.fuLimit[static_cast<size_t>(
                                isa::OpClass::IntAlu)] = fu.intAlu;
                            cfg.pipelinedFus = fu.pipelined;
                            cfg.useLastUseEviction = last_use;
                            cfg.distributions = full;
                            cfg.profileBins = 65536;
                            std::string what =
                                std::string("w") + std::to_string(window) +
                                " " + rn.name +
                                (stall ? " stall" : " nostall") +
                                (pred == PredictorKind::Perfect
                                     ? " perfect"
                                     : " bimodal") +
                                " " + fu.name +
                                (full ? " full" : " cell") +
                                (last_use ? " lastuse" : " overwrite");
                            checkAllPaths(last_use ? annotated : buffer, cfg,
                                          what);
                        }
                      }
                    }
                }
            }
        }
    }
}

/** Deep serial chains fold the profiles repeatedly mid-run; the fold
 *  sequence must match between the reference and the optimized paths. */
TEST(HotPathEquivalence, DeepChainsFoldProfilesIdentically)
{
    TraceBuffer buffer;
    // A long dependent chain through one register plus a strided store
    // stream: depth ~= length * latency, far past the default 4096 bins.
    for (int i = 0; i < 20000; ++i) {
        buffer.push(testhelpers::typed(isa::OpClass::IntMul, 1, {1}));
        buffer.push(
            testhelpers::store(0x1000 + 8 * (i % 512), 1));
    }
    for (const char *preset : {"dataflow", "norename"}) {
        AnalysisConfig cfg = std::string(preset) == "dataflow"
                                 ? AnalysisConfig::dataflowConservative()
                                 : AnalysisConfig::noRenaming();
        checkAllPaths(buffer, cfg, preset);
    }
}

/** The instruction cap must bite at the same record on every path. */
TEST(HotPathEquivalence, MaxInstructionsCapsIdentically)
{
    TraceBuffer buffer = testhelpers::randomTrace(7, 2000);
    for (uint64_t cap : {uint64_t{1}, uint64_t{255}, uint64_t{256},
                         uint64_t{257}, uint64_t{777}, uint64_t{5000}}) {
        AnalysisConfig cfg = AnalysisConfig::noRenaming();
        cfg.windowSize = 32;
        cfg.branchPredictor = PredictorKind::Bimodal;
        cfg.maxInstructions = cap;
        cfg.profileBins = 65536;
        checkAllPaths(buffer, cfg,
                      "cap=" + std::to_string(cap));
    }
}

/** A fused multi-config pass (the sweep engine's grouped execution) must be
 *  byte-identical to independent solo runs for every member, whatever mix
 *  of window, renaming, FU, predictor, and cap switches shares the pass —
 *  on both the pipelined source path and the in-memory buffer path. */
TEST(HotPathEquivalence, FusedMultiConfigMatchesSoloRuns)
{
    TraceBuffer buffer = testhelpers::randomTrace(4242, 1500);

    std::vector<AnalysisConfig> configs;
    for (uint64_t window :
         {uint64_t{0}, uint64_t{16}, uint64_t{64}, uint64_t{256}}) {
        AnalysisConfig cfg;
        cfg.windowSize = window;
        cfg.profileBins = 65536;
        configs.push_back(cfg);
    }
    {
        AnalysisConfig cfg = AnalysisConfig::noRenaming();
        cfg.profileBins = 65536;
        configs.push_back(cfg);
    }
    {
        AnalysisConfig cfg;
        cfg.branchPredictor = PredictorKind::Bimodal;
        cfg.totalFuLimit = 4;
        cfg.profileBins = 65536;
        configs.push_back(cfg);
    }
    {
        AnalysisConfig cfg;
        cfg.sysCallsStall = false;
        cfg.renameData = false;
        cfg.maxInstructions = 700;
        cfg.profileBins = 65536;
        configs.push_back(cfg);
    }

    std::vector<AnalysisResult> solo;
    for (const AnalysisConfig &cfg : configs)
        solo.push_back(Paragraph(cfg).analyze(buffer));

    trace::BufferSource src(buffer);
    std::vector<AnalysisResult> fused = core::analyzeMany(src, configs);
    ASSERT_EQ(solo.size(), fused.size());
    for (size_t i = 0; i < solo.size(); ++i) {
        expectResultsEqual(solo[i], fused[i],
                           "fused[" + std::to_string(i) + "]");
    }

    std::vector<core::MultiOutcome> guarded =
        core::analyzeManyGuarded(buffer, configs);
    ASSERT_EQ(solo.size(), guarded.size());
    for (size_t i = 0; i < guarded.size(); ++i) {
        ASSERT_FALSE(guarded[i].error) << "config " << i;
        expectResultsEqual(solo[i], guarded[i].result,
                           "guarded[" + std::to_string(i) + "]");
    }
}

void
expectSegmentLogsEqual(const core::SegmentLog &ref,
                       const core::SegmentLog &got, const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(ref.imports.size(), got.imports.size());
    for (size_t i = 0; i < ref.imports.size(); ++i) {
        const core::SegmentImport &a = ref.imports[i];
        const core::SegmentImport &b = got.imports[i];
        EXPECT_EQ(a.key, b.key) << "import " << i;
        EXPECT_EQ(a.viaRead, b.viaRead) << "import " << i;
        EXPECT_EQ(a.died, b.died) << "import " << i;
        EXPECT_EQ(a.closed, b.closed) << "import " << i;
        EXPECT_EQ(a.useCount, b.useCount) << "import " << i;
        EXPECT_EQ(a.maxReadRel, b.maxReadRel) << "import " << i;
        EXPECT_EQ(a.closeIssue, b.closeIssue) << "import " << i;
        EXPECT_EQ(a.floorAtTouch, b.floorAtTouch) << "import " << i;
        EXPECT_EQ(a.peakBefore, b.peakBefore) << "import " << i;
        EXPECT_EQ(a.sizeAfter, b.sizeAfter) << "import " << i;
    }
    EXPECT_EQ(ref.exports.size(), got.exports.size());
    EXPECT_EQ(ref.levelOps, got.levelOps);
    EXPECT_EQ(ref.headFloors, got.headFloors);
    EXPECT_EQ(ref.headLevels, got.headLevels);
    EXPECT_EQ(ref.windowTail, got.windowTail);
    EXPECT_EQ(ref.fuTail, got.fuTail);
    EXPECT_EQ(ref.firstStallDeepest, got.firstStallDeepest);
    EXPECT_EQ(ref.trailingPeak, got.trailingPeak);
    EXPECT_EQ(ref.relHighest, got.relHighest);
    EXPECT_EQ(ref.relDeepest, got.relDeepest);
}

/** One engine reused across run kinds — a solo run, a shard segment, a
 *  resumed span and a solo run again — must give each run exactly what a
 *  fresh engine gives it: every entry point re-picks the record loop for
 *  its own shape (a segment loop left in place would log into a stale or
 *  null segment log; a solo loop would log nothing). */
TEST(HotPathEquivalence, ReusedEngineRepicksItsLoopOnEveryBegin)
{
    TraceBuffer buffer = testhelpers::randomTrace(77, 1200);
    trace::annotateLastUses(buffer);
    const trace::TraceRecord *records = buffer.records().data();
    const size_t n = buffer.size();
    const size_t cut = n / 2;

    std::vector<AnalysisConfig> configs;
    {
        AnalysisConfig cfg;
        cfg.windowSize = 16;
        cfg.useLastUseEviction = true;
        cfg.distributions = false;
        configs.push_back(cfg);
    }
    {
        AnalysisConfig cfg = AnalysisConfig::noRenaming();
        cfg.totalFuLimit = 3;
        configs.push_back(cfg);
    }
    configs.push_back(AnalysisConfig());
    for (AnalysisConfig &cfg : configs)
        cfg.profileBins = 65536;

    for (size_t c = 0; c < configs.size(); ++c) {
        const AnalysisConfig &cfg = configs[c];
        const std::string what = "config " + std::to_string(c);
        const AnalysisResult solo = Paragraph(cfg).analyze(buffer);
        Paragraph reused(cfg);

        // A solo run.
        expectResultsEqual(solo, reused.analyze(buffer), what + " solo");

        // A shard segment over the second half.
        core::SegmentLog freshLog;
        Paragraph fresh(cfg);
        fresh.beginSegment(&freshLog);
        fresh.processAll(records + cut, n - cut);
        const AnalysisResult freshSegment = fresh.finish();
        core::SegmentLog reusedLog;
        reused.beginSegment(&reusedLog);
        reused.processAll(records + cut, n - cut);
        expectResultsEqual(freshSegment, reused.finish(), what + " segment");
        expectSegmentLogsEqual(freshLog, reusedLog, what + " segment log");
        // Only the segment loop logs: each placed op lands in levelOps.
        uint64_t logged = 0;
        for (uint64_t ops : reusedLog.levelOps)
            logged += ops;
        EXPECT_EQ(logged, freshSegment.placedOps) << what;
        EXPECT_GT(logged, 0u) << what;

        // A span resumed at the cut from a solo run's carried state. The
        // FU-limited config needs the throttle rows resumeSpan() asks for
        // below the deepest level, which suspendSpan() does not export;
        // it skips this leg.
        if (cfg.totalFuLimit == 0) {
            Paragraph head(cfg);
            head.begin();
            head.processAll(records, cut);
            AnalysisResult acc;
            core::PatchCarry carry;
            head.suspendSpan(acc, carry);
            reused.resumeSpan(AnalysisResult(acc), core::PatchCarry(carry));
            reused.processAll(records + cut, n - cut);
            expectResultsEqual(solo, reused.finish(), what + " resumed");
        }

        // A solo run again, record by record.
        reused.begin();
        for (const TraceRecord &rec : buffer.records())
            reused.process(rec);
        expectResultsEqual(solo, reused.finish(), what + " solo again");
    }
}

/** Register indices past the direct register files (possible in hand-built
 *  traces) must take the hash-map fallback and still match. */
TEST(HotPathEquivalence, WideRegisterIndicesFallBackToTheMap)
{
    TraceBuffer buffer;
    for (int i = 0; i < 200; ++i) {
        buffer.push(testhelpers::alu(
            static_cast<uint8_t>(60 + (i % 8)),
            {static_cast<uint8_t>(60 + ((i + 3) % 8)),
             static_cast<uint8_t>(120 + (i % 64))}));
    }
    for (bool rename : {true, false}) {
        AnalysisConfig cfg;
        cfg.renameRegisters = rename;
        cfg.profileBins = 65536;
        checkAllPaths(buffer, cfg,
                      rename ? "wide-renamed" : "wide-norename");
    }
}

} // namespace
} // namespace paragraph
