#include "fuzz/invariant_oracle.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/baseline.hpp"
#include "core/multi.hpp"
#include "core/paragraph.hpp"
#include "core/shard.hpp"
#include "engine/explorer.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_args.hpp"
#include "isa/op_class.hpp"
#include "support/string_utils.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"

namespace paragraph {
namespace fuzz {

const std::vector<PropertyInfo> &
propertyCatalogue()
{
    // Derivations quote the placement rule: issue >= max(Lsrc + 1,
    // highestLevel, Ddest + 1), Ldest = issue + latency - 1 (Section 3.2).
    static const std::vector<PropertyInfo> catalogue = {
        {"fused-solo-identity",
         "analyzeMany shares one trace pass across engines that never "
         "interact; each must equal its solo analyze() exactly"},
        {"stream-bulk-identity",
         "streaming and bulk drives feed the same records to the same "
         "placement rule; results must be identical"},
        {"determinism",
         "the analysis has no hidden state: same trace + config twice "
         "must produce bit-identical results"},
        {"baseline-agreement",
         "the average-parallelism baseline computes max placement depth "
         "only; with matching switches its critical path must equal the "
         "full DDG engine's"},
        {"window-monotonicity",
         "a smaller window displaces operations earlier, leaving higher "
         "firewalls: W1 <= W2 implies cp(W1) >= cp(W2) >= cp(unlimited)"},
        {"window-firewall-bound",
         "displacement firewalls cap level occupancy: no DDG level may "
         "hold more than W operations, so placedOps <= cp * W"},
        {"rename-monotonicity",
         "renaming deletes Ddest terms from the placement max; every "
         "operation's level can only stay or sink, so cp is antitone in "
         "the renaming switches"},
        {"rename-removes-storage-deps",
         "with registers, data, and stack all renamed no storage "
         "dependency survives: storageDelayedOps must be zero"},
        {"syscall-monotonicity",
         "a stalling syscall adds a firewall at deepest+1; ignoring it "
         "deletes constraints, so cp(stall) >= cp(ignore), and the "
         "placed-op difference is exactly the value-creating syscalls"},
        {"fu-monotonicity",
         "a functional-unit limit can only push issue levels later: "
         "cp(limited) >= cp(unlimited), with identical placedOps"},
        {"placed-ops-conservation",
         "window, renaming, FU, and predictor switches move operations "
         "between levels but never add or remove them: placedOps equals "
         "the trace's value-creating record count under every such config"},
        {"profile-conservation",
         "the parallelism profile partitions the placed operations by "
         "level: totalOps == placedOps and deepest level + 1 == cp; every "
         "placed operation's value retires exactly once into the lifetime "
         "and sharing distributions"},
        {"predictor-bound",
         "mispredictions are a subset of conditional branches; an "
         "always-wrong predictor firewalls every branch, so its cp bounds "
         "the perfect predictor's from above"},
        {"critical-path-lower-bound",
         "Ldest = issue + latency - 1 puts any placed operation's class "
         "latency inside the path: cp >= max placed latency; parallelism "
         "is exactly placedOps / cp; live-well peak >= final population"},
        {"file-round-trip",
         ".ptrc and .ptrz encode losslessly: write + read back must "
         "reproduce every record bit-for-bit"},
        {"shard-stitch-identity",
         "a trace cut immediately after stalling syscalls analyzes "
         "segment-by-segment and stitches into the exact solo result "
         "(any config with stalling syscalls and perfect prediction)"},
        {"split-and-patch-identity",
         "a trace cut at arbitrary planner-chosen boundaries analyzes "
         "segment-by-segment and patches (splice where the boundary "
         "conditions hold, replay where they fail) into the exact solo "
         "result under every matrix config — modeled predictors, ignored "
         "syscalls, finite windows, and FU limits included"},
        {"explore-soundness",
         "the adaptive explorer prunes a cell only when the monotonicity "
         "theorems above prove a measured cell dominates it, so on any "
         "trace its Pareto frontier must equal the full grid's frontier "
         "and every dominance certificate must re-verify against the "
         "measured cells"},
    };
    return catalogue;
}

std::string
OracleReport::summary() const
{
    std::string out;
    for (const Violation &v : violations) {
        if (!out.empty())
            out += "; ";
        out += v.property;
        out += ": ";
        out += v.message;
    }
    return out;
}

namespace detail {

namespace {

bool
diffField(const char *name, uint64_t a, uint64_t b, std::string *diff)
{
    if (a == b)
        return true;
    if (diff)
        *diff = strFormat("%s: %llu vs %llu", name,
                          static_cast<unsigned long long>(a),
                          static_cast<unsigned long long>(b));
    return false;
}

bool
histogramsEqual(const char *what, const Histogram &a, const Histogram &b,
                std::string *diff)
{
    std::string field;
    if (!diffField("totalCount", a.totalCount(), b.totalCount(), &field) ||
        !diffField("overflowCount", a.overflowCount(), b.overflowCount(),
                   &field) ||
        !diffField("maxSample", a.maxSample(), b.maxSample(), &field) ||
        !diffField("exactRange", a.exactRange(), b.exactRange(), &field)) {
        if (diff)
            *diff = std::string(what) + "." + field;
        return false;
    }
    for (uint64_t v = 0; v < a.exactRange(); ++v) {
        if (a.count(v) != b.count(v)) {
            if (diff)
                *diff = strFormat("%s bin %llu: %llu vs %llu", what,
                                  static_cast<unsigned long long>(v),
                                  static_cast<unsigned long long>(a.count(v)),
                                  static_cast<unsigned long long>(b.count(v)));
            return false;
        }
    }
    return true;
}

} // namespace

bool
resultsEqual(const core::AnalysisResult &a, const core::AnalysisResult &b,
             std::string *diff)
{
    // Mirrors tests/core/equivalence_test.cpp: every deterministic field,
    // full profile bins, both histograms, the storage-profile series.
    // analysisSeconds (wall clock) and liveWellPeakBytes (representation-
    // specific by design) are exempt.
    if (!diffField("instructions", a.instructions, b.instructions, diff) ||
        !diffField("placedOps", a.placedOps, b.placedOps, diff) ||
        !diffField("sysCalls", a.sysCalls, b.sysCalls, diff) ||
        !diffField("firewalls", a.firewalls, b.firewalls, diff) ||
        !diffField("preExistingValues", a.preExistingValues,
                   b.preExistingValues, diff) ||
        !diffField("storageDelayedOps", a.storageDelayedOps,
                   b.storageDelayedOps, diff) ||
        !diffField("fuDelayedOps", a.fuDelayedOps, b.fuDelayedOps, diff) ||
        !diffField("condBranches", a.condBranches, b.condBranches, diff) ||
        !diffField("branchMispredictions", a.branchMispredictions,
                   b.branchMispredictions, diff) ||
        !diffField("criticalPathLength", a.criticalPathLength,
                   b.criticalPathLength, diff) ||
        !diffField("liveWellPeak", a.liveWellPeak, b.liveWellPeak, diff) ||
        !diffField("liveWellFinal", a.liveWellFinal, b.liveWellFinal, diff))
        return false;

    if (a.availableParallelism != b.availableParallelism) {
        if (diff)
            *diff = strFormat("availableParallelism: %.17g vs %.17g",
                              a.availableParallelism, b.availableParallelism);
        return false;
    }

    std::string field;
    if (!diffField("numBins", a.profile.numBins(), b.profile.numBins(),
                   &field) ||
        !diffField("totalOps", a.profile.totalOps(), b.profile.totalOps(),
                   &field) ||
        !diffField("maxLevel", a.profile.maxLevel(), b.profile.maxLevel(),
                   &field) ||
        !diffField("bucketWidth", a.profile.bucketWidth(),
                   b.profile.bucketWidth(), &field)) {
        if (diff)
            *diff = "profile." + field;
        return false;
    }
    for (size_t bin = 0; bin < a.profile.numBins(); ++bin) {
        if (a.profile.binCount(bin) != b.profile.binCount(bin)) {
            if (diff)
                *diff = strFormat(
                    "profile bin %zu: %llu vs %llu", bin,
                    static_cast<unsigned long long>(a.profile.binCount(bin)),
                    static_cast<unsigned long long>(b.profile.binCount(bin)));
            return false;
        }
    }

    if (!histogramsEqual("lifetimes", a.lifetimes, b.lifetimes, diff) ||
        !histogramsEqual("sharing", a.sharing, b.sharing, diff))
        return false;

    if (!diffField("intervals", a.storageProfile.intervals(),
                   b.storageProfile.intervals(), &field) ||
        !diffField("maxLevel", a.storageProfile.maxLevel(),
                   b.storageProfile.maxLevel(), &field) ||
        !diffField("bucketWidth", a.storageProfile.bucketWidth(),
                   b.storageProfile.bucketWidth(), &field) ||
        !diffField("peakLive", a.storageProfile.peakLive(),
                   b.storageProfile.peakLive(), &field)) {
        if (diff)
            *diff = "storageProfile." + field;
        return false;
    }
    if (a.storageProfile.meanLive() != b.storageProfile.meanLive()) {
        if (diff)
            *diff = strFormat("storageProfile.meanLive: %.17g vs %.17g",
                              a.storageProfile.meanLive(),
                              b.storageProfile.meanLive());
        return false;
    }
    auto aSeries = a.storageProfile.series();
    auto bSeries = b.storageProfile.series();
    if (aSeries.size() != bSeries.size()) {
        if (diff)
            *diff = strFormat("storageProfile series length: %zu vs %zu",
                              aSeries.size(), bSeries.size());
        return false;
    }
    for (size_t i = 0; i < aSeries.size(); ++i) {
        if (aSeries[i].firstLevel != bSeries[i].firstLevel ||
            aSeries[i].lastLevel != bSeries[i].lastLevel ||
            aSeries[i].liveValues != bSeries[i].liveValues) {
            if (diff)
                *diff = strFormat("storageProfile series entry %zu differs",
                                  i);
            return false;
        }
    }
    return true;
}

} // namespace detail

InvariantOracle::InvariantOracle(OracleOptions opt) : opt_(std::move(opt)) {}

namespace {

using core::AnalysisConfig;
using core::AnalysisResult;
using trace::TraceBuffer;
using trace::TraceRecord;

constexpr unsigned long long
ull(uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

/** The fixed config matrix: one axis varied per entry, base first. */
struct ConfigCell
{
    const char *name;
    AnalysisConfig cfg;
};

std::vector<ConfigCell>
buildMatrix(const OracleOptions &opt)
{
    std::vector<ConfigCell> cells;
    AnalysisConfig base; // stall, all renaming, unlimited window, perfect

    cells.push_back({"base", base});

    AnalysisConfig w = base;
    w.windowSize = opt.windowSmall;
    cells.push_back({"window-small", w});
    w.windowSize = opt.windowLarge;
    cells.push_back({"window-large", w});

    AnalysisConfig rn = base;
    rn.renameRegisters = rn.renameData = rn.renameStack = false;
    cells.push_back({"rename-none", rn});
    rn.renameRegisters = true;
    cells.push_back({"rename-regs", rn});

    AnalysisConfig sc = base;
    sc.sysCallsStall = false;
    cells.push_back({"syscalls-ignore", sc});

    AnalysisConfig fu = base;
    fu.totalFuLimit = opt.fuLimit;
    cells.push_back({"fu-limited", fu});

    AnalysisConfig bp = base;
    bp.branchPredictor = core::PredictorKind::AlwaysWrong;
    cells.push_back({"predictor-always-wrong", bp});

    return cells;
}

// Matrix indices (keep in sync with buildMatrix).
enum : size_t
{
    kBase = 0,
    kWindowSmall,
    kWindowLarge,
    kRenameNone,
    kRenameRegs,
    kSyscallsIgnore,
    kFuLimited,
    kAlwaysWrong,
    kNumCells
};

std::string
roundTripScratchPath(const OracleOptions &opt, const char *ext)
{
    std::string dir = opt.tempDir;
    if (dir.empty()) {
        const char *env = std::getenv("TMPDIR");
        dir = env && *env ? env : "/tmp";
    }
    return strFormat("%s/paragraph-oracle-%d%s", dir.c_str(),
                     static_cast<int>(::getpid()), ext);
}

} // namespace

OracleReport
InvariantOracle::check(const TraceBuffer &trace) const
{
    OracleReport rep;
    auto fail = [&rep](const char *prop, std::string msg) {
        rep.violations.push_back(Violation{prop, std::move(msg)});
    };

    // Ground truth extracted from the trace itself.
    uint64_t creators = 0;
    uint64_t syscallCreators = 0;
    uint64_t condBranches = 0;
    uint64_t maxPlacedLatency = 0;
    for (const TraceRecord &rec : trace.records()) {
        if (rec.createsValue()) {
            ++creators;
            if (rec.isSysCall())
                ++syscallCreators;
            uint32_t lat = isa::opLatency(rec.cls);
            if (lat > maxPlacedLatency)
                maxPlacedLatency = lat;
        }
        if (rec.isCondBranch())
            ++condBranches;
    }

    const std::vector<ConfigCell> matrix = buildMatrix(opt_);
    std::vector<AnalysisResult> solo;
    solo.reserve(matrix.size());
    for (const ConfigCell &cell : matrix)
        solo.push_back(core::Paragraph(cell.cfg).analyze(trace));

    std::string diff;

    // --- fused-solo-identity ---------------------------------------------
    {
        std::vector<AnalysisConfig> configs;
        for (const ConfigCell &cell : matrix)
            configs.push_back(cell.cfg);
        trace::BufferSource src(trace);
        std::vector<AnalysisResult> fused = core::analyzeMany(src, configs);
        for (size_t i = 0; i < matrix.size(); ++i) {
            if (!detail::resultsEqual(solo[i], fused[i], &diff))
                fail("fused-solo-identity",
                     strFormat("config %s: %s", matrix[i].name,
                               diff.c_str()));
        }
    }

    // --- stream-bulk-identity --------------------------------------------
    {
        trace::BufferSource src(trace);
        AnalysisResult streamed =
            core::Paragraph(matrix[kBase].cfg).analyze(src);
        if (!detail::resultsEqual(solo[kBase], streamed, &diff))
            fail("stream-bulk-identity", diff);
    }

    // --- determinism ------------------------------------------------------
    {
        AnalysisResult again =
            core::Paragraph(matrix[kBase].cfg).analyze(trace);
        if (!detail::resultsEqual(solo[kBase], again, &diff))
            fail("determinism", diff);
    }

    // --- baseline-agreement (configs inside the baseline's scope only:
    //     no window, no FU limit, perfect predictor) ------------------------
    for (size_t i : {size_t{kBase}, size_t{kRenameNone},
                     size_t{kSyscallsIgnore}}) {
        core::CriticalPathAnalyzer baseline(matrix[i].cfg);
        trace::BufferSource src(trace);
        core::BaselineResult b = baseline.analyze(src);
        if (b.instructions != solo[i].instructions ||
            b.placedOps != solo[i].placedOps ||
            b.criticalPathLength != solo[i].criticalPathLength ||
            b.availableParallelism != solo[i].availableParallelism)
            fail("baseline-agreement",
                 strFormat("config %s: baseline cp=%llu ops=%llu vs "
                           "engine cp=%llu ops=%llu",
                           matrix[i].name, ull(b.criticalPathLength),
                           ull(b.placedOps),
                           ull(solo[i].criticalPathLength),
                           ull(solo[i].placedOps)));
    }

    // --- window-monotonicity ---------------------------------------------
    if (solo[kWindowSmall].criticalPathLength <
            solo[kWindowLarge].criticalPathLength ||
        solo[kWindowLarge].criticalPathLength <
            solo[kBase].criticalPathLength)
        fail("window-monotonicity",
             strFormat("cp(W=%llu)=%llu cp(W=%llu)=%llu cp(inf)=%llu",
                       ull(opt_.windowSmall),
                       ull(solo[kWindowSmall].criticalPathLength),
                       ull(opt_.windowLarge),
                       ull(solo[kWindowLarge].criticalPathLength),
                       ull(solo[kBase].criticalPathLength)));

    // --- window-firewall-bound -------------------------------------------
    for (auto [idx, window] :
         {std::pair<size_t, uint64_t>{kWindowSmall, opt_.windowSmall},
          std::pair<size_t, uint64_t>{kWindowLarge, opt_.windowLarge}}) {
        const AnalysisResult &res = solo[idx];
        if (res.placedOps > res.criticalPathLength * window)
            fail("window-firewall-bound",
                 strFormat("W=%llu: placedOps %llu > cp %llu * W",
                           ull(window), ull(res.placedOps),
                           ull(res.criticalPathLength)));
        // Folded bins aggregate bucketWidth levels, each individually
        // capped at W.
        uint64_t binCap = res.profile.bucketWidth() * window;
        for (size_t bin = 0; bin < res.profile.numBins(); ++bin) {
            if (res.profile.binCount(bin) > binCap) {
                fail("window-firewall-bound",
                     strFormat("W=%llu: profile bin %zu holds %llu ops "
                               "(cap %llu)",
                               ull(window), bin,
                               ull(res.profile.binCount(bin)), ull(binCap)));
                break;
            }
        }
    }

    // --- rename-monotonicity ---------------------------------------------
    if (solo[kRenameNone].criticalPathLength <
            solo[kRenameRegs].criticalPathLength ||
        solo[kRenameRegs].criticalPathLength <
            solo[kBase].criticalPathLength)
        fail("rename-monotonicity",
             strFormat("cp(none)=%llu cp(regs)=%llu cp(all)=%llu",
                       ull(solo[kRenameNone].criticalPathLength),
                       ull(solo[kRenameRegs].criticalPathLength),
                       ull(solo[kBase].criticalPathLength)));

    // --- rename-removes-storage-deps -------------------------------------
    if (solo[kBase].storageDelayedOps != 0)
        fail("rename-removes-storage-deps",
             strFormat("all renaming on, yet storageDelayedOps=%llu",
                       ull(solo[kBase].storageDelayedOps)));

    // --- syscall-monotonicity --------------------------------------------
    if (solo[kBase].criticalPathLength <
        solo[kSyscallsIgnore].criticalPathLength)
        fail("syscall-monotonicity",
             strFormat("cp(stall)=%llu < cp(ignore)=%llu",
                       ull(solo[kBase].criticalPathLength),
                       ull(solo[kSyscallsIgnore].criticalPathLength)));
    if (solo[kBase].placedOps !=
        solo[kSyscallsIgnore].placedOps + syscallCreators)
        fail("syscall-monotonicity",
             strFormat("placedOps(stall)=%llu != placedOps(ignore)=%llu + "
                       "value-creating syscalls=%llu",
                       ull(solo[kBase].placedOps),
                       ull(solo[kSyscallsIgnore].placedOps),
                       ull(syscallCreators)));

    // --- fu-monotonicity --------------------------------------------------
    if (solo[kFuLimited].criticalPathLength < solo[kBase].criticalPathLength)
        fail("fu-monotonicity",
             strFormat("cp(fu=%u)=%llu < cp(unlimited)=%llu", opt_.fuLimit,
                       ull(solo[kFuLimited].criticalPathLength),
                       ull(solo[kBase].criticalPathLength)));
    if (solo[kBase].fuDelayedOps != 0)
        fail("fu-monotonicity",
             strFormat("unlimited FUs, yet fuDelayedOps=%llu",
                       ull(solo[kBase].fuDelayedOps)));

    // --- placed-ops-conservation -----------------------------------------
    for (size_t i = 0; i < matrix.size(); ++i) {
        if (i == kSyscallsIgnore)
            continue; // the one axis that legitimately removes ops
        if (solo[i].placedOps != creators ||
            solo[i].instructions != trace.size())
            fail("placed-ops-conservation",
                 strFormat("config %s: placedOps=%llu (trace creators "
                           "%llu), instructions=%llu (trace %zu)",
                           matrix[i].name, ull(solo[i].placedOps),
                           ull(creators), ull(solo[i].instructions),
                           trace.size()));
    }

    // --- profile-conservation --------------------------------------------
    for (size_t i = 0; i < matrix.size(); ++i) {
        const AnalysisResult &res = solo[i];
        if (res.profile.totalOps() != res.placedOps) {
            fail("profile-conservation",
                 strFormat("config %s: profile totalOps=%llu != "
                           "placedOps=%llu",
                           matrix[i].name, ull(res.profile.totalOps()),
                           ull(res.placedOps)));
            continue;
        }
        if (res.placedOps > 0 &&
            res.profile.maxLevel() + 1 != res.criticalPathLength)
            fail("profile-conservation",
                 strFormat("config %s: profile maxLevel=%llu + 1 != "
                           "cp=%llu",
                           matrix[i].name, ull(res.profile.maxLevel()),
                           ull(res.criticalPathLength)));
        // Every placed operation defines a value that retires exactly once
        // into both distributions (pre-existing values are excluded from
        // the statistics by design).
        uint64_t values = res.placedOps;
        if (res.lifetimes.totalCount() != values ||
            res.sharing.totalCount() != values)
            fail("profile-conservation",
                 strFormat("config %s: lifetimes=%llu sharing=%llu != "
                           "values created=%llu",
                           matrix[i].name, ull(res.lifetimes.totalCount()),
                           ull(res.sharing.totalCount()), ull(values)));
    }

    // --- predictor-bound --------------------------------------------------
    for (size_t i = 0; i < matrix.size(); ++i) {
        if (solo[i].condBranches != condBranches ||
            solo[i].branchMispredictions > solo[i].condBranches) {
            fail("predictor-bound",
                 strFormat("config %s: condBranches=%llu (trace %llu), "
                           "mispredictions=%llu",
                           matrix[i].name, ull(solo[i].condBranches),
                           ull(condBranches),
                           ull(solo[i].branchMispredictions)));
            break;
        }
    }
    if (solo[kBase].branchMispredictions != 0)
        fail("predictor-bound",
             strFormat("perfect predictor missed %llu branches",
                       ull(solo[kBase].branchMispredictions)));
    if (solo[kAlwaysWrong].branchMispredictions != condBranches)
        fail("predictor-bound",
             strFormat("always-wrong predictor missed %llu of %llu "
                       "branches",
                       ull(solo[kAlwaysWrong].branchMispredictions),
                       ull(condBranches)));
    if (solo[kAlwaysWrong].criticalPathLength <
        solo[kBase].criticalPathLength)
        fail("predictor-bound",
             strFormat("cp(always-wrong)=%llu < cp(perfect)=%llu",
                       ull(solo[kAlwaysWrong].criticalPathLength),
                       ull(solo[kBase].criticalPathLength)));
    // The explorer's pruner orders modeled predictors between the two
    // extremes (its mispredict set is a subset of always-wrong's and a
    // superset of perfect's, and firewalls are antitone in that set) — a
    // relation the fixed matrix alone never exercised. Check it with one
    // extra solo run so the pruning contract rests on a tested theorem.
    {
        AnalysisConfig bm = matrix[kBase].cfg;
        bm.branchPredictor = core::PredictorKind::Bimodal;
        AnalysisResult bimodal = core::Paragraph(bm).analyze(trace);
        if (bimodal.criticalPathLength < solo[kBase].criticalPathLength ||
            solo[kAlwaysWrong].criticalPathLength <
                bimodal.criticalPathLength)
            fail("predictor-bound",
                 strFormat("predictor chain broken: cp(perfect)=%llu "
                           "cp(bimodal)=%llu cp(always-wrong)=%llu",
                           ull(solo[kBase].criticalPathLength),
                           ull(bimodal.criticalPathLength),
                           ull(solo[kAlwaysWrong].criticalPathLength)));
        if (bimodal.placedOps != solo[kBase].placedOps ||
            bimodal.branchMispredictions > condBranches)
            fail("predictor-bound",
                 strFormat("bimodal: placedOps=%llu (perfect %llu), "
                           "mispredictions=%llu of %llu branches",
                           ull(bimodal.placedOps),
                           ull(solo[kBase].placedOps),
                           ull(bimodal.branchMispredictions),
                           ull(condBranches)));
    }

    // --- critical-path-lower-bound ---------------------------------------
    for (size_t i = 0; i < matrix.size(); ++i) {
        const AnalysisResult &res = solo[i];
        if (i != kSyscallsIgnore && res.criticalPathLength < maxPlacedLatency)
            fail("critical-path-lower-bound",
                 strFormat("config %s: cp=%llu < deepest placed "
                           "latency=%llu",
                           matrix[i].name, ull(res.criticalPathLength),
                           ull(maxPlacedLatency)));
        if (res.criticalPathLength > 0) {
            double expected = static_cast<double>(res.placedOps) /
                              static_cast<double>(res.criticalPathLength);
            if (res.availableParallelism != expected)
                fail("critical-path-lower-bound",
                     strFormat("config %s: availableParallelism=%.17g != "
                               "placedOps/cp=%.17g",
                               matrix[i].name, res.availableParallelism,
                               expected));
        }
        if (res.liveWellPeak < res.liveWellFinal)
            fail("critical-path-lower-bound",
                 strFormat("config %s: liveWellPeak=%llu < "
                           "liveWellFinal=%llu",
                           matrix[i].name, ull(res.liveWellPeak),
                           ull(res.liveWellFinal)));
    }

    // --- shard-stitch-identity --------------------------------------------
    // Firewall-point sharding (core/shard.hpp) through the fuzzer's traces:
    // whatever syscall pattern the generator or a mutation produced, the
    // stitched segment analysis must equal the solo pass bit-for-bit. A
    // trace with no interior syscall degenerates to one segment, which
    // still exercises the segment-mode engine (beginSegment + stitch).
    if (trace.size() > 0) {
        const TraceRecord *records = trace.records().data();
        size_t n = trace.size();
        std::vector<size_t> cuts = core::planShardCuts(records, n, 4);
        for (size_t i :
             {size_t{kBase}, size_t{kWindowSmall}, size_t{kRenameNone},
              size_t{kFuLimited}}) {
            if (!core::shardableConfig(matrix[i].cfg))
                continue;
            std::vector<size_t> bounds;
            bounds.push_back(0);
            bounds.insert(bounds.end(), cuts.begin(), cuts.end());
            bounds.push_back(n);
            std::vector<core::SegmentRun> segments(bounds.size() - 1);
            for (size_t k = 0; k + 1 < bounds.size(); ++k)
                core::runSegment(matrix[i].cfg, records + bounds[k],
                                 bounds[k + 1] - bounds[k], segments[k]);
            AnalysisResult stitched =
                core::stitchSegments(matrix[i].cfg, segments);
            if (!detail::resultsEqual(solo[i], stitched, &diff))
                fail("shard-stitch-identity",
                     strFormat("config %s (%zu segments): %s",
                               matrix[i].name, segments.size(),
                               diff.c_str()));
        }
    }

    // --- split-and-patch-identity -----------------------------------------
    // Arbitrary-boundary sharding (core/shard.hpp patchSegments) across the
    // FULL config matrix — modeled predictors, ignored syscalls, finite
    // windows, FU limits: whatever cuts the planner picked (stall points,
    // mispredict points, or plain tiles), the validate-or-replay patch must
    // equal the solo pass bit-for-bit.
    if (trace.size() > 0) {
        const TraceRecord *records = trace.records().data();
        size_t n = trace.size();
        for (size_t i = 0; i < matrix.size(); ++i) {
            const AnalysisConfig &cfg = matrix[i].cfg;
            core::PatchPlan plan = core::planPatchPlan(cfg, records, n, 4);
            const bool modeled =
                cfg.branchPredictor != core::PredictorKind::Perfect;
            std::vector<size_t> bounds;
            bounds.push_back(0);
            bounds.insert(bounds.end(), plan.cuts.begin(), plan.cuts.end());
            bounds.push_back(n);
            std::vector<core::SegmentRun> segments(bounds.size() - 1);
            for (size_t k = 0; k + 1 < bounds.size(); ++k) {
                core::runSegment(cfg, records + bounds[k],
                                 bounds[k + 1] - bounds[k], segments[k],
                                 modeled ? &plan.bits : nullptr,
                                 modeled ? plan.branchBase[k] : 0);
            }
            core::PatchOutcome outcome;
            AnalysisResult patched = core::patchSegments(
                cfg, segments,
                [&](core::Paragraph &engine, size_t k) {
                    engine.processAll(records + bounds[k],
                                      bounds[k + 1] - bounds[k]);
                },
                modeled ? &plan.bits : nullptr,
                modeled ? &plan.branchBase : nullptr, &outcome);
            if (!core::shardedResultsEqual(solo[i], patched, &diff))
                fail("split-and-patch-identity",
                     strFormat("config %s (%zu segments, %u spliced, "
                               "%u replayed): %s",
                               matrix[i].name, segments.size(),
                               outcome.spliced, outcome.replayed,
                               diff.c_str()));
        }
    }

    // --- explore-soundness -------------------------------------------------
    // The adaptive explorer's dominance pruning is built ON TOP of the
    // monotonicity theorems above; run it in anger against this trace. A
    // grid over the matrix's axis values is solo-analyzed, the explorer is
    // driven by a runner that serves cells from that grid (zero extra
    // analyses), and then: every dominance certificate must re-verify
    // against the measured cells, the explorer's Pareto frontier must
    // equal the grid frontier, and no pruned cell may beat its certified
    // parallelism bound.
    {
        engine::SweepArgs sweepArgs;
        sweepArgs.inputs = {"fuzz"};
        sweepArgs.windows = {opt_.windowSmall, opt_.windowLarge, 0};
        sweepArgs.renames = {"none", "all"};
        sweepArgs.predictors = {"wrong", "perfect"};
        sweepArgs.fus = {opt_.fuLimit, 0};
        engine::SweepAxes axes = engine::defaultedSweepAxes(sweepArgs);
        std::vector<AnalysisConfig> configs;
        std::vector<std::string> labels;
        std::string err;
        if (!engine::buildSweepConfigAxis(sweepArgs, configs, labels, err)) {
            fail("explore-soundness", "grid build failed: " + err);
        } else {
            std::vector<engine::SweepCell> grid(configs.size());
            std::vector<int> costs;
            std::vector<double> pars;
            for (size_t j = 0; j < configs.size(); ++j) {
                engine::SweepCell &cell = grid[j];
                cell.job.input = "fuzz";
                cell.job.config = configs[j];
                cell.job.configLabel = labels[j];
                cell.job.configIndex = j;
                cell.result = core::Paragraph(configs[j]).analyze(trace);
                costs.push_back(engine::exploreCost(configs[j]));
                pars.push_back(cell.result.availableParallelism);
            }
            engine::Explorer explorer;
            engine::ExploreResult explored = explorer.explore(
                {"fuzz"}, axes, configs, labels,
                [&grid](std::vector<engine::SweepJob> jobs) {
                    std::vector<engine::SweepCell> out;
                    out.reserve(jobs.size());
                    for (const engine::SweepJob &job : jobs)
                        out.push_back(grid[job.configIndex]);
                    return out;
                });
            std::string exploreDiag;
            if (!engine::verifyExploreCertificates(explored, exploreDiag))
                fail("explore-soundness", exploreDiag);
            std::vector<size_t> gridFrontier = engine::paretoFrontier(
                costs, pars, std::vector<bool>(configs.size(), true));
            if (explored.traces.size() != 1 ||
                explored.traces[0].frontier != gridFrontier)
                fail("explore-soundness",
                     strFormat("explorer frontier has %zu cells, grid "
                               "frontier has %zu",
                               explored.traces.empty()
                                   ? size_t{0}
                                   : explored.traces[0].frontier.size(),
                               gridFrontier.size()));
            else
                for (const engine::ExplorePruned &p :
                     explored.traces[0].pruned)
                    if (pars[p.configIndex] >
                        p.certificate.boundParallelism)
                        fail("explore-soundness",
                             strFormat("pruned config %zu has parallelism "
                                       "%.17g above its certified bound "
                                       "%.17g",
                                       p.configIndex, pars[p.configIndex],
                                       p.certificate.boundParallelism));
        }
    }

    // --- file-round-trip (sampled by the harness: file I/O per check) -----
    if (opt_.checkRoundTrip) {
        const std::string raw = roundTripScratchPath(opt_, ".ptrc");
        const std::string packed = roundTripScratchPath(opt_, ".ptrz");
        {
            trace::TraceFileWriter writer(raw);
            for (const TraceRecord &rec : trace.records())
                writer.write(rec);
            writer.close();
            trace::CompressedTraceWriter zwriter(packed);
            for (const TraceRecord &rec : trace.records())
                zwriter.write(rec);
            zwriter.close();
        }
        for (const std::string &path : {raw, packed}) {
            auto reader = trace::openTraceFile(path);
            TraceBuffer back;
            back.capture(*reader);
            if (back.size() != trace.size()) {
                fail("file-round-trip",
                     strFormat("%s: %zu records back, %zu written",
                               path.c_str(), back.size(), trace.size()));
            } else {
                for (size_t i = 0; i < trace.size(); ++i) {
                    if (!(back[i] == trace[i])) {
                        fail("file-round-trip",
                             strFormat("%s: record %zu differs after "
                                       "round-trip",
                                       path.c_str(), i));
                        break;
                    }
                }
            }
        }
        std::remove(raw.c_str());
        std::remove(packed.c_str());
    }

    rep.propertiesChecked =
        propertyCatalogue().size() - (opt_.checkRoundTrip ? 0 : 1);

    // --- self-test hook ----------------------------------------------------
    if (opt_.forceFailure)
        fail("self-test",
             "forced failure requested (OracleOptions::forceFailure) — "
             "exercises the repro/replay/minimize machinery");

    return rep;
}

} // namespace fuzz
} // namespace paragraph
