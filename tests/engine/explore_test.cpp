// Ground-truth soundness suite for the adaptive explorer (engine::Explorer):
//
//  - full grid vs --explore over the same traces: the explorer's frontier
//    must equal the frontier computed from the full grid, every executed
//    cell must render byte-identically to its grid twin, and no pruned
//    cell may be non-dominated in the grid — across simulated, streamed
//    `.ptrz` and mapped `.ptrc` inputs;
//  - mutation audit of the oracle-to-pruner contract: each monotonicity
//    comparator is flipped behind the ExploreModel seam and the suite must
//    catch the resulting unsound prune via certificate re-verification.
#include <gtest/gtest.h>

#include <filesystem>

#include "engine/explorer.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_args.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "trace/buffer.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"

#include "serial_reference.hpp"

using namespace paragraph;
using namespace paragraph::engine;

namespace {

TraceRepository::Options
smallScale()
{
    TraceRepository::Options opt;
    opt.scale = workloads::Scale::Small;
    return opt;
}

/** Expand CLI-style axis lists into the grid the sweep would run. */
struct Grid
{
    SweepAxes axes;
    std::vector<core::AnalysisConfig> configs;
    std::vector<std::string> labels;
};

Grid
makeGrid(std::vector<uint64_t> windows, std::vector<std::string> renames,
         std::vector<std::string> syscalls = {},
         std::vector<std::string> predictors = {},
         std::vector<uint32_t> fus = {})
{
    SweepArgs args;
    args.inputs = {"unused"};
    args.windows = std::move(windows);
    args.renames = std::move(renames);
    args.syscalls = std::move(syscalls);
    args.predictors = std::move(predictors);
    args.fus = std::move(fus);
    Grid grid;
    grid.axes = defaultedSweepAxes(args);
    std::string error;
    EXPECT_TRUE(buildSweepConfigAxis(args, grid.configs, grid.labels, error))
        << error;
    return grid;
}

Explorer::Runner
engineRunner(TraceRepository &repo, const SweepEngine &sweeper)
{
    return [&repo, &sweeper](std::vector<SweepJob> jobs) {
        return sweeper.runJobs(repo, std::move(jobs)).cells;
    };
}

/** Full grid + explore over the same repo/engine; assert the grid is the
 *  serial analysis of each input's capture, and the explorer is sound
 *  against the grid and actually pruned something. Returns the
 *  exploration. */
ExploreResult
expectSoundAgainstGrid(TraceRepository &repo, const SweepEngine &sweeper,
                       const std::vector<std::string> &inputs,
                       const Grid &grid, bool expectPruning = true)
{
    SweepResult full = sweeper.run(repo, inputs, grid.configs, grid.labels);
    SweepJsonOptions jsonOpt;
    jsonOpt.timing = false;
    EXPECT_EQ(sweepToJson(full, jsonOpt),
              testhelpers::serialSweepDoc(repo, inputs, grid.configs,
                                          grid.labels));

    Explorer explorer;
    ExploreResult explored =
        explorer.explore(inputs, grid.axes, grid.configs, grid.labels,
                         engineRunner(repo, sweeper));

    EXPECT_EQ(explored.cellsTotal, inputs.size() * grid.configs.size());
    EXPECT_EQ(explored.cellsExecuted + explored.cellsPruned,
              explored.cellsTotal);
    EXPECT_TRUE(explored.exact);
    for (const ExploreTrace &trace : explored.traces) {
        EXPECT_EQ(trace.cells.size() + trace.pruned.size(),
                  grid.configs.size());
        EXPECT_FALSE(trace.frontier.empty());
    }
    if (expectPruning) {
        EXPECT_LT(explored.cellsExecuted, explored.cellsTotal);
    }

    std::string diag;
    EXPECT_TRUE(verifyExploreAgainstGrid(explored, full, jsonOpt, diag))
        << diag;
    return explored;
}

/**
 * A trace where the syscall axis visibly violates the "stall is bounded by
 * ignore" mirror relation: value-creating syscalls are placed (and
 * firewalled) under --syscalls=stall but vanish under ignore, so
 * par(stall) ~ 1 while par(ignore) = 0. The independent filler ops keep
 * the rename axis inert (nothing to rename), pinning the strata flat.
 */
std::shared_ptr<const trace::TraceBuffer>
syscallHeavyTrace()
{
    auto buffer = std::make_shared<trace::TraceBuffer>();
    for (int i = 0; i < 40; ++i) {
        trace::TraceRecord rec;
        rec.cls = isa::OpClass::IntAlu;
        rec.setSysCall(true);
        rec.setCreatesValue(true);
        rec.setDest(trace::Operand::intReg(static_cast<uint8_t>(i % 8)));
        rec.pc = static_cast<uint64_t>(i);
        buffer->push(rec);
    }
    return buffer;
}

/** Write @p buffer as a compressed trace file and return its path. */
std::string
writeTraceFile(std::shared_ptr<const trace::TraceBuffer> buffer,
               const char *filename)
{
    namespace fs = std::filesystem;
    std::string path = (fs::temp_directory_path() / filename).string();
    trace::CompressedTraceWriter writer(path);
    trace::BufferSource src(*buffer, "synthetic");
    writer.writeAll(src);
    writer.close();
    return path;
}

/**
 * Run the explorer with one comparator flipped and assert the soundness
 * machinery convicts it: a prune that used the flipped axis must exist
 * (the mutation is live, not silent) and certificate re-verification
 * against the sound model must fail.
 */
void
expectFlipCaught(TraceRepository &repo, const SweepEngine &sweeper,
                 const std::vector<std::string> &inputs, const Grid &grid,
                 const ExploreModel &flipped, const char *flippedAxis)
{
    Explorer::Options opt;
    opt.model = flipped;
    Explorer explorer(opt);
    ExploreResult explored =
        explorer.explore(inputs, grid.axes, grid.configs, grid.labels,
                         engineRunner(repo, sweeper));

    bool usedFlippedAxis = false;
    for (const ExploreTrace &trace : explored.traces)
        for (const ExplorePruned &p : trace.pruned)
            for (const std::string &axis : p.certificate.axes)
                usedFlippedAxis = usedFlippedAxis || axis == flippedAxis;
    ASSERT_TRUE(usedFlippedAxis)
        << "mutation is silent: no prune used the flipped '" << flippedAxis
        << "' relation, so the audit proves nothing";

    std::string diag;
    EXPECT_FALSE(verifyExploreCertificates(explored, diag))
        << "certificate re-verification accepted a prune built on the "
           "flipped '"
        << flippedAxis << "' relation";

    SweepResult full = sweeper.run(repo, inputs, grid.configs, grid.labels);
    SweepJsonOptions jsonOpt;
    jsonOpt.timing = false;
    EXPECT_FALSE(verifyExploreAgainstGrid(explored, full, jsonOpt, diag))
        << "grid verification accepted an explore run with an unsound '"
        << flippedAxis << "' prune";
}

} // namespace

TEST(ExploreCost, OrdersResourceAxesSensibly)
{
    Grid grid = makeGrid({16, 64, 0}, {"none", "data"}, {}, {}, {2, 0});
    // Cost is strictly increasing along each axis move the pruner calls
    // parallelism-nondecreasing, except syscalls (free by design).
    for (size_t j = 0; j < grid.configs.size(); ++j) {
        core::AnalysisConfig larger = grid.configs[j];
        larger.windowSize = larger.windowSize == 0 ? 0 : larger.windowSize * 4;
        EXPECT_GE(exploreCost(larger), exploreCost(grid.configs[j]));
        core::AnalysisConfig stalled = grid.configs[j];
        stalled.sysCallsStall = !stalled.sysCallsStall;
        EXPECT_EQ(exploreCost(stalled), exploreCost(grid.configs[j]));
    }
}

TEST(ParetoFrontier, KeepsNonDominatedAndTies)
{
    // Points: (cost, par). 0:(1,5) 1:(2,7) 2:(3,7) 3:(2,5) 4:(4,9) and a
    // failed slot that must be ignored.
    std::vector<int> costs = {1, 2, 3, 2, 4, 0};
    std::vector<double> pars = {5.0, 7.0, 7.0, 5.0, 9.0, 99.0};
    std::vector<bool> ok = {true, true, true, true, true, false};
    std::vector<size_t> frontier = paretoFrontier(costs, pars, ok);
    // 2 is dominated by 1 (cheaper, same par); 3 by 0 (cheaper, same par);
    // 5 is not ok. 0, 1, 4 survive.
    EXPECT_EQ(frontier, (std::vector<size_t>{0, 1, 4}));

    // Exact (cost, par) duplicates are both kept: neither strictly
    // dominates the other, and the explorer never prunes such ties.
    costs = {2, 2};
    pars = {3.0, 3.0};
    ok = {true, true};
    EXPECT_EQ(paretoFrontier(costs, pars, ok),
              (std::vector<size_t>{0, 1}));
}

TEST(ExploreSoundness, CapturedRepository)
{
    // Simulated inputs, re-simulated by every pass: the grid must still be
    // the serial analysis of their captures.
    TraceRepository repo(smallScale());
    SweepEngine::Options engineOpt;
    engineOpt.jobs = 2;
    SweepEngine sweeper(engineOpt);
    Grid grid = makeGrid({4, 16, 64, 256, 0}, {"none", "data"}, {}, {},
                         {2, 0});
    expectSoundAgainstGrid(repo, sweeper, {"xlisp", "matrix300"}, grid);
}

TEST(ExploreSoundness, StreamedRepository)
{
    // The input is a trace file re-read per pass. The explorer must stay
    // sound and byte-identical.
    TraceRepository captureRepo(smallScale());
    std::string path = writeTraceFile(captureRepo.get("xlisp"),
                                      "explore_stream.ptrz");

    TraceRepository repo(smallScale());
    SweepEngine::Options engineOpt;
    engineOpt.jobs = 2;
    SweepEngine sweeper(engineOpt);
    Grid grid = makeGrid({4, 16, 64, 0}, {"none", "data"}, {}, {}, {2, 0});
    expectSoundAgainstGrid(repo, sweeper, {path}, grid);
    std::filesystem::remove(path);
}

TEST(ExploreSoundness, ShardedEngine)
{
    // A `.ptrc`, read in place through its pool's mapped blocks.
    namespace fs = std::filesystem;
    std::string path =
        (fs::temp_directory_path() / "explore_sharded.ptrc").string();
    {
        TraceRepository captureRepo(smallScale());
        trace::BufferSource src(*captureRepo.get("xlisp"), "xlisp");
        trace::TraceFileWriter writer(path);
        writer.writeAll(src);
        writer.close();
    }
    TraceRepository repo(smallScale());
    SweepEngine::Options engineOpt;
    engineOpt.jobs = 2;
    SweepEngine sweeper(engineOpt);
    Grid grid = makeGrid({4, 16, 64, 0}, {"none", "data"}, {}, {}, {2, 0});
    expectSoundAgainstGrid(repo, sweeper, {path}, grid);
    fs::remove(path);
}

TEST(ExploreSoundness, PlateauGridExecutesAtMostHalf)
{
    // A plateau-heavy window axis over a 20000-record trace: every window
    // at or past the cap equals the unlimited one, the regime knee
    // bisection and dominance pruning are built for. The explorer must
    // reproduce the grid's frontier while executing at most half of it.
    TraceRepository::Options opt = smallScale();
    opt.maxRecords = 20000;
    TraceRepository repo(opt);
    SweepEngine::Options engineOpt;
    engineOpt.jobs = 2;
    SweepEngine sweeper(engineOpt);
    Grid grid = makeGrid({1, 16, 256, 1024, 4096, 16384, 65536, 262144,
                          1u << 20, 1u << 21, 1u << 22, 1u << 23, 1u << 24,
                          1u << 25, 1u << 26, 0},
                         {"none", "data"});
    ExploreResult explored =
        expectSoundAgainstGrid(repo, sweeper, {"xlisp"}, grid);
    EXPECT_EQ(explored.cellsTotal, 32u);
    EXPECT_LE(explored.cellsExecuted * 2, explored.cellsTotal);
}

TEST(ExploreSoundness, PredictorAndSyscallAxes)
{
    // Predictor chain (wrong < bimodal < perfect) and syscall strata in
    // one grid: verification must hold even where pruning cannot fire.
    TraceRepository repo(smallScale());
    SweepEngine::Options engineOpt;
    engineOpt.jobs = 2;
    SweepEngine sweeper(engineOpt);
    Grid grid = makeGrid({16, 0}, {"data"}, {"stall", "ignore"},
                         {"wrong", "bimodal", "perfect"}, {});
    expectSoundAgainstGrid(repo, sweeper, {"xlisp"}, grid,
                           /*expectPruning=*/false);
}

TEST(ExploreSoundness, KneeTolApproximateStaysCertified)
{
    TraceRepository repo(smallScale());
    SweepEngine::Options engineOpt;
    engineOpt.jobs = 2;
    SweepEngine sweeper(engineOpt);
    Grid grid = makeGrid({4, 8, 16, 32, 64, 128, 0}, {"data"}, {}, {},
                         {2, 0});

    Explorer::Options opt;
    opt.kneeTol = 0.25;
    Explorer explorer(opt);
    ExploreResult explored =
        explorer.explore({"xlisp"}, grid.axes, grid.configs, grid.labels,
                         engineRunner(repo, sweeper));

    // Approximate mode may measure fewer cells than exact mode, but every
    // certificate must still re-verify, and every pruned cell must still
    // be dominated in the grid within the tolerance.
    std::string diag;
    EXPECT_TRUE(verifyExploreCertificates(explored, diag)) << diag;
    SweepResult full =
        sweeper.run(repo, {"xlisp"}, grid.configs, grid.labels);
    SweepJsonOptions jsonOpt;
    jsonOpt.timing = false;
    EXPECT_TRUE(verifyExploreAgainstGrid(explored, full, jsonOpt, diag))
        << diag;
}

TEST(ExploreDeterminism, SeedControlsOrderButNotTheFrontier)
{
    TraceRepository repo(smallScale());
    SweepEngine::Options engineOpt;
    engineOpt.jobs = 2;
    SweepEngine sweeper(engineOpt);
    Grid grid = makeGrid({4, 16, 64, 0}, {"none", "data"}, {}, {}, {2, 0});

    SweepJsonOptions jsonOpt;
    jsonOpt.timing = false;

    Explorer defaultExplorer;
    ExploreResult a =
        defaultExplorer.explore({"xlisp"}, grid.axes, grid.configs,
                                grid.labels, engineRunner(repo, sweeper));
    ExploreResult b =
        defaultExplorer.explore({"xlisp"}, grid.axes, grid.configs,
                                grid.labels, engineRunner(repo, sweeper));
    // Same seed: the whole document (cells, frontier, certificates) is
    // reproduced byte for byte.
    EXPECT_EQ(exploreToJson(a, jsonOpt), exploreToJson(b, jsonOpt));

    Explorer::Options other;
    other.seed = 12345;
    Explorer otherExplorer(other);
    ExploreResult c =
        otherExplorer.explore({"xlisp"}, grid.axes, grid.configs,
                              grid.labels, engineRunner(repo, sweeper));
    // Different seed: measurement order may differ, the frontier may not.
    ASSERT_EQ(a.traces.size(), c.traces.size());
    for (size_t t = 0; t < a.traces.size(); ++t)
        EXPECT_EQ(a.traces[t].frontier, c.traces[t].frontier);
}

// ---------------------------------------------------------------------------
// Mutation audit: flip each monotonicity comparator behind the ExploreModel
// seam; the soundness suite must convict every one of them.

TEST(ExploreMutationAudit, FlippedWindowComparatorIsCaught)
{
    TraceRepository repo(smallScale());
    SweepEngine sweeper(SweepEngine::Options{});
    Grid grid = makeGrid({16, 64, 0}, {"data"});
    ExploreModel flipped;
    flipped.windowLarger = false; // claim smaller windows bound par
    expectFlipCaught(repo, sweeper, {"xlisp"}, grid, flipped, "window");
}

TEST(ExploreMutationAudit, FlippedRenameComparatorIsCaught)
{
    TraceRepository repo(smallScale());
    SweepEngine sweeper(SweepEngine::Options{});
    Grid grid = makeGrid({0}, {"none", "data"});
    ExploreModel flipped;
    flipped.renameMore = false; // claim less renaming bounds par
    expectFlipCaught(repo, sweeper, {"xlisp"}, grid, flipped, "rename");
}

TEST(ExploreMutationAudit, FlippedFuComparatorIsCaught)
{
    TraceRepository repo(smallScale());
    SweepEngine sweeper(SweepEngine::Options{});
    Grid grid = makeGrid({0}, {"data"}, {}, {}, {2, 0});
    ExploreModel flipped;
    flipped.fuUnlimited = false; // claim finite FU limits bound unlimited
    expectFlipCaught(repo, sweeper, {"xlisp"}, grid, flipped, "fus");
}

TEST(ExploreMutationAudit, FlippedPredictorComparatorIsCaught)
{
    TraceRepository repo(smallScale());
    SweepEngine sweeper(SweepEngine::Options{});
    Grid grid = makeGrid({0}, {"data"}, {}, {"wrong", "perfect"}, {});
    ExploreModel flipped;
    flipped.predictorBetter = false; // claim worse prediction bounds par
    expectFlipCaught(repo, sweeper, {"xlisp"}, grid, flipped, "predictor");
}

TEST(ExploreMutationAudit, FlippedSyscallStratumIsCaught)
{
    // The syscall axis is the subtle one: both directions have real
    // counterexamples, which is exactly why the sound model refuses to
    // bound across it. A trace of value-creating syscalls makes the
    // "stall is bounded by ignore" mirror maximally wrong (par(stall) ~ 1,
    // par(ignore) = 0) and gives the flipped pruner a cheap dominator.
    std::string path =
        writeTraceFile(syscallHeavyTrace(), "explore_syscalls.ptrz");
    TraceRepository repo(smallScale());
    SweepEngine sweeper(SweepEngine::Options{});
    Grid grid = makeGrid({0}, {"none", "data"}, {"stall", "ignore"});
    ExploreModel flipped;
    flipped.syscallStratum = false; // claim par(stall) <= par(ignore)
    expectFlipCaught(repo, sweeper, {path}, grid, flipped, "syscalls");
    std::filesystem::remove(path);
}
