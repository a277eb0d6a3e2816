// Tests for the parallel sweep engine: shared trace capture
// (engine::TraceRepository), the threaded grid runner (engine::SweepEngine),
// and the stable JSON writer (engine::sweep_json).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "core/paragraph.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "support/panic.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"

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

/**
 * Assert two AnalysisResults are identical in every deterministic field,
 * including the full profile bins and distribution counts. Doubles are
 * compared exactly: identical analysis must produce bit-identical output.
 */
void
expectIdenticalResults(const core::AnalysisResult &a,
                       const core::AnalysisResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.placedOps, b.placedOps);
    EXPECT_EQ(a.sysCalls, b.sysCalls);
    EXPECT_EQ(a.firewalls, b.firewalls);
    EXPECT_EQ(a.preExistingValues, b.preExistingValues);
    EXPECT_EQ(a.storageDelayedOps, b.storageDelayedOps);
    EXPECT_EQ(a.fuDelayedOps, b.fuDelayedOps);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.branchMispredictions, b.branchMispredictions);
    EXPECT_EQ(a.criticalPathLength, b.criticalPathLength);
    EXPECT_EQ(a.availableParallelism, b.availableParallelism);
    EXPECT_EQ(a.liveWellPeak, b.liveWellPeak);
    EXPECT_EQ(a.liveWellFinal, b.liveWellFinal);

    ASSERT_EQ(a.profile.numBins(), b.profile.numBins());
    EXPECT_EQ(a.profile.bucketWidth(), b.profile.bucketWidth());
    EXPECT_EQ(a.profile.maxLevel(), b.profile.maxLevel());
    for (size_t i = 0; i < a.profile.numBins(); ++i)
        ASSERT_EQ(a.profile.binCount(i), b.profile.binCount(i)) << i;

    EXPECT_EQ(a.lifetimes.totalCount(), b.lifetimes.totalCount());
    EXPECT_EQ(a.lifetimes.maxSample(), b.lifetimes.maxSample());
    EXPECT_EQ(a.lifetimes.mean(), b.lifetimes.mean());
    EXPECT_EQ(a.sharing.totalCount(), b.sharing.totalCount());
    EXPECT_EQ(a.sharing.mean(), b.sharing.mean());
    EXPECT_EQ(a.storageProfile.intervals(), b.storageProfile.intervals());
    EXPECT_EQ(a.storageProfile.peakLive(), b.storageProfile.peakLive());
}

} // namespace

TEST(TraceRepository, CapturesOnceAndShares)
{
    TraceRepository repo(smallScale());
    auto first = repo.get("xlisp");
    auto second = repo.get("xlisp");
    EXPECT_EQ(first.get(), second.get()); // same capture, not a re-run
    EXPECT_EQ(repo.cachedInputs(), 1u);
    EXPECT_GT(first->size(), 0u);

    repo.release("xlisp");
    EXPECT_EQ(repo.cachedInputs(), 0u);
    // The released capture stays alive through our shared_ptr.
    EXPECT_GT(first->size(), 0u);
}

TEST(TraceRepository, SourcesReplayTheSharedCapture)
{
    TraceRepository repo(smallScale());
    auto buf = repo.get("matrix300");
    auto src = repo.makeSource("matrix300");

    trace::TraceRecord rec;
    size_t n = 0;
    while (src->next(rec))
        ++n;
    EXPECT_EQ(n, buf->size());

    src->reset();
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec, (*buf)[0]);
    EXPECT_EQ(src->name(), "matrix300");
}

TEST(TraceRepository, MaxRecordsCapsTheCapture)
{
    TraceRepository::Options opt = smallScale();
    opt.maxRecords = 100;
    TraceRepository repo(opt);
    EXPECT_EQ(repo.get("xlisp")->size(), 100u);
}

TEST(TraceRepository, OpensTraceFilesByExtension)
{
    namespace fs = std::filesystem;
    std::string path = (fs::temp_directory_path() / "repo_cap.ptrz").string();

    TraceRepository repo(smallScale());
    auto live = repo.get("xlisp");
    {
        trace::CompressedTraceWriter writer(path);
        trace::SharedBufferSource src(live, "xlisp");
        writer.writeAll(src);
        writer.close();
    }

    auto fromFile = repo.get(path);
    ASSERT_EQ(fromFile->size(), live->size());
    EXPECT_EQ(fromFile->records(), live->records());
    fs::remove(path);
}

TEST(TraceRepository, UnknownInputThrows)
{
    TraceRepository repo(smallScale());
    EXPECT_THROW(repo.get("no-such-workload"), FatalError);
}

TEST(TraceRepository, StreamingSourcesMatchTheCaptureWithoutCaching)
{
    // streamFiles serves trace files by re-opening them per source: the
    // records (and the maxRecords cap) must match a capture exactly, but
    // nothing is held in the cache.
    namespace fs = std::filesystem;
    std::string path =
        (fs::temp_directory_path() / "repo_stream.ptrz").string();

    TraceRepository capRepo(smallScale());
    auto live = capRepo.get("xlisp");
    {
        trace::CompressedTraceWriter writer(path);
        trace::SharedBufferSource src(live, "xlisp");
        writer.writeAll(src);
        writer.close();
    }

    TraceRepository::Options opt = smallScale();
    opt.maxRecords = 150;
    opt.streamFiles = true;
    TraceRepository streamRepo(opt);
    EXPECT_TRUE(streamRepo.streamingInput(path));
    EXPECT_FALSE(streamRepo.streamingInput("xlisp"));

    auto src = streamRepo.makeSource(path);
    trace::TraceRecord rec;
    size_t n = 0;
    while (src->next(rec))
        ++n;
    EXPECT_EQ(n, 150u); // capped exactly like a capture would be
    EXPECT_EQ(streamRepo.cachedInputs(), 0u);

    src->reset();
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec, (*live)[0]);
    fs::remove(path);
}

TEST(SweepEngine, StreamingSweepJsonMatchesCapturedSweep)
{
    // A streamed trace-file sweep — solo or fused — must serialize to the
    // same document as the captured sweep of the same file.
    namespace fs = std::filesystem;
    std::string path =
        (fs::temp_directory_path() / "sweep_stream.ptrz").string();
    {
        TraceRepository seed(smallScale());
        trace::SharedBufferSource src(seed.get("xlisp"), "xlisp");
        trace::CompressedTraceWriter writer(path);
        writer.writeAll(src);
        writer.close();
    }

    std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::windowed(16),
        core::AnalysisConfig::windowed(256),
        core::AnalysisConfig::noRenaming(),
        core::AnalysisConfig::dataflowConservative(),
    };
    SweepJsonOptions json;
    json.timing = false;

    TraceRepository::Options capOpt = smallScale();
    capOpt.maxRecords = 1500;
    TraceRepository capRepo(capOpt);
    SweepEngine::Options soloOpt;
    soloOpt.jobs = 2;
    std::string captured = sweepToJson(
        SweepEngine(soloOpt).run(capRepo, {path}, configs), json);

    for (unsigned group : {1u, 4u}) {
        TraceRepository::Options streamOpt = capOpt;
        streamOpt.streamFiles = true;
        TraceRepository streamRepo(streamOpt);
        SweepEngine::Options opt;
        opt.jobs = 2;
        opt.groupSize = group;
        std::string streamed = sweepToJson(
            SweepEngine(opt).run(streamRepo, {path}, configs), json);
        EXPECT_EQ(streamed, captured) << "group=" << group;
        EXPECT_EQ(streamRepo.cachedInputs(), 0u) << "group=" << group;
    }
    fs::remove(path);
}

TEST(SweepEngine, AutoGroupGivesStreamedPtrzOnePassPerWorker)
{
    // A streamed `.ptrz` decodes inline on each pass's own worker, so auto
    // grouping (--group=0) treats it like any other input: one pass per
    // worker's share of the batch, with the same document however many
    // passes decode it.
    namespace fs = std::filesystem;
    std::string path =
        (fs::temp_directory_path() / "sweep_autogroup.ptrz").string();
    {
        TraceRepository seed(smallScale());
        trace::SharedBufferSource src(seed.get("xlisp"), "xlisp");
        trace::CompressedTraceWriter writer(path);
        writer.writeAll(src);
        writer.close();
    }

    std::vector<core::AnalysisConfig> configs;
    for (uint64_t w : {16u, 32u, 64u, 128u, 256u, 512u, 1024u, 0u}) {
        configs.push_back(w ? core::AnalysisConfig::windowed(w)
                            : core::AnalysisConfig::dataflowConservative());
    }
    SweepJsonOptions json;
    json.timing = false;

    TraceRepository::Options capOpt = smallScale();
    capOpt.maxRecords = 1500;
    TraceRepository capRepo(capOpt);
    SweepEngine::Options soloOpt;
    soloOpt.jobs = 2;
    std::string captured = sweepToJson(
        SweepEngine(soloOpt).run(capRepo, {path}, configs), json);

    TraceRepository::Options streamOpt = capOpt;
    streamOpt.streamFiles = true;
    for (unsigned jobs : {8u, 4u}) {
        SCOPED_TRACE(jobs);
        TraceRepository streamRepo(streamOpt);
        SweepEngine::Options opt;
        opt.jobs = jobs;
        opt.groupSize = 0; // auto: ceil(8 / jobs) configs per pass
        SweepResult sweep = SweepEngine(opt).run(streamRepo, {path}, configs);
        EXPECT_EQ(sweep.fusedGroups, jobs);
        EXPECT_EQ(sweepToJson(sweep, json), captured);
    }
    fs::remove(path);
}

TEST(SweepEngine, AutoGroupKeepsWorkerSharesOnCapturedInputs)
{
    // Captured inputs share the repository cache: the auto target is one
    // pass per worker's share.
    std::vector<core::AnalysisConfig> configs;
    for (uint64_t w : {16u, 32u, 64u, 128u, 256u, 512u, 1024u, 0u}) {
        configs.push_back(w ? core::AnalysisConfig::windowed(w)
                            : core::AnalysisConfig::dataflowConservative());
    }
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 8;
    opt.groupSize = 0; // auto: ceil(8 / 8) = 1 config per pass
    SweepResult sweep = SweepEngine(opt).run(repo, {"xlisp"}, configs);
    EXPECT_EQ(sweep.fusedGroups, configs.size());
}

TEST(SweepEngine, EverySourceJobsAndGroupRenderOneDocument)
{
    // One 8-config grid over a `.ptrc` and a `.ptrz` of the same records,
    // each captured and streamed (the `.ptrc` in place from its mapping,
    // the `.ptrz` decoded inline by each pass), at 1 and 4 workers and
    // --group=1, 2, 0 (auto) and 8, renders its file's captured solo
    // document every time. The passes depend on the batch and the cap
    // only: --group=8 above a 4-worker share of 2 runs 4 passes of 2.
    namespace fs = std::filesystem;
    const std::string ptrc =
        (fs::temp_directory_path() / "sweep_every_source.ptrc").string();
    const std::string ptrz =
        (fs::temp_directory_path() / "sweep_every_source.ptrz").string();
    {
        TraceRepository seed(smallScale());
        trace::SharedBufferSource src(seed.get("xlisp"), "xlisp");
        trace::TraceFileWriter writer(ptrc);
        writer.writeAll(src);
        writer.close();
        trace::SharedBufferSource again(seed.get("xlisp"), "xlisp");
        trace::CompressedTraceWriter zwriter(ptrz);
        zwriter.writeAll(again);
        zwriter.close();
    }

    std::vector<core::AnalysisConfig> configs;
    for (uint64_t w : {16u, 64u, 256u, 0u}) {
        core::AnalysisConfig renamed = core::AnalysisConfig::windowed(w);
        core::AnalysisConfig plain = core::AnalysisConfig::noRenaming();
        plain.windowSize = w;
        configs.push_back(renamed);
        configs.push_back(plain);
    }
    SweepJsonOptions json;
    json.timing = false;
    TraceRepository::Options capOpt = smallScale();
    capOpt.maxRecords = 1500;

    const struct
    {
        unsigned jobs;
        unsigned group;
        size_t passes;
    } runs[] = {{1, 1, 8}, {1, 2, 4}, {1, 0, 1}, {1, 8, 1},
                {4, 1, 8}, {4, 2, 4}, {4, 0, 4}, {4, 8, 4}};
    for (const std::string &path : {ptrc, ptrz}) {
        TraceRepository refRepo(capOpt);
        SweepEngine::Options soloOpt;
        soloOpt.jobs = 1;
        const std::string reference = sweepToJson(
            SweepEngine(soloOpt).run(refRepo, {path}, configs), json);
        for (bool stream : {false, true}) {
            for (const auto &run : runs) {
                SCOPED_TRACE(path + (stream ? " streamed" : " captured") +
                             " jobs=" + std::to_string(run.jobs) +
                             " group=" + std::to_string(run.group));
                TraceRepository::Options ro = capOpt;
                ro.streamFiles = stream;
                TraceRepository repo(ro);
                SweepEngine::Options opt;
                opt.jobs = run.jobs;
                opt.groupSize = run.group;
                SweepResult sweep =
                    SweepEngine(opt).run(repo, {path}, configs);
                EXPECT_EQ(sweep.fusedGroups, run.passes);
                EXPECT_EQ(sweepToJson(sweep, json), reference);
            }
        }
    }
    fs::remove(ptrc);
    fs::remove(ptrz);
}

TEST(SweepEngine, CellsMatchSoloAnalyzeRunsByteForByte)
{
    // The acceptance grid shape: window sizes crossed with two workloads,
    // every cell checked against an independent serial Paragraph::analyze.
    std::vector<std::string> inputs = {"xlisp", "matrix300"};
    std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::windowed(16),
        core::AnalysisConfig::windowed(64),
        core::AnalysisConfig::windowed(1024),
        core::AnalysisConfig::dataflowConservative(),
        core::AnalysisConfig::noRenaming(),
    };

    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 4;
    SweepResult sweep = SweepEngine(opt).run(repo, inputs, configs);
    ASSERT_EQ(sweep.cells.size(), inputs.size() * configs.size());

    for (const SweepCell &cell : sweep.cells) {
        SCOPED_TRACE(cell.job.input + " / " + cell.job.configLabel);
        trace::SharedBufferSource solo(repo.get(cell.job.input));
        core::AnalysisResult alone =
            core::Paragraph(cell.job.config).analyze(solo);
        expectIdenticalResults(cell.result, alone);
    }
}

TEST(SweepEngine, CellsComeBackInInputMajorGridOrder)
{
    std::vector<std::string> inputs = {"xlisp", "matrix300"};
    std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::windowed(16),
        core::AnalysisConfig::dataflowConservative(),
    };
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 3;
    SweepResult sweep = SweepEngine(opt).run(repo, inputs, configs);
    ASSERT_EQ(sweep.cells.size(), 4u);
    for (size_t i = 0; i < inputs.size(); ++i) {
        for (size_t j = 0; j < configs.size(); ++j) {
            const SweepCell &cell = sweep.cells[i * configs.size() + j];
            EXPECT_EQ(cell.job.input, inputs[i]);
            EXPECT_EQ(cell.job.inputIndex, i);
            EXPECT_EQ(cell.job.configIndex, j);
        }
    }
}

TEST(SweepEngine, JsonIsIdenticalForAnyWorkerCount)
{
    // The determinism invariant behind the whole design: workers share no
    // mutable analysis state, so a 1-thread and an 8-thread sweep of the
    // same grid serialize to byte-identical JSON (timing omitted).
    std::vector<std::string> inputs = {"xlisp", "matrix300"};
    std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::windowed(16),
        core::AnalysisConfig::windowed(256),
        core::AnalysisConfig::noRenaming(),
        core::AnalysisConfig::dataflowOptimistic(),
    };

    SweepJsonOptions json;
    json.timing = false;

    TraceRepository repo1(smallScale());
    SweepEngine::Options serialOpt;
    serialOpt.jobs = 1;
    std::string serial = sweepToJson(
        SweepEngine(serialOpt).run(repo1, inputs, configs), json);

    TraceRepository repo8(smallScale());
    SweepEngine::Options threadedOpt;
    threadedOpt.jobs = 8;
    std::string threaded = sweepToJson(
        SweepEngine(threadedOpt).run(repo8, inputs, configs), json);

    EXPECT_EQ(serial, threaded);
    EXPECT_NE(serial.find("\"schema\": \"paragraph-sweep-v3\""),
              std::string::npos);
    EXPECT_EQ(serial.find("wall_seconds"), std::string::npos);
}

TEST(SweepEngine, ProgressReportsEveryCellExactlyOnce)
{
    std::atomic<size_t> calls{0};
    std::atomic<size_t> lastDone{0};
    SweepEngine::Options opt;
    opt.jobs = 4;
    opt.progress = [&](size_t done, size_t total, double) {
        ++calls;
        lastDone = done;
        EXPECT_EQ(total, 6u);
    };
    TraceRepository repo(smallScale());
    std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::windowed(4),
        core::AnalysisConfig::windowed(16),
        core::AnalysisConfig::windowed(64),
    };
    SweepResult sweep =
        SweepEngine(opt).run(repo, {"xlisp", "matrix300"}, configs);
    EXPECT_EQ(calls.load(), 6u);
    EXPECT_EQ(lastDone.load(), 6u);
    EXPECT_EQ(sweep.jobs, 4u);
    EXPECT_GT(sweep.totalInstructions, 0u);
}

