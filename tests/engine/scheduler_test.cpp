// Tests for the persistent cell-execution service (engine::SweepScheduler)
// and the budget-bounded trace cache it leans on (TraceRepository LRU and
// pinning). The scheduler is the daemon's execution core: its cells must be
// byte-identical to SweepEngine's, batches from independent clients must
// fuse over a shared trace, and a bounded repository must never drop a
// pinned capture out from under a running group.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/paragraph.hpp"
#include "engine/scheduler.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"
#include "trace/source.hpp"

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

std::vector<SweepJob>
gridJobs(const std::vector<std::string> &inputs,
         const std::vector<core::AnalysisConfig> &configs)
{
    std::vector<SweepJob> jobs;
    for (size_t i = 0; i < inputs.size(); ++i) {
        for (size_t j = 0; j < configs.size(); ++j) {
            SweepJob job;
            job.input = inputs[i];
            job.config = configs[j];
            job.configLabel = "config-" + std::to_string(j);
            job.inputIndex = i;
            job.configIndex = j;
            jobs.push_back(job);
        }
    }
    return jobs;
}

/** Two windows, no renaming and the conservative dataflow limit. */
std::vector<core::AnalysisConfig>
fourConfigs()
{
    return {core::AnalysisConfig::windowed(16),
            core::AnalysisConfig::windowed(64),
            core::AnalysisConfig::noRenaming(),
            core::AnalysisConfig::dataflowConservative()};
}

/** @p analog's small trace written to a temporary `.ptrc` named @p name:
 *  an input the repository captures when it is not streaming files. */
std::string
capturedTraceFile(const char *name, const char *analog = "xlisp")
{
    std::string path =
        (std::filesystem::temp_directory_path() / name).string();
    TraceRepository repo(smallScale());
    trace::SharedBufferSource src(repo.get(analog), analog);
    trace::TraceFileWriter writer(path);
    writer.writeAll(src);
    writer.close();
    return path;
}

} // namespace

/** @p job's cell JSON from an independent serial Paragraph::analyze over
 *  @p src — the reference no scheduler path is involved in. */
std::string
serialCellJson(const SweepJob &job, trace::TraceSource &src)
{
    SweepCell ref;
    ref.job = job;
    ref.result = core::Paragraph(job.config).analyze(src);
    SweepJsonOptions json;
    json.timing = false;
    return cellToJson(ref, json);
}

TEST(SweepScheduler, CellsAreByteIdenticalToSweepEngine)
{
    // The property the serve result cache depends on: a scheduler-produced
    // cell must render to exactly the JSON a paragraph-sweep run of the
    // same job produces, or a warm daemon answer would differ from a cold
    // CLI one. SweepEngine itself runs on a scheduler, so every cell is
    // also checked against a serial Paragraph::analyze of its own.
    std::vector<SweepJob> jobs = gridJobs(
        {"xlisp", "matrix300"},
        {core::AnalysisConfig::windowed(16),
         core::AnalysisConfig::noRenaming(),
         core::AnalysisConfig::dataflowConservative()});

    TraceRepository engineRepo(smallScale());
    SweepEngine::Options engineOpt;
    engineOpt.jobs = 2;
    SweepResult viaEngine = SweepEngine(engineOpt).runJobs(engineRepo, jobs);

    TraceRepository repo(smallScale());
    SweepScheduler::Options opt;
    opt.jobs = 3;
    opt.groupSize = 2;
    SweepScheduler scheduler(repo, opt);
    auto batch = scheduler.submit(jobs);
    batch->wait();

    SweepJsonOptions json;
    json.timing = false;
    ASSERT_EQ(batch->cells().size(), viaEngine.cells.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].input + " / " + jobs[i].configLabel);
        const SweepCell &got = batch->cells()[i];
        EXPECT_EQ(got.status, SweepCell::Status::Ok);
        EXPECT_EQ(cellToJson(got, json),
                  cellToJson(viaEngine.cells[i], json));
        trace::SharedBufferSource solo(repo.get(jobs[i].input));
        EXPECT_EQ(cellToJson(got, json), serialCellJson(jobs[i], solo));
    }

    // A streamed `.ptrz` input under auto grouping: each pass decodes it
    // inline, so its four cells split into one pass per worker's share
    // (ceil(4 / 3) = 2 configs, two passes), each cell still equal to its
    // serial reference.
    std::string path = (std::filesystem::temp_directory_path() /
                        "scheduler_identity.ptrz")
                           .string();
    {
        trace::SharedBufferSource src(repo.get("xlisp"), "xlisp");
        trace::CompressedTraceWriter writer(path);
        writer.writeAll(src);
        writer.close();
    }
    TraceRepository::Options streamOpt = smallScale();
    streamOpt.streamFiles = true;
    TraceRepository streamRepo(streamOpt);
    SweepScheduler::Options autoOpt;
    autoOpt.jobs = 3;
    autoOpt.groupSize = 0;
    SweepScheduler streamed(streamRepo, autoOpt);
    std::vector<SweepJob> ptrzJobs = gridJobs({path}, fourConfigs());
    auto ptrzBatch = streamed.submit(ptrzJobs);
    ptrzBatch->wait();
    EXPECT_EQ(streamed.fusedGroups(), 2u);
    for (size_t i = 0; i < ptrzJobs.size(); ++i) {
        SCOPED_TRACE(ptrzJobs[i].configLabel);
        const SweepCell &got = ptrzBatch->cells()[i];
        EXPECT_EQ(got.status, SweepCell::Status::Ok) << got.errorMessage;
        std::unique_ptr<trace::TraceSource> src = trace::openTraceFile(path);
        EXPECT_EQ(cellToJson(got, json), serialCellJson(ptrzJobs[i], *src));
    }
    std::filesystem::remove(path);
}

TEST(SweepScheduler, GroupTargetCapsAWorkersShareOfTheQueue)
{
    // min(cap, max(share, ceil(queued / workers))): share is the head
    // batch's ceil(cells / workers), cap is --group=N (0 = the share).
    const struct
    {
        const char *why;
        size_t cap, share, queued;
        unsigned workers;
        size_t want;
    } rows[] = {
        {"auto, 8 cells on 4 workers", 0, 2, 8, 4, 2},
        {"auto keeps its share as the queue drains", 0, 2, 1, 4, 2},
        {"auto ignores a deep queue", 0, 1, 40, 4, 1},
        {"one 4-cell batch at cap 4", 4, 1, 4, 4, 1},
        {"two queued 4-cell batches at cap 4", 4, 1, 8, 4, 2},
        {"a 32-cell batch at cap 4", 4, 8, 32, 4, 4},
        {"40 queued cells from 10 batches at cap 8", 8, 1, 40, 4, 8},
        {"8 configs at cap 8 on 4 workers", 8, 2, 8, 4, 2},
        {"cap 1", 1, 8, 32, 4, 1},
        {"one worker takes the whole share", 4, 12, 12, 1, 4},
    };
    for (const auto &row : rows) {
        EXPECT_EQ(SweepScheduler::groupTarget(row.cap, row.share, row.queued,
                                              row.workers),
                  row.want)
            << row.why;
    }
}

TEST(SweepScheduler, MemoryBudgetStillCutsAGroupEarly)
{
    // One worker at --group=4 would fuse all four cells; a budget that
    // holds two engines' estimated state cuts them into two passes.
    TraceRepository repo(smallScale());
    SweepScheduler::Options opt;
    opt.jobs = 1;
    opt.groupSize = 4;
    opt.groupMemoryBudget = size_t(20) << 20; // two 8 MiB live wells fit
    SweepScheduler scheduler(repo, opt);
    auto batch = scheduler.submit(gridJobs({"xlisp"}, fourConfigs()));
    batch->wait();
    EXPECT_EQ(scheduler.fusedGroups(), 2u);
    EXPECT_EQ(scheduler.pendingCells(), 0u);
    for (const SweepCell &cell : batch->cells())
        EXPECT_EQ(cell.status, SweepCell::Status::Ok) << cell.errorMessage;
}

TEST(SweepScheduler, SmallBatchSpreadsOverIdleWorkers)
{
    // --group caps a pass, it does not fill one: a 4-cell batch on four
    // idle workers at --group=4 runs as four solo passes, not one 4-engine
    // pass, and each cell still matches its serial reference.
    std::vector<SweepJob> jobs = gridJobs({"xlisp"}, fourConfigs());
    TraceRepository repo(smallScale());
    SweepScheduler::Options opt;
    opt.jobs = 4;
    opt.groupSize = 4;
    SweepScheduler scheduler(repo, opt);
    ASSERT_EQ(scheduler.workers(), 4u);
    auto batch = scheduler.submit(jobs);
    batch->wait();
    EXPECT_EQ(scheduler.fusedGroups(), 4u);

    SweepJsonOptions json;
    json.timing = false;
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].configLabel);
        const SweepCell &got = batch->cells()[i];
        EXPECT_EQ(got.status, SweepCell::Status::Ok) << got.errorMessage;
        trace::SharedBufferSource solo(repo.get(jobs[i].input));
        EXPECT_EQ(cellToJson(got, json), serialCellJson(jobs[i], solo));
    }
}

TEST(SweepScheduler, IndependentBatchesShareOneCapture)
{
    // Two clients asking about the same trace: the repository captures it
    // once, and both batches' cells are correct against a solo analysis.
    // The input is a `.ptrc` read without streaming, which is captured (a
    // simulated input never is).
    std::string path = capturedTraceFile("share_one_capture.ptrc");
    TraceRepository repo(smallScale());
    SweepScheduler::Options opt;
    opt.jobs = 2;
    SweepScheduler scheduler(repo, opt);

    std::vector<SweepJob> a =
        gridJobs({path}, {core::AnalysisConfig::windowed(16)});
    std::vector<SweepJob> b =
        gridJobs({path}, {core::AnalysisConfig::windowed(64)});
    auto batchA = scheduler.submit(a);
    auto batchB = scheduler.submit(b);
    batchA->wait();
    batchB->wait();
    EXPECT_EQ(repo.cachedInputs(), 1u);

    for (const SweepCell *cell :
         {&batchA->cells()[0], &batchB->cells()[0]}) {
        ASSERT_EQ(cell->status, SweepCell::Status::Ok);
        trace::SharedBufferSource solo(repo.get(path));
        core::AnalysisResult alone =
            core::Paragraph(cell->job.config).analyze(solo);
        EXPECT_EQ(cell->result.criticalPathLength,
                  alone.criticalPathLength);
        EXPECT_EQ(cell->result.availableParallelism,
                  alone.availableParallelism);
        EXPECT_EQ(cell->result.instructions, alone.instructions);
    }
    std::filesystem::remove(path);
}

TEST(SweepScheduler, OnCellFiresOncePerCellWithFinalStatus)
{
    TraceRepository repo(smallScale());
    SweepScheduler::Options opt;
    opt.jobs = 2;
    opt.groupSize = 2;
    SweepScheduler scheduler(repo, opt);

    std::vector<SweepJob> jobs = gridJobs(
        {"xlisp"},
        {core::AnalysisConfig::windowed(16),
         core::AnalysisConfig::windowed(64),
         core::AnalysisConfig::windowed(256)});
    size_t calls = 0; // per-batch callbacks are serialized; no atomics
    auto batch = scheduler.submit(jobs, [&](SweepCell &cell) {
        ++calls;
        EXPECT_EQ(cell.status, SweepCell::Status::Ok);
    });
    batch->wait();
    EXPECT_EQ(calls, jobs.size());
}

TEST(SweepScheduler, FailedCellsCarryTheirErrorAndSpareTheRest)
{
    TraceRepository repo(smallScale());
    SweepScheduler scheduler(repo);
    std::vector<SweepJob> jobs =
        gridJobs({"no-such-workload", "xlisp"},
                 {core::AnalysisConfig::windowed(16)});
    auto batch = scheduler.submit(jobs);
    batch->wait();
    EXPECT_EQ(batch->cells()[0].status, SweepCell::Status::Failed);
    EXPECT_NE(batch->cells()[0].errorMessage.find("no-such-workload"),
              std::string::npos);
    EXPECT_EQ(batch->cells()[1].status, SweepCell::Status::Ok);
}

TEST(SweepScheduler, StopFailsLaterSubmissionsImmediately)
{
    TraceRepository repo(smallScale());
    SweepScheduler scheduler(repo);
    scheduler.stop();
    scheduler.stop(); // idempotent

    size_t calls = 0;
    auto batch = scheduler.submit(
        gridJobs({"xlisp"}, {core::AnalysisConfig::windowed(16)}),
        [&](SweepCell &) { ++calls; });
    batch->wait(); // must not hang: cells are failed synchronously
    ASSERT_EQ(batch->cells().size(), 1u);
    EXPECT_EQ(batch->cells()[0].status, SweepCell::Status::Failed);
    EXPECT_EQ(batch->cells()[0].errorMessage, "scheduler stopped");
    EXPECT_EQ(batch->cells()[0].attempts, 0u);
    EXPECT_EQ(calls, 1u);
}

TEST(SweepScheduler, StopGivesEveryQueuedCellAFinalStatus)
{
    // stop() racing a just-submitted batch: each cell either ran (Ok) or
    // was drained (Failed "scheduler stopped") — never left un-final, so
    // wait() always returns.
    TraceRepository repo(smallScale());
    SweepScheduler::Options opt;
    opt.jobs = 1;
    opt.groupSize = 1;
    SweepScheduler scheduler(repo, opt);

    std::vector<core::AnalysisConfig> configs;
    for (uint64_t w = 4; w <= 512; w *= 2)
        configs.push_back(core::AnalysisConfig::windowed(w));
    auto batch = scheduler.submit(gridJobs({"xlisp"}, configs));
    scheduler.stop();
    batch->wait();

    for (const SweepCell &cell : batch->cells()) {
        if (cell.status == SweepCell::Status::Failed)
            EXPECT_EQ(cell.errorMessage, "scheduler stopped");
        else
            EXPECT_EQ(cell.status, SweepCell::Status::Ok);
    }
}

TEST(TraceRepository, BudgetEvictsLeastRecentlyUsedCapture)
{
    // Learn the capture sizes, then bound a fresh repository so it can hold
    // either input alone but never both.
    TraceRepository probe(smallScale());
    probe.get("xlisp");
    probe.get("matrix300");
    size_t both = probe.cachedBytes();
    ASSERT_EQ(probe.cachedInputs(), 2u);

    TraceRepository::Options opt = smallScale();
    opt.memoryBudget = both - 1;
    TraceRepository repo(opt);
    repo.get("xlisp");
    EXPECT_EQ(repo.cachedInputs(), 1u);
    repo.get("matrix300"); // exceeds the budget: xlisp is evicted
    EXPECT_EQ(repo.cachedInputs(), 1u);
    EXPECT_LE(repo.cachedBytes(), opt.memoryBudget);

    // Re-requesting the evicted input recaptures it and evicts the other.
    auto back = repo.get("xlisp");
    EXPECT_EQ(repo.cachedInputs(), 1u);
    EXPECT_GT(back->size(), 0u);
}

TEST(TraceRepository, PinnedCapturesSurviveAnyBudgetPressure)
{
    // Satellite guarantee: while a fused group holds its TracePin, budget
    // pressure from other inputs may overshoot but can never evict (and
    // later silently re-capture) the pinned trace.
    TraceRepository::Options opt = smallScale();
    opt.memoryBudget = 1; // any insert beyond the first is over budget
    TraceRepository repo(opt);

    TracePin pin = repo.pin("xlisp");
    ASSERT_TRUE(pin.buffer() != nullptr);
    const trace::TraceBuffer *pinned = pin.buffer().get();

    repo.get("matrix300"); // would evict everything unpinned
    EXPECT_EQ(repo.get("xlisp").get(), pinned)
        << "pinned capture was evicted and re-captured";

    repo.clear(); // also refuses to touch pinned entries
    EXPECT_EQ(repo.get("xlisp").get(), pinned);

    pin.release();
    repo.get("matrix300"); // now the unpinned xlisp entry may go
    EXPECT_EQ(repo.cachedInputs(), 1u);
}

TEST(TraceRepository, SchedulerCompletesCorrectlyUnderMaximalEviction)
{
    // A one-byte budget makes every new capture evict the previous one.
    // Group pins keep each fused pass's trace resident while it runs, so
    // all cells still complete and match an unbounded run byte for byte.
    std::vector<SweepJob> jobs = gridJobs(
        {"xlisp", "matrix300"},
        {core::AnalysisConfig::windowed(16),
         core::AnalysisConfig::windowed(64)});

    TraceRepository unbounded(smallScale());
    SweepResult reference = SweepEngine().runJobs(unbounded, jobs);

    TraceRepository::Options opt = smallScale();
    opt.memoryBudget = 1;
    TraceRepository repo(opt);
    SweepScheduler::Options schedOpt;
    schedOpt.jobs = 2;
    schedOpt.groupSize = 2;
    SweepScheduler scheduler(repo, schedOpt);
    auto batch = scheduler.submit(jobs);
    batch->wait();

    SweepJsonOptions json;
    json.timing = false;
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].input + " / " + jobs[i].configLabel);
        EXPECT_EQ(cellToJson(batch->cells()[i], json),
                  cellToJson(reference.cells[i], json));
    }
}

TEST(TraceRepository, PinsHoldCapturedFilesUnderMaximalEviction)
{
    // The maximal-eviction run above on inputs the scheduler captures and
    // pins (`.ptrc` files read without streaming): every group's capture
    // evicts the other's, and each cell still matches an unbounded run.
    std::vector<std::string> paths = {
        capturedTraceFile("evict_a.ptrc"),
        capturedTraceFile("evict_b.ptrc", "matrix300")};
    std::vector<SweepJob> jobs =
        gridJobs(paths, {core::AnalysisConfig::windowed(16),
                         core::AnalysisConfig::windowed(64)});

    TraceRepository unbounded(smallScale());
    SweepResult reference = SweepEngine().runJobs(unbounded, jobs);

    TraceRepository::Options opt = smallScale();
    opt.memoryBudget = 1;
    TraceRepository repo(opt);
    SweepScheduler::Options schedOpt;
    schedOpt.jobs = 2;
    schedOpt.groupSize = 2;
    SweepScheduler scheduler(repo, schedOpt);
    auto batch = scheduler.submit(jobs);
    batch->wait();
    EXPECT_LE(repo.cachedInputs(), 1u);

    SweepJsonOptions json;
    json.timing = false;
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].input + " / " + jobs[i].configLabel);
        EXPECT_EQ(batch->cells()[i].status, SweepCell::Status::Ok);
        EXPECT_EQ(cellToJson(batch->cells()[i], json),
                  cellToJson(reference.cells[i], json));
    }
    for (const std::string &path : paths)
        std::filesystem::remove(path);
}

TEST(TraceRepository, TraceCrcIsRememberedPastEviction)
{
    // A `.ptrc` read without streaming is captured to be checksummed.
    std::string path = capturedTraceFile("crc_past_eviction.ptrc");
    TraceRepository repo(smallScale());
    uint32_t crc = repo.traceCrc(path);
    EXPECT_EQ(repo.cachedInputs(), 1u);

    repo.release(path);
    EXPECT_EQ(repo.cachedInputs(), 0u);
    // The content identity is remembered per spec: no re-capture needed.
    EXPECT_EQ(repo.traceCrc(path), crc);
    EXPECT_EQ(repo.cachedInputs(), 0u);

    // And a genuine re-capture lands on the same identity.
    repo.get(path);
    EXPECT_EQ(repo.traceCrc(path), crc);
    std::filesystem::remove(path);
}
