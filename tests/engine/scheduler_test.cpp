// Tests for the persistent cell-execution service (engine::SweepScheduler).
// The scheduler is the daemon's execution core: its cells must be
// byte-identical to SweepEngine's and to a serial analysis, groups must be
// sized to the idle pool, and every cell must reach a final status.
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
        trace::BufferSource solo(*repo.get(jobs[i].input));
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
        trace::BufferSource src(*repo.get("xlisp"), "xlisp");
        trace::CompressedTraceWriter writer(path);
        writer.writeAll(src);
        writer.close();
    }
    TraceRepository streamRepo(smallScale());
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
        trace::BufferSource solo(*repo.get(jobs[i].input));
        EXPECT_EQ(cellToJson(got, json), serialCellJson(jobs[i], solo));
    }
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
