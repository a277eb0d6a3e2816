#include "engine/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "engine/journal.hpp"
#include "engine/scheduler.hpp"
#include "engine/sweep_json.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace engine {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

SweepEngine::SweepEngine() : SweepEngine(Options{}) {}

SweepEngine::SweepEngine(Options opt)
    : opt_(std::move(opt)),
      jobs_(opt_.jobs ? opt_.jobs : std::thread::hardware_concurrency())
{
    if (jobs_ == 0) // hardware_concurrency() may report 0
        jobs_ = 1;
}

std::vector<SweepJob>
sweepGrid(const std::vector<std::string> &inputs,
          const std::vector<core::AnalysisConfig> &configs,
          const std::vector<std::string> &configLabels)
{
    std::vector<SweepJob> grid;
    grid.reserve(inputs.size() * configs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
        for (size_t j = 0; j < configs.size(); ++j) {
            SweepJob job;
            job.input = inputs[i];
            job.config = configs[j];
            if (j < configLabels.size())
                job.configLabel = configLabels[j];
            else
                job.configLabel = configs[j].describe();
            job.inputIndex = i;
            job.configIndex = j;
            grid.push_back(std::move(job));
        }
    }
    return grid;
}

SweepResult
SweepEngine::run(TraceRepository &repo,
                 const std::vector<std::string> &inputs,
                 const std::vector<core::AnalysisConfig> &configs,
                 const std::vector<std::string> &configLabels) const
{
    return runJobs(repo, sweepGrid(inputs, configs, configLabels));
}

SweepResult
SweepEngine::runJobs(TraceRepository &repo, std::vector<SweepJob> jobs) const
{
    auto sweepStart = std::chrono::steady_clock::now();

    SweepResult sweep;
    sweep.jobs = jobs_;
    sweep.cells.resize(jobs.size());

    std::unique_ptr<SweepJournal> journal;
    if (!opt_.journalPath.empty()) {
        journal = std::make_unique<SweepJournal>(opt_.journalPath,
                                                 opt_.journalProfiles);
    }
    SweepJsonOptions journalOpt;
    journalOpt.timing = false; // journaled cells must splice byte-identically
    journalOpt.profiles = opt_.journalProfiles;

    // Satisfy cells from the resume journal first, and collect the rest as
    // the pending work list.
    std::vector<size_t> pending;
    pending.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const JournalEntry *done =
            opt_.resume ? opt_.resume->findOk(i, jobs[i]) : nullptr;
        if (done) {
            SweepCell &cell = sweep.cells[i];
            cell.job = jobs[i];
            cell.status = SweepCell::Status::Skipped;
            cell.attempts = done->attempts;
            cell.journalText = done->cellJson;
            ++sweep.cellsSkipped;
        } else {
            pending.push_back(i);
        }
    }

    // Warm the repository for every pending input up front, serially:
    // a simulated input's compile and a `.ptrc`'s decode pool (its map,
    // payload checksum and block checks) are the parts that cannot be
    // split across cells, and doing them here (rather than lazily from a
    // worker) keeps them in captureSeconds. Simulation and a `.ptrz`'s
    // decode run inline in each pass, by design, and count as each cell's
    // decodeSeconds.
    // Failures are deliberately swallowed — a bad input surfaces as a
    // per-cell error below, where it can be attributed (and retried) per
    // cell instead of aborting the whole grid.
    std::set<std::string> warmed;
    for (size_t i : pending) {
        const std::string &input = jobs[i].input;
        if (!warmed.insert(input).second)
            continue;
        try {
            if (repo.simulatedInput(input))
                repo.program(input);
            else
                repo.decodePool(input);
        } catch (const std::exception &) {
        }
    }
    sweep.captureSeconds = secondsSince(sweepStart);

    uint64_t instructionsDone = 0;
    size_t cellsDone = sweep.cellsSkipped;
    bool progressBroken = false;

    // Journal + aggregate + progress bookkeeping, exactly once per cell,
    // after its status is final. The scheduler serializes a batch's
    // callbacks, so none of this needs a lock of its own.
    auto finishCell = [&](size_t i, SweepCell &cell) {
        if (journal) {
            std::string cellJson;
            if (cell.status == SweepCell::Status::Ok)
                cellJson = cellToJson(cell, journalOpt);
            journal->record(i, cell, cellJson);
        }
        instructionsDone += cell.result.instructions;
        ++cellsDone;
        if (!opt_.progress || progressBroken)
            return;
        double elapsed = secondsSince(sweepStart);
        try {
            opt_.progress(cellsDone, sweep.cells.size(),
                          elapsed > 0.0
                              ? static_cast<double>(instructionsDone) / 1e6 /
                                    elapsed
                              : 0.0);
        } catch (const std::exception &e) {
            progressBroken = true;
            PARA_WARN("sweep progress callback threw (%s); further progress "
                      "reports disabled",
                      e.what());
        } catch (...) {
            progressBroken = true;
            PARA_WARN("sweep progress callback threw; further progress "
                      "reports disabled");
        }
    };

    // The pending cells run as one batch on a scheduler of their own: it
    // forms the fused groups (auto-sized for --group=0).
    if (!pending.empty()) {
        SweepScheduler::Options so = opt_;
        so.jobs =
            static_cast<unsigned>(std::min<size_t>(jobs_, pending.size()));
        SweepScheduler scheduler(repo, so);

        std::vector<SweepJob> work;
        work.reserve(pending.size());
        for (size_t i : pending)
            work.push_back(std::move(jobs[i]));
        auto batch = scheduler.submit(
            std::move(work), [&](size_t k, SweepCell &cell) {
                finishCell(pending[k], cell);
            });
        batch->wait();
        // A worker adds a pass's decode after delivering its last cell:
        // join the pool before reading the totals.
        scheduler.stop();
        sweep.fusedGroups = scheduler.fusedGroups();
        sweep.decodeSeconds = scheduler.decodeSeconds();
        for (size_t k = 0; k < pending.size(); ++k)
            sweep.cells[pending[k]] = std::move(batch->cells()[k]);
    }

    for (const SweepCell &cell : sweep.cells) {
        if (cell.status == SweepCell::Status::Failed)
            ++sweep.cellsFailed;
    }
    sweep.wallSeconds = secondsSince(sweepStart);
    sweep.totalInstructions = instructionsDone;
    sweep.aggregateMinstrPerSec =
        sweep.wallSeconds > 0.0
            ? static_cast<double>(sweep.totalInstructions) / 1e6 /
                  sweep.wallSeconds
            : 0.0;
    return sweep;
}

} // namespace engine
} // namespace paragraph
