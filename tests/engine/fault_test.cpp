// Fault-tolerance tests for the sweep engine: per-cell isolation (one bad
// input or poisoned config never voids the grid), retry and deadline
// semantics, progress-callback containment, and checkpoint/resume via the
// JSONL journal — including the byte-identity guarantee that a resumed
// sweep's JSON equals an uninterrupted run's.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cancel_token.hpp"
#include "engine/journal.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "support/panic.hpp"

using namespace paragraph;
using namespace paragraph::engine;

namespace {

constexpr const char *badInput = "no-such-workload";

TraceRepository::Options
smallScale()
{
    TraceRepository::Options opt;
    opt.scale = workloads::Scale::Small;
    opt.maxRecords = 2000;
    return opt;
}

std::vector<core::AnalysisConfig>
fourConfigs()
{
    std::vector<core::AnalysisConfig> configs;
    for (uint64_t w : {16u, 64u, 256u, 0u}) {
        core::AnalysisConfig cfg;
        cfg.windowSize = w;
        cfg.maxInstructions = 2000;
        configs.push_back(cfg);
    }
    return configs;
}

std::vector<std::string>
fourLabels()
{
    return {"w16", "w64", "w256", "winf"};
}

std::string
tempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() / stem).string();
}

SweepJsonOptions
noTiming()
{
    SweepJsonOptions opt;
    opt.timing = false;
    return opt;
}

} // namespace

TEST(SweepFaults, BadInputFailsItsCellsOnly)
{
    std::vector<std::string> inputs = {"xlisp", badInput, "matrix300"};
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 4;
    SweepResult sweep =
        SweepEngine(opt).run(repo, inputs, fourConfigs(), fourLabels());

    ASSERT_EQ(sweep.cells.size(), 12u);
    EXPECT_EQ(sweep.cellsFailed, 4u);
    for (const SweepCell &cell : sweep.cells) {
        if (cell.job.input == badInput) {
            EXPECT_EQ(cell.status, SweepCell::Status::Failed);
            EXPECT_NE(cell.errorMessage.find("unknown workload"),
                      std::string::npos)
                << cell.errorMessage;
        } else {
            EXPECT_EQ(cell.status, SweepCell::Status::Ok);
            EXPECT_TRUE(cell.errorMessage.empty());
            EXPECT_GT(cell.result.instructions, 0u);
        }
    }
}

TEST(SweepFaults, SurvivingCellsMatchCleanRunByteForByte)
{
    TraceRepository repoClean(smallScale());
    SweepResult clean = SweepEngine(SweepEngine::Options{}).run(
        repoClean, {"xlisp", "matrix300"}, fourConfigs(), fourLabels());

    TraceRepository repoFaulty(smallScale());
    SweepResult faulty = SweepEngine(SweepEngine::Options{}).run(
        repoFaulty, {"xlisp", "matrix300", badInput}, fourConfigs(),
        fourLabels());

    // The bad input rides on a third input-axis row, so the surviving
    // cells occupy the same grid positions as the clean run's.
    ASSERT_EQ(clean.cells.size(), 8u);
    for (size_t i = 0; i < clean.cells.size(); ++i) {
        EXPECT_EQ(cellToJson(clean.cells[i], noTiming()),
                  cellToJson(faulty.cells[i], noTiming()))
            << "cell " << i;
    }
}

TEST(SweepFaults, PoisonedConfigFailsWithoutRetry)
{
    core::CancelToken poisoned;
    poisoned.cancel("injected poison");

    std::vector<core::AnalysisConfig> configs = fourConfigs();
    configs[1].cancel = &poisoned;

    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.maxRetries = 3; // must NOT burn retries on a cancelled cell
    SweepResult sweep = SweepEngine(opt).run(repo, {"xlisp"}, configs,
                                             fourLabels());

    ASSERT_EQ(sweep.cells.size(), 4u);
    EXPECT_EQ(sweep.cellsFailed, 1u);
    const SweepCell &failed = sweep.cells[1];
    EXPECT_EQ(failed.status, SweepCell::Status::Failed);
    EXPECT_EQ(failed.errorMessage, "injected poison");
    EXPECT_EQ(failed.attempts, 1u);
}

TEST(SweepFaults, RetriesAreCountedForOrdinaryFailures)
{
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.maxRetries = 2;
    SweepResult sweep = SweepEngine(opt).run(repo, {badInput},
                                             fourConfigs(), fourLabels());
    ASSERT_EQ(sweep.cells.size(), 4u);
    for (const SweepCell &cell : sweep.cells) {
        EXPECT_EQ(cell.status, SweepCell::Status::Failed);
        EXPECT_EQ(cell.attempts, 3u); // 1 + maxRetries, all consumed
    }
}

TEST(SweepFaults, ExpiredDeadlineTimesCellsOut)
{
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.cellDeadlineSeconds = 1e-9; // expires before the first checkpoint
    SweepResult sweep = SweepEngine(opt).run(repo, {"xlisp"}, fourConfigs(),
                                             fourLabels());
    ASSERT_EQ(sweep.cells.size(), 4u);
    EXPECT_EQ(sweep.cellsFailed, 4u);
    for (const SweepCell &cell : sweep.cells) {
        EXPECT_EQ(cell.status, SweepCell::Status::Failed);
        EXPECT_NE(cell.errorMessage.find("deadline"), std::string::npos)
            << cell.errorMessage;
        EXPECT_EQ(cell.attempts, 1u); // timeouts are final, never retried
    }
}

TEST(SweepFaults, ThrowingProgressCallbackDoesNotAbortTheSweep)
{
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 1;
    opt.progress = [](size_t, size_t, double) {
        throw std::runtime_error("observer bug");
    };
    SweepResult sweep = SweepEngine(opt).run(repo, {"xlisp"}, fourConfigs(),
                                             fourLabels());
    ASSERT_EQ(sweep.cells.size(), 4u);
    EXPECT_EQ(sweep.cellsFailed, 0u);
    for (const SweepCell &cell : sweep.cells)
        EXPECT_EQ(cell.status, SweepCell::Status::Ok);
}

TEST(SweepFaults, FusedGroupDeadlineTimesOutEachCellIndependently)
{
    // All four cells share one fused pass (--group semantics); every cell
    // carries its own deadline token, so a group-wide timeout reports four
    // individual final timeouts — exactly like the ungrouped sweep — and
    // cancellation is never demoted to a solo re-run. One worker, so its
    // share is the whole batch and the pass fuses on any core count.
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 1;
    opt.groupSize = 4;
    opt.cellDeadlineSeconds = 1e-9; // expires before the first checkpoint
    SweepResult sweep = SweepEngine(opt).run(repo, {"xlisp"}, fourConfigs(),
                                             fourLabels());
    ASSERT_EQ(sweep.cells.size(), 4u);
    EXPECT_EQ(sweep.fusedGroups, 1u);
    EXPECT_EQ(sweep.cellsFailed, 4u);
    for (const SweepCell &cell : sweep.cells) {
        EXPECT_EQ(cell.status, SweepCell::Status::Failed);
        EXPECT_NE(cell.errorMessage.find("deadline"), std::string::npos)
            << cell.errorMessage;
        EXPECT_EQ(cell.attempts, 1u); // timeouts are final, never retried
    }
}

TEST(SweepFaults, FusedGroupBadInputBurnsRetriesLikeSolo)
{
    // A group-level error (unreadable input) demotes every member to the
    // solo attempts loop, and the demotion itself consumes no attempt:
    // the attempt counters must match an ungrouped sweep exactly.
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 1;
    opt.groupSize = 4;
    opt.maxRetries = 2;
    SweepResult sweep = SweepEngine(opt).run(repo, {badInput},
                                             fourConfigs(), fourLabels());
    ASSERT_EQ(sweep.cells.size(), 4u);
    EXPECT_EQ(sweep.fusedGroups, 1u); // one pass, then four solo demotions
    for (const SweepCell &cell : sweep.cells) {
        EXPECT_EQ(cell.status, SweepCell::Status::Failed);
        EXPECT_EQ(cell.attempts, 3u); // 1 + maxRetries, all consumed
    }
}

TEST(SweepFaults, FusedSweepJsonMatchesUngroupedSweep)
{
    // The whole point of trace-major grouping is that it changes only the
    // wall clock: with timing fields off, a fused sweep's document — bad
    // input and all — is byte-identical to the group-of-one sweep's.
    std::vector<std::string> inputs = {"xlisp", badInput, "matrix300"};

    TraceRepository repoSolo(smallScale());
    SweepEngine::Options solo;
    solo.groupSize = 1;
    solo.maxRetries = 1;
    SweepResult soloRun = SweepEngine(solo).run(repoSolo, inputs,
                                                fourConfigs(), fourLabels());

    // One worker, whose share is the whole 12-cell batch: every --group
    // fuses on any core count. Auto makes one pass per input.
    const struct
    {
        unsigned group;
        size_t passes;
    } runs[] = {{0, 3}, {2, 6}, {4, 3}};
    for (const auto &run : runs) {
        TraceRepository repoFused(smallScale());
        SweepEngine::Options fused;
        fused.jobs = 1;
        fused.groupSize = run.group;
        fused.maxRetries = 1;
        SweepResult fusedRun = SweepEngine(fused).run(
            repoFused, inputs, fourConfigs(), fourLabels());
        EXPECT_EQ(fusedRun.fusedGroups, run.passes) << "group=" << run.group;
        EXPECT_EQ(sweepToJson(fusedRun, noTiming()),
                  sweepToJson(soloRun, noTiming()))
            << "group=" << run.group;
    }
}

TEST(SweepJournalTest, FusedSweepJournalResumeMatchesSoloDocument)
{
    // Journaling and resume are per-cell even when cells run fused: a
    // fused sweep's journal resumes into the same document an ungrouped
    // sweep produces.
    std::string journalPath = tempPath("para_fault_fused_journal.jsonl");
    std::remove(journalPath.c_str());

    std::vector<std::string> inputs = {"xlisp", badInput, "matrix300"};

    TraceRepository repoSolo(smallScale());
    SweepEngine::Options solo;
    solo.groupSize = 1;
    SweepResult soloRun = SweepEngine(solo).run(repoSolo, inputs,
                                                fourConfigs(), fourLabels());

    // One worker in both fused runs, so each input's four cells are one
    // pass on any core count.
    TraceRepository repo1(smallScale());
    SweepEngine::Options first;
    first.jobs = 1;
    first.groupSize = 4;
    first.journalPath = journalPath;
    SweepResult run1 = SweepEngine(first).run(repo1, inputs, fourConfigs(),
                                              fourLabels());
    EXPECT_EQ(run1.fusedGroups, 3u);
    EXPECT_EQ(sweepToJson(run1, noTiming()), sweepToJson(soloRun, noTiming()));

    JournalData journal = loadJournal(journalPath);
    EXPECT_EQ(journal.entries.size(), 12u);
    TraceRepository repo2(smallScale());
    SweepEngine::Options second;
    second.jobs = 1;
    second.groupSize = 4;
    second.resume = &journal;
    SweepResult run2 = SweepEngine(second).run(repo2, inputs, fourConfigs(),
                                               fourLabels());
    EXPECT_EQ(run2.fusedGroups, 1u); // the bad input's four cells re-run
    EXPECT_EQ(run2.cellsSkipped, 8u);
    EXPECT_EQ(run2.cellsFailed, 4u);
    EXPECT_EQ(sweepToJson(run2, noTiming()), sweepToJson(soloRun, noTiming()));

    std::remove(journalPath.c_str());
}

TEST(SweepJournalTest, ResumeSkipsOkCellsAndReproducesTheDocument)
{
    std::string journalPath = tempPath("para_fault_journal.jsonl");
    std::remove(journalPath.c_str());

    std::vector<std::string> inputs = {"xlisp", badInput, "matrix300"};

    // First (interrupted-equivalent) run: journal everything, bad input
    // fails its row.
    TraceRepository repo1(smallScale());
    SweepEngine::Options first;
    first.journalPath = journalPath;
    SweepResult run1 = SweepEngine(first).run(repo1, inputs, fourConfigs(),
                                              fourLabels());
    EXPECT_EQ(run1.cellsFailed, 4u);
    EXPECT_EQ(run1.cellsSkipped, 0u);

    // Resume from the journal: only the failed cells may re-run.
    JournalData journal = loadJournal(journalPath);
    EXPECT_EQ(journal.entries.size(), 12u);
    TraceRepository repo2(smallScale());
    SweepEngine::Options second;
    second.resume = &journal;
    SweepResult run2 = SweepEngine(second).run(repo2, inputs, fourConfigs(),
                                               fourLabels());
    EXPECT_EQ(run2.cellsSkipped, 8u);
    EXPECT_EQ(run2.cellsFailed, 4u);

    // The resumed document must be byte-identical to the full run's
    // (timing excluded: journaled cells carry none).
    EXPECT_EQ(sweepToJson(run2, noTiming()), sweepToJson(run1, noTiming()));

    std::remove(journalPath.c_str());
}

TEST(SweepJournalTest, JournalMismatchedGridIsNotResumed)
{
    std::string journalPath = tempPath("para_fault_mismatch.jsonl");
    std::remove(journalPath.c_str());

    TraceRepository repo1(smallScale());
    SweepEngine::Options first;
    first.journalPath = journalPath;
    SweepEngine(first).run(repo1, {"xlisp"}, fourConfigs(), fourLabels());

    // Same cell indices, different input: nothing may be skipped.
    JournalData journal = loadJournal(journalPath);
    TraceRepository repo2(smallScale());
    SweepEngine::Options second;
    second.resume = &journal;
    SweepResult run2 = SweepEngine(second).run(repo2, {"matrix300"},
                                               fourConfigs(), fourLabels());
    EXPECT_EQ(run2.cellsSkipped, 0u);
    for (const SweepCell &cell : run2.cells)
        EXPECT_EQ(cell.status, SweepCell::Status::Ok);

    std::remove(journalPath.c_str());
}

TEST(SweepJournalTest, TruncatedJournalLinesAreSkippedNotFatal)
{
    std::string journalPath = tempPath("para_fault_torn.jsonl");
    std::remove(journalPath.c_str());

    TraceRepository repo1(smallScale());
    SweepEngine::Options first;
    first.journalPath = journalPath;
    SweepEngine(first).run(repo1, {"xlisp"}, fourConfigs(), fourLabels());

    // Simulate a crash mid-append: chop the tail off the last line, which
    // is far longer than 10 bytes, so it can no longer parse.
    std::uintmax_t size = std::filesystem::file_size(journalPath);
    std::filesystem::resize_file(journalPath, size - 10);

    JournalData journal = loadJournal(journalPath);
    EXPECT_EQ(journal.entries.size(), 3u);

    TraceRepository repo2(smallScale());
    SweepEngine::Options second;
    second.resume = &journal;
    SweepResult run2 = SweepEngine(second).run(repo2, {"xlisp"},
                                               fourConfigs(), fourLabels());
    EXPECT_EQ(run2.cellsSkipped, journal.entries.size());
    EXPECT_EQ(run2.cellsFailed, 0u);
}

TEST(SweepJournalTest, TrailingGarbageAfterValidEntriesIsSkipped)
{
    // A crash can leave anything after the last good line: binary junk,
    // torn JSON, or well-formed objects missing required fields. None of
    // it may void the entries already journaled.
    std::string journalPath = tempPath("para_fault_garbage.jsonl");
    std::remove(journalPath.c_str());

    TraceRepository repo1(smallScale());
    SweepEngine::Options first;
    first.journalPath = journalPath;
    SweepResult run1 = SweepEngine(first).run(repo1, {"xlisp"},
                                              fourConfigs(), fourLabels());

    {
        std::ofstream out(journalPath, std::ios::app | std::ios::binary);
        out << "{\"index\": 7, \"input\": \"xl";          // torn mid-write
        out << std::string("\x00\xff\x01garbage\x7f", 12) // binary junk
            << "\n";
        out << "not json at all\n";
        out << "{\"index\": 9}\n";  // parses, but fields are missing
        out << "{\"index\": 1, \"input\": \"xlisp\", \"config_label\": "
               "\"w64\", \"status\": \"maybe\"}\n"; // unknown status
        out << "\n"; // blank lines are fine anywhere
    }

    JournalData journal = loadJournal(journalPath);
    EXPECT_EQ(journal.entries.size(), 4u);

    TraceRepository repo2(smallScale());
    SweepEngine::Options second;
    second.resume = &journal;
    SweepResult run2 = SweepEngine(second).run(repo2, {"xlisp"},
                                               fourConfigs(), fourLabels());
    EXPECT_EQ(run2.cellsSkipped, 4u);
    EXPECT_EQ(run2.cellsFailed, 0u);
    EXPECT_EQ(sweepToJson(run2, noTiming()), sweepToJson(run1, noTiming()));

    std::remove(journalPath.c_str());
}

TEST(SweepJournalTest, InterleavedFailedLineDemotesItsCellOnly)
{
    // Re-running with the same --journal file accumulates lines, so a cell
    // can appear more than once. The LAST entry per index wins: an ok cell
    // later journaled as failed must re-run on resume, its neighbours must
    // not, and a failed entry must never be spliced into the document.
    std::string journalPath = tempPath("para_fault_interleave.jsonl");
    std::remove(journalPath.c_str());

    TraceRepository repo1(smallScale());
    SweepEngine::Options first;
    first.journalPath = journalPath;
    SweepResult run1 = SweepEngine(first).run(repo1, {"xlisp"},
                                              fourConfigs(), fourLabels());
    EXPECT_EQ(run1.cellsFailed, 0u);

    {
        std::ofstream out(journalPath, std::ios::app);
        out << "{\"index\": 2, \"input\": \"xlisp\", \"config_label\": "
               "\"w256\", \"status\": \"failed\", \"attempts\": 3, "
               "\"error\": \"simulated crash\"}\n";
    }

    JournalData journal = loadJournal(journalPath);
    ASSERT_EQ(journal.entries.size(), 4u);
    EXPECT_EQ(journal.entries.at(2).status, "failed");
    EXPECT_EQ(journal.entries.at(2).attempts, 3u);
    EXPECT_EQ(journal.entries.at(2).error, "simulated crash");

    TraceRepository repo2(smallScale());
    SweepEngine::Options second;
    second.resume = &journal;
    SweepResult run2 = SweepEngine(second).run(repo2, {"xlisp"},
                                               fourConfigs(), fourLabels());
    EXPECT_EQ(run2.cellsSkipped, 3u);
    EXPECT_EQ(run2.cellsFailed, 0u); // the demoted cell re-ran and passed
    EXPECT_EQ(sweepToJson(run2, noTiming()), sweepToJson(run1, noTiming()));

    std::remove(journalPath.c_str());
}

TEST(SweepJournalTest, OkLineForTheWrongGridPositionIsNotSpliced)
{
    // findOk matches on (index, input, config label) — an ok entry whose
    // label disagrees with the requested grid must not satisfy the cell,
    // even though its index does.
    std::string journalPath = tempPath("para_fault_wrongpos.jsonl");
    std::remove(journalPath.c_str());

    TraceRepository repo1(smallScale());
    SweepEngine::Options first;
    first.journalPath = journalPath;
    SweepEngine(first).run(repo1, {"xlisp"}, fourConfigs(), fourLabels());

    JournalData journal = loadJournal(journalPath);
    ASSERT_EQ(journal.entries.size(), 4u);

    // Same grid, different labels: indices line up, labels do not.
    TraceRepository repo2(smallScale());
    SweepEngine::Options second;
    second.resume = &journal;
    SweepResult run2 = SweepEngine(second).run(
        repo2, {"xlisp"}, fourConfigs(), {"a16", "a64", "a256", "ainf"});
    EXPECT_EQ(run2.cellsSkipped, 0u);
    for (const SweepCell &cell : run2.cells)
        EXPECT_EQ(cell.status, SweepCell::Status::Ok);

    std::remove(journalPath.c_str());
}

TEST(SweepJournalTest, NotAJournalIsFatal)
{
    std::string path = tempPath("para_fault_notjournal.jsonl");
    {
        std::ofstream out(path);
        out << "{\"schema\": \"something-else\"}\n";
    }
    EXPECT_THROW(loadJournal(path), FatalError);
    std::remove(path.c_str());
}

TEST(SweepCliFaults, FaultySweepExitsZeroAndResumeReproducesIt)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() / "para_cli_fault").string();
    fs::create_directories(dir);
    std::string cleanOut = dir + "/clean.json";
    std::string faultyOut = dir + "/faulty.json";
    std::string resumedOut = dir + "/resumed.json";
    std::string journal = dir + "/journal.jsonl";
    std::remove(journal.c_str());

    std::string base = std::string(PARAGRAPH_SWEEP_CLI_PATH) +
                       " --small --max=2000 --windows=16,64,256,0"
                       " --no-timing --quiet";
    auto runCmd = [](const std::string &cmd) {
        return std::system(cmd.c_str());
    };
    auto slurp = [](const std::string &path) {
        std::ifstream in(path);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };

    // A sweep with one bad input must still exit 0 and name the failures.
    int status = runCmd(base + " --inputs=xlisp," + badInput +
                        ",matrix300 --journal=" + journal +
                        " --out=" + faultyOut + " 2>/dev/null");
    ASSERT_EQ(status, 0);
    std::string faulty = slurp(faultyOut);
    EXPECT_NE(faulty.find("\"cells_failed\": 4"), std::string::npos);
    EXPECT_NE(faulty.find("unknown workload"), std::string::npos);

    // Resuming from the journal reproduces the document byte-for-byte.
    status = runCmd(base + " --inputs=xlisp," + badInput +
                    ",matrix300 --resume=" + journal +
                    " --out=" + resumedOut + " 2>/dev/null");
    ASSERT_EQ(status, 0);
    EXPECT_EQ(slurp(resumedOut), faulty);

    // And the clean two-input sweep agrees with the surviving cells: same
    // document except for the failed row and the cell/fail counters.
    status = runCmd(base + " --inputs=xlisp,matrix300 --out=" + cleanOut +
                    " 2>/dev/null");
    ASSERT_EQ(status, 0);
    std::string clean = slurp(cleanOut);
    EXPECT_NE(clean.find("\"cells_failed\": 0"), std::string::npos);

    fs::remove_all(dir);
}
