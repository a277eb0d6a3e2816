#include "engine/cell_exec.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <memory>
#include <vector>

#include "core/cancel_token.hpp"
#include "core/multi.hpp"
#include "trace/shared_decode.hpp"

namespace paragraph {
namespace engine {

namespace {

/** Mark @p cell Ok: its result is in place, analyzed in @p wallSeconds,
 *  of which @p analyzeSeconds in its own engine. */
void
markOk(SweepCell &cell, double wallSeconds, double analyzeSeconds)
{
    cell.status = SweepCell::Status::Ok;
    cell.errorMessage.clear();
    cell.wallSeconds = wallSeconds;
    cell.analyzeSeconds = analyzeSeconds;
    cell.minstrPerSec =
        wallSeconds > 0.0
            ? static_cast<double>(cell.result.instructions) / 1e6 / wallSeconds
            : 0.0;
}

void
markFailed(SweepCell &cell, const std::exception &e)
{
    cell.status = SweepCell::Status::Failed;
    cell.errorMessage = e.what();
    cell.result = core::AnalysisResult();
}

/** @p cfg for one attempt: collecting only what a cell renders (the
 *  lifetime and sharing means, no storage profile), and with a deadline, a
 *  fresh token in @p tokens armed for it and chained to the job's own
 *  cancel token. Neither setting is part of the cell's config key. */
core::AnalysisConfig
attemptConfig(const core::AnalysisConfig &cfg, double deadlineSeconds,
              std::deque<core::CancelToken> &tokens)
{
    core::AnalysisConfig out = cfg;
    out.distributions = false;
    if (deadlineSeconds > 0.0) {
        tokens.emplace_back();
        tokens.back().setDeadline(deadlineSeconds);
        tokens.back().chain(out.cancel);
        out.cancel = &tokens.back();
    }
    return out;
}

/**
 * One guarded fused pass over @p input under @p cfgs — the pass every
 * group and every solo attempt runs. A `.ptrc` walks the shared pool's
 * blocks in place in the mapping (each block checked once across every
 * pass on the input; a file that cannot be mapped fails the pass with its
 * located error); a simulation or a `.ptrz` fills one reused block at a
 * time on this thread, up to the largest cap in the pass. Input errors
 * throw; engine errors stay in their outcome slots.
 */
std::vector<core::MultiOutcome>
fusedPass(TraceRepository &repo, const std::string &input,
          const std::vector<core::AnalysisConfig> &cfgs)
{
    if (std::shared_ptr<trace::SharedDecodePool> pool =
            repo.decodePool(input)) {
        trace::SharedDecodeCursor cursor(std::move(pool));
        return core::analyzeManyGuarded(cursor, cfgs);
    }
    std::unique_ptr<trace::TraceSource> src = repo.makeSource(input);
    return core::analyzeManyGuarded(*src, cfgs);
}

} // namespace

double
runCellSolo(TraceRepository &repo, SweepCell &cell,
            const SweepScheduler::Options &opt)
{
    double passDecode = 0.0;
    unsigned maxAttempts = 1 + opt.maxRetries;
    for (unsigned attempt = 1; attempt <= maxAttempts; ++attempt) {
        cell.attempts = attempt;
        cell.decodeSeconds = 0.0;
        try {
            std::deque<core::CancelToken> deadline;
            core::AnalysisConfig cfg = attemptConfig(
                cell.job.config, opt.cellDeadlineSeconds, deadline);
            auto cellStart = std::chrono::steady_clock::now();
            std::vector<core::MultiOutcome> out =
                fusedPass(repo, cell.job.input, {cfg});
            passDecode += out[0].decodeSeconds;
            if (out[0].error)
                std::rethrow_exception(out[0].error);
            cell.result = std::move(out[0].result);
            cell.decodeSeconds = out[0].decodeSeconds;
            const double wall = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    cellStart)
                                    .count();
            markOk(cell, wall, std::max(0.0, wall - cell.decodeSeconds));
            break;
        } catch (const core::CancelledError &e) {
            // Deadline / cancellation: final, never retried —
            // a second attempt would just burn the deadline again.
            markFailed(cell, e);
            break;
        } catch (const std::exception &e) {
            markFailed(cell, e);
        }
    }
    return passDecode;
}

double
runFusedCells(TraceRepository &repo,
              const std::vector<SweepCell *> &cells,
              const SweepScheduler::Options &opt,
              const std::function<void(size_t)> &finish)
{
    std::deque<core::CancelToken> deadlines;
    std::vector<core::AnalysisConfig> cfgs;
    cfgs.reserve(cells.size());
    for (SweepCell *cell : cells) {
        cfgs.push_back(attemptConfig(cell->job.config,
                                     opt.cellDeadlineSeconds, deadlines));
    }

    std::vector<core::MultiOutcome> outcomes;
    bool groupFailed = false;
    double passDecode = 0.0;
    try {
        outcomes = fusedPass(repo, cells.front()->job.input, cfgs);
        passDecode = outcomes.front().decodeSeconds; // one pass, one decode
    } catch (const std::exception &) {
        groupFailed = true;
    }

    for (size_t k = 0; k < cells.size(); ++k) {
        SweepCell &cell = *cells[k];
        if (!groupFailed && !outcomes[k].error) {
            cell.result = std::move(outcomes[k].result);
            cell.attempts = 1;
            cell.decodeSeconds = outcomes[k].decodeSeconds;
            // The pass's decode is shared and not in engineSeconds: the
            // cell's wall is its engine's own time.
            markOk(cell, outcomes[k].engineSeconds,
                   outcomes[k].engineSeconds);
            finish(k);
            continue;
        }
        if (!groupFailed) {
            try {
                std::rethrow_exception(outcomes[k].error);
            } catch (const core::CancelledError &e) {
                // Cancellation is final in either mode: a solo re-run
                // would just burn the deadline a second time.
                markFailed(cell, e);
                cell.attempts = 1;
                finish(k);
                continue;
            } catch (const std::exception &) {
                // Ordinary failure: fall through to the solo re-run (the
                // demotion itself consumes no attempt).
            }
        }
        passDecode += runCellSolo(repo, cell, opt);
        finish(k);
    }
    return passDecode;
}

} // namespace engine
} // namespace paragraph
