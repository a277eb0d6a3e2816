#include "engine/cell_exec.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <memory>
#include <vector>

#include "core/cancel_token.hpp"
#include "core/multi.hpp"
#include "core/shard.hpp"
#include "support/parallel.hpp"
#include "trace/shared_decode.hpp"

namespace paragraph {
namespace engine {

namespace {

/** Mark @p cell Ok: its result is in place, analyzed in @p wallSeconds. */
void
markOk(SweepCell &cell, double wallSeconds)
{
    cell.status = SweepCell::Status::Ok;
    cell.errorMessage.clear();
    cell.wallSeconds = wallSeconds;
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

/** @p cfg for one attempt: with a deadline, a fresh token in @p tokens
 *  armed for it and chained to the job's own cancel token. */
core::AnalysisConfig
attemptConfig(const core::AnalysisConfig &cfg, double deadlineSeconds,
              std::deque<core::CancelToken> &tokens)
{
    core::AnalysisConfig out = cfg;
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
 * group and every unsharded solo attempt runs. A `.ptrc` walks the shared
 * pool's blocks in place in the mapping (each block checked once across
 * every pass on the input); any other input — a simulation, a `.ptrz`, a
 * `.ptrc` that could not be mapped — fills one reused block at a time on
 * this thread, up to the largest cap in the pass. Input errors throw;
 * engine errors stay in their outcome slots.
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

/** @p trace with the wait of every block fetch added to @p waitNs. */
core::TraceBlocks
timedBlocks(const core::TraceBlocks &trace, int64_t &waitNs)
{
    core::TraceBlocks timed = trace;
    timed.block = [inner = trace.block, &waitNs](size_t b) {
        auto t0 = std::chrono::steady_clock::now();
        core::TraceBlocks::Span span = inner(b);
        waitNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
        return span;
    };
    return timed;
}

/**
 * Split-and-patch analysis of @p cell over its `.ptrc` input's mapped
 * pool blocks: one plan walk, the segments in parallel, then the patch —
 * the firewall fast path when every cut is a total firewall. Returns false
 * when the input has no random access (a simulation or a `.ptrz`) or is
 * too short to cut. Throws what a segment throws, for the attempts loop.
 */
bool
analyzeSharded(TraceRepository &repo, const core::AnalysisConfig &cfg,
               unsigned shards, SweepCell &cell)
{
    std::shared_ptr<trace::SharedDecodePool> pool =
        repo.decodePool(cell.job.input);
    if (!pool)
        return false;
    core::TraceBlocks trace;
    trace.count = pool->recordCount();
    trace.blockRecords = pool->blockRecords();
    trace.block = [pool](size_t b) {
        std::span<const trace::TraceRecord> blk = pool->block(b);
        return core::TraceBlocks::Span{blk.data(), blk.size()};
    };
    if (cfg.maxInstructions && cfg.maxInstructions < trace.count)
        trace.count = cfg.maxInstructions;
    if (trace.count < 2)
        return false;
    const bool modeled =
        cfg.branchPredictor != core::PredictorKind::Perfect;

    // Block waits — a first-touch block check, or a wait on another
    // consumer's — are the cell's decode share. Only the waits on its
    // wall-clock path count: the plan walk, the slowest segment and the
    // patch replays.
    int64_t planWaitNs = 0;
    core::PatchPlan plan =
        core::planPatchPlan(cfg, timedBlocks(trace, planWaitNs), shards);
    if (plan.cuts.empty()) {
        cell.decodeSeconds += planWaitNs * 1e-9; // the walk still decoded
        return false;
    }
    std::vector<uint64_t> bounds{0};
    bounds.insert(bounds.end(), plan.cuts.begin(), plan.cuts.end());
    bounds.push_back(trace.count);
    const size_t nSegments = bounds.size() - 1;

    // The plan has at most `shards` segments, so each gets its own thread.
    std::vector<core::SegmentRun> segments(nSegments);
    std::vector<int64_t> segmentWaitNs(nSegments, 0);
    std::vector<std::chrono::steady_clock::duration> segmentWall(nSegments);
    runSegmentsParallel(nSegments, [&](size_t s) {
        auto t0 = std::chrono::steady_clock::now();
        core::runSegment(cfg, timedBlocks(trace, segmentWaitNs[s]),
                         bounds[s], bounds[s + 1], segments[s],
                         modeled ? &plan.bits : nullptr,
                         modeled ? plan.branchBase[s] : 0);
        segmentWall[s] = std::chrono::steady_clock::now() - t0;
    });
    const size_t slowest = static_cast<size_t>(
        std::max_element(segmentWall.begin(), segmentWall.end()) -
        segmentWall.begin());

    core::PatchOutcome outcome;
    int64_t patchWaitNs = 0;
    if (core::shardableConfig(cfg) && plan.naturalCuts) {
        // Firewall fast path: every stall cut is a total firewall, so all
        // splices validate by construction — skip the per-boundary checks.
        cell.result = core::stitchSegments(cfg, segments);
        outcome.spliced = static_cast<unsigned>(nSegments);
    } else {
        const core::TraceBlocks replayTrace =
            timedBlocks(trace, patchWaitNs);
        auto replay = [&](core::Paragraph &engine, size_t s) {
            replayTrace.feed(engine, bounds[s], bounds[s + 1]);
        };
        cell.result = core::patchSegments(
            cfg, segments, replay, modeled ? &plan.bits : nullptr,
            modeled ? &plan.branchBase : nullptr, &outcome);
    }
    cell.decodeSeconds +=
        (planWaitNs + segmentWaitNs[slowest] + patchWaitNs) * 1e-9;
    cell.shardSegments = static_cast<unsigned>(nSegments);
    cell.shardSpliced = outcome.spliced;
    cell.shardReplayed = outcome.replayed;
    return true;
}

} // namespace

void
runCellSolo(TraceRepository &repo, SweepCell &cell,
            const SweepScheduler::Options &opt)
{
    unsigned maxAttempts = 1 + opt.maxRetries;
    for (unsigned attempt = 1; attempt <= maxAttempts; ++attempt) {
        cell.attempts = attempt;
        cell.decodeSeconds = 0.0;
        cell.shardSegments = 0;
        cell.shardSpliced = 0;
        cell.shardReplayed = 0;
        try {
            std::deque<core::CancelToken> deadline;
            core::AnalysisConfig cfg = attemptConfig(
                cell.job.config, opt.cellDeadlineSeconds, deadline);
            auto cellStart = std::chrono::steady_clock::now();
            if (opt.shards < 2 ||
                !analyzeSharded(repo, cfg, opt.shards, cell)) {
                std::vector<core::MultiOutcome> out =
                    fusedPass(repo, cell.job.input, {cfg});
                if (out[0].error)
                    std::rethrow_exception(out[0].error);
                cell.result = std::move(out[0].result);
                cell.decodeSeconds += out[0].decodeSeconds;
            }
            markOk(cell, std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - cellStart)
                             .count());
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
}

void
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
    try {
        outcomes = fusedPass(repo, cells.front()->job.input, cfgs);
    } catch (const std::exception &) {
        groupFailed = true;
    }

    for (size_t k = 0; k < cells.size(); ++k) {
        SweepCell &cell = *cells[k];
        if (!groupFailed && !outcomes[k].error) {
            cell.result = std::move(outcomes[k].result);
            cell.attempts = 1;
            cell.decodeSeconds = outcomes[k].decodeSeconds;
            markOk(cell, outcomes[k].engineSeconds);
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
        runCellSolo(repo, cell, opt);
        finish(k);
    }
}

} // namespace engine
} // namespace paragraph
