#include "engine/scheduler.hpp"

#include <algorithm>
#include <system_error>
#include <utility>

#include "engine/cell_exec.hpp"
#include "support/failpoint.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace engine {

namespace {

/** Rough live-state bytes one engine with this config keeps resident:
 *  base live well + ordering window + profile/lifetime buckets. Used to
 *  clamp fused-group size against a memory budget. */
size_t
configFootprint(const core::AnalysisConfig &cfg)
{
    size_t bytes = size_t(8) << 20;
    bytes += static_cast<size_t>(cfg.windowSize) * 8;
    bytes += cfg.profileBins * 40;
    return bytes;
}

size_t
ceilDiv(size_t a, size_t b)
{
    return std::max<size_t>((a + b - 1) / b, 1);
}

} // namespace

SweepScheduler::SweepScheduler(TraceRepository &repo)
    : SweepScheduler(repo, Options())
{
}

SweepScheduler::SweepScheduler(TraceRepository &repo, Options opt)
    : repo_(repo),
      opt_(opt),
      workers_(opt.jobs ? opt.jobs : std::thread::hardware_concurrency())
{
    if (workers_ == 0) // hardware_concurrency() may report 0
        workers_ = 1;
    pool_.reserve(workers_);
    for (unsigned t = 0; t < workers_; ++t) {
        // Worker-startup fault containment: a thread that cannot start
        // (resource exhaustion, or the injected site) shrinks the pool
        // instead of killing the scheduler. The first worker is exempt so
        // the pool can always make progress.
        if (t > 0 && PARA_FAILPOINT("scheduler.worker.start")) {
            PARA_WARN("scheduler: worker %u failed to start (injected); "
                      "continuing with %zu workers",
                      t, pool_.size());
            continue;
        }
        try {
            pool_.emplace_back([this] { workerLoop(); });
        } catch (const std::system_error &e) {
            if (pool_.empty())
                throw; // zero workers would deadlock every submit
            PARA_WARN("scheduler: worker %u failed to start (%s); "
                      "continuing with %zu workers",
                      t, e.what(), pool_.size());
            break;
        }
    }
    workers_ = static_cast<unsigned>(pool_.size());
}

SweepScheduler::~SweepScheduler() { stop(); }

size_t
SweepScheduler::groupTarget(size_t cap, size_t share, size_t queuedCells,
                            unsigned workers)
{
    const size_t spread = ceilDiv(queuedCells, std::max(workers, 1u));
    return std::min(cap ? cap : share, std::max(share, spread));
}

std::shared_ptr<SweepScheduler::Batch>
SweepScheduler::submit(std::vector<SweepJob> jobs,
                       std::function<void(SweepCell &)> onCell)
{
    IndexedCellFn indexed;
    if (onCell)
        indexed = [fn = std::move(onCell)](size_t, SweepCell &cell) {
            fn(cell);
        };
    return submit(std::move(jobs), std::move(indexed));
}

std::shared_ptr<SweepScheduler::Batch>
SweepScheduler::submit(std::vector<SweepJob> jobs, IndexedCellFn onCell)
{
    auto batch = std::make_shared<Batch>();
    batch->cells_.resize(jobs.size());
    batch->onCell_ = std::move(onCell);
    batch->remaining_ = jobs.size();
    batch->share_ = ceilDiv(jobs.size(), workers_);
    for (size_t i = 0; i < jobs.size(); ++i)
        batch->cells_[i].job = std::move(jobs[i]);

    bool rejected;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rejected = stopping_;
        if (!rejected) {
            for (size_t i = 0; i < batch->cells_.size(); ++i) {
                const std::string &input = batch->cells_[i].job.input;
                auto [it, fresh] = pendingByInput_.try_emplace(input);
                if (fresh)
                    inputOrder_.push_back(input);
                it->second.push_back(Item{batch, i});
            }
            queuedCells_ += batch->cells_.size();
        }
    }
    if (rejected) {
        // Deliver outside any scheduler lock, same as the worker path.
        for (size_t i = 0; i < batch->cells_.size(); ++i)
            failStopped(Item{batch, i});
    } else {
        cv_.notify_all();
    }
    return batch;
}

void
SweepScheduler::stop()
{
    std::vector<Item> orphans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ && pool_.empty())
            return;
        stopping_ = true;
        for (auto &bucket : pendingByInput_) {
            for (Item &item : bucket.second)
                orphans.push_back(std::move(item));
        }
        pendingByInput_.clear();
        inputOrder_.clear();
        queuedCells_ = 0;
    }
    cv_.notify_all();
    for (const Item &item : orphans)
        failStopped(item);
    for (std::thread &t : pool_)
        t.join();
    pool_.clear();
}

size_t
SweepScheduler::pendingCells() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queuedCells_;
}

size_t
SweepScheduler::fusedGroups() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fusedGroups_;
}

void
SweepScheduler::failStopped(const Item &item) const
{
    SweepCell &cell = item.batch->cells_[item.index];
    cell.status = SweepCell::Status::Failed;
    cell.errorMessage = "scheduler stopped";
    cell.attempts = 0;
    deliver(item);
}

void
SweepScheduler::deliver(const Item &item) const
{
    Batch &batch = *item.batch;
    SweepCell &cell = batch.cells_[item.index];
    std::lock_guard<std::mutex> lock(batch.mutex_);
    if (batch.onCell_) {
        try {
            batch.onCell_(item.index, cell);
        } catch (const std::exception &e) {
            PARA_WARN("scheduler cell callback threw (%s)", e.what());
        } catch (...) {
            PARA_WARN("scheduler cell callback threw");
        }
    }
    if (--batch.remaining_ == 0)
        batch.cv_.notify_all();
}

void
SweepScheduler::workerLoop()
{
    for (;;) {
        std::vector<Item> group;
        std::string input;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [&] { return !inputOrder_.empty() || stopping_; });
            if (inputOrder_.empty())
                return; // stopping, queue drained

            // Peel one fused group off the first bucket: same input, at
            // most groupTarget() cells, cut early by the memory budget.
            input = inputOrder_.front();
            Bucket &bucket = pendingByInput_.at(input);
            const size_t target =
                groupTarget(opt_.groupSize, bucket.front().batch->share_,
                            queuedCells_, workers_);
            size_t bytes = 0;
            while (!bucket.empty() && group.size() < target) {
                const Item &item = bucket.front();
                size_t need = configFootprint(
                    item.batch->cells_[item.index].job.config);
                if (!group.empty() && bytes + need > opt_.groupMemoryBudget)
                    break;
                bytes += need;
                group.push_back(std::move(bucket.front()));
                bucket.pop_front();
            }
            queuedCells_ -= group.size();
            ++fusedGroups_;
            if (bucket.empty()) {
                pendingByInput_.erase(input);
                inputOrder_.pop_front();
            } else {
                // Group cut early: the bucket still holds cells, and the
                // submit-time notification has already been consumed.
                // Wake a peer to take the remainder; the bucket keeps its
                // place so this trace drains before the queue moves on.
                cv_.notify_one();
            }
        }

        // Hold a captured input for the duration of the group so a bounded
        // repository cannot evict (and later re-capture) it mid-pass; a
        // simulated or streamed input holds nothing. A capture failure is
        // not handled here — the per-cell attempts loop will surface it as
        // each cell's error.
        TracePin pin;
        if (repo_.capturedInput(input)) {
            try {
                pin = repo_.pin(input);
            } catch (const std::exception &) {
            }
        }

        if (group.size() == 1) {
            SweepCell &cell =
                group.front().batch->cells_[group.front().index];
            runCellSolo(repo_, cell, opt_);
            deliver(group.front());
        } else {
            std::vector<SweepCell *> cells;
            cells.reserve(group.size());
            for (const Item &item : group)
                cells.push_back(&item.batch->cells_[item.index]);
            runFusedCells(repo_, cells, opt_,
                          [&](size_t k) { deliver(group[k]); });
        }
    }
}

} // namespace engine
} // namespace paragraph
