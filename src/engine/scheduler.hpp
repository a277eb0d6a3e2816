/**
 * @file
 * SweepScheduler: the one runner behind every (trace × config) grid.
 *
 * paragraph-sweep submits its pending cells as one batch (SweepEngine);
 * the paragraph-serve daemon keeps one scheduler alive and submits each
 * client's store misses as they arrive. Workers of a standing pool peel
 * fused groups off a pending queue bucketed by input spec, so cells from
 * *different* submissions fuse into one block-major pass whenever they
 * share a trace. Every input is grouped alike, and a pass over a `.ptrz`
 * decodes it inline on its own worker. A group of one is a solo cell.
 *
 * A group is sized when a worker peels it (groupTarget()): each worker's
 * share of the head cell's batch, or of everything queued if that is
 * more, and never more than Options::groupSize. So a one-shot grid runs
 * one pass per worker's share, a deep daemon queue still fuses up to
 * groupSize cells across clients, and a request smaller than
 * workers × groupSize spreads over idle workers instead of queueing its
 * cells behind one pass. The price of a split is that each pass re-reads
 * its input: a simulated input is simulated, and a `.ptrz` decoded, once
 * per pass.
 *
 * Execution itself is engine/cell_exec.hpp, whose shared semantics let the
 * serve layer cache a scheduler-produced cell and replay it
 * byte-identically against a paragraph-sweep run.
 */

#ifndef PARAGRAPH_ENGINE_SCHEDULER_HPP
#define PARAGRAPH_ENGINE_SCHEDULER_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/sweep.hpp"
#include "engine/trace_repository.hpp"

namespace paragraph {
namespace engine {

class SweepScheduler
{
  public:
    /** Per-cell completion callback with the cell's position in its
     *  submitted job list. */
    using IndexedCellFn = std::function<void(size_t index, SweepCell &cell)>;

    using Options = SchedulerOptions;

    /**
     * One submission: owns its cells (in job order) for the scheduler to
     * fill in. Obtain from submit(), then wait() for completion; cells()
     * is stable storage but individual cells may only be read after the
     * per-cell callback has seen them (or after wait()).
     */
    class Batch
    {
      public:
        /** Block until every cell in this batch has a final status. */
        void
        wait()
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return remaining_ == 0; });
        }

        /** Cells in submission order. Fully final only after wait(). */
        std::vector<SweepCell> &cells() { return cells_; }

      private:
        friend class SweepScheduler;

        std::vector<SweepCell> cells_;
        IndexedCellFn onCell_;
        std::mutex mutex_;
        std::condition_variable cv_;
        size_t remaining_ = 0;
        size_t share_ = 1; ///< ceil(cells / workers), set at submit
    };

    /**
     * Most cells the next group peeled off a bucket may hold:
     * min(cap, max(share, ceil(queuedCells / workers))), before
     * Options::groupMemoryBudget cuts it. @p share (at least 1) is
     * ceil(cells / workers) of the head cell's batch; @p cap is
     * Options::groupSize, with 0 (auto) meaning @p share itself;
     * @p queuedCells counts every cell queued and not yet peeled, the
     * head one included. A one-shot batch never queues more than
     * workers × share cells, so its groups depend only on its own size
     * and the cap, never on timing.
     */
    static size_t groupTarget(size_t cap, size_t share, size_t queuedCells,
                              unsigned workers);

    explicit SweepScheduler(TraceRepository &repo);
    SweepScheduler(TraceRepository &repo, Options opt);
    ~SweepScheduler();

    SweepScheduler(const SweepScheduler &) = delete;
    SweepScheduler &operator=(const SweepScheduler &) = delete;

    /**
     * Queue @p jobs for execution. @p onCell (optional) is invoked once
     * per cell, from a worker thread, as soon as that cell's status is
     * final; calls are serialized per batch (but not across batches).
     * The callback must not re-enter the scheduler. Cells the callback
     * has seen may thereafter be read freely through cells().
     *
     * After stop(), submissions complete immediately with every cell
     * Failed ("scheduler stopped").
     */
    std::shared_ptr<Batch> submit(std::vector<SweepJob> jobs,
                                  std::function<void(SweepCell &)> onCell =
                                      {});

    /** As above, with each cell's position in @p jobs passed alongside. */
    std::shared_ptr<Batch> submit(std::vector<SweepJob> jobs,
                                  IndexedCellFn onCell);

    /**
     * Fail all queued-but-unstarted cells ("scheduler stopped", zero
     * attempts), wait for in-flight groups to finish, and join the pool.
     * To cut in-flight analyses short too, cancel a token chained into the
     * submitted configs before calling (the daemon's SIGTERM path does).
     * Idempotent.
     */
    void stop();

    /** Worker threads in the pool. */
    unsigned workers() const { return workers_; }

    /** Cells queued but not yet picked up by a worker (health probe and
     *  admission control); O(1). */
    size_t pendingCells() const;

    /** Fused groups (passes) peeled since construction, solo cells
     *  included, before any mid-group fault demotes a cell to solo; a
     *  group counts once, however many batches it mixes. */
    size_t fusedGroups() const;

    /** Seconds the passes run since construction spent fetching records,
     *  each pass counted once however many cells it fed. A worker adds a
     *  pass after delivering its cells, so a batch's total is complete
     *  only after stop(). */
    double decodeSeconds() const;

  private:
    /** One queued cell: which batch, which slot. */
    struct Item
    {
        std::shared_ptr<Batch> batch;
        size_t index = 0;
    };

    /** The pending cells of one input, in submission order. */
    using Bucket = std::deque<Item>;

    void workerLoop();
    void deliver(const Item &item) const;

    /** Fail @p item's cell unstarted ("scheduler stopped") and deliver it. */
    void failStopped(const Item &item) const;

    TraceRepository &repo_;
    Options opt_;
    unsigned workers_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;

    /** Pending cells bucketed by input spec; inputOrder_ keeps first-seen
     *  dispatch order over the non-empty buckets. */
    std::map<std::string, Bucket> pendingByInput_;
    std::deque<std::string> inputOrder_;
    size_t queuedCells_ = 0;     ///< cells across every bucket
    size_t fusedGroups_ = 0;     ///< groups peeled so far
    double decodeSeconds_ = 0.0; ///< fetch time of the passes run so far

    std::vector<std::thread> pool_;
};

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_SCHEDULER_HPP
