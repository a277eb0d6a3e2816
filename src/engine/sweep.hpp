/**
 * @file
 * SweepEngine: run one (trace × config) grid to completion.
 *
 * The paper's headline experiments are grids — Figure 8 re-extracts the DDG
 * once per window size per benchmark ("approximately 10 hours on a
 * DECstation 3100" per point), Table 4 crosses renaming switches with
 * benchmarks. Each grid cell is one independent core::Paragraph::analyze
 * run. The engine is the one-shot front end of the repo's single runner:
 * it splices cells already done from a resume journal, readies the
 * remaining inputs once (serially: a simulated input's program is
 * compiled, a `.ptrc`'s decode pool opened; TraceRepository), then
 * submits the pending cells as
 * one batch to a SweepScheduler built from its options and waits. The
 * scheduler cuts the batch trace-major into fused groups — each worker's
 * share of the batch, capped by Options::groupSize (0 = the share
 * itself) and by Options::groupMemoryBudget — and runs each group as a
 * single block-major pass over the trace (core::analyzeManyGuarded), so
 * the trace is produced or walked once per group instead of once per
 * cell: a simulated input is simulated, and a `.ptrz` decoded, inline on
 * each pass's own worker; a `.ptrc` is walked in place in its mapping. Every core::Paragraph is thread-private, so workers
 * share no mutable analysis state. Results are stored by grid position,
 * making sweep output independent of worker count, grouping, and
 * completion order (a tested invariant).
 *
 * Cells are fault-isolated: a cell whose input or analysis throws is
 * recorded as SweepCell::Status::Failed with its error text, and the rest
 * of the grid still runs — at the paper's hours-per-point scale, one bad
 * benchmark must not void a night of compute. Fusion never weakens that
 * isolation: a cell whose engine throws mid-group is demoted to a solo
 * re-run through the ordinary per-cell attempts loop (the demotion itself
 * consumes no attempt), so retries, journaling, and resume semantics are
 * byte-identical to an ungrouped sweep. Failed attempts can be retried
 * (Options::maxRetries), runaway cells cut off by a cooperative per-cell
 * deadline (Options::cellDeadlineSeconds), and completed cells journaled
 * to a JSONL checkpoint file (Options::journalPath) as they finish, so an
 * interrupted sweep resumes without redoing finished work.
 */

#ifndef PARAGRAPH_ENGINE_SWEEP_HPP
#define PARAGRAPH_ENGINE_SWEEP_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/paragraph.hpp"
#include "engine/trace_repository.hpp"

namespace paragraph {
namespace engine {

struct JournalData;

/** One grid cell: analyze @p input under @p config. */
struct SweepJob
{
    std::string input;          ///< TraceRepository input spec
    core::AnalysisConfig config;
    std::string configLabel;    ///< short axis label, e.g. "window=64"
    size_t inputIndex = 0;      ///< position on the input axis
    size_t configIndex = 0;     ///< position on the config axis
};

/** One completed cell. */
struct SweepCell
{
    /**
     * Ok: analysis ran to completion and `result` is valid.
     * Failed: every attempt threw; `errorMessage` holds the last error and
     *         `result` is empty.
     * Skipped: satisfied from a resume journal or a result store without
     *          re-running; `journalText` (a journal entry) or `wireText`
     *          (a store hit) holds the stored cell JSON, and `result` is
     *          empty.
     */
    enum class Status { Ok, Failed, Skipped };

    SweepJob job;
    core::AnalysisResult result;

    Status status = Status::Ok;

    /** Last error text; only meaningful when status == Failed. */
    std::string errorMessage;

    /** Analysis attempts consumed (1 unless retries were needed). */
    unsigned attempts = 1;

    /** Pre-rendered cell JSON from the journal, as the document holds it
     *  (status == Skipped only); its head is rendered again from `job`. */
    std::string journalText;

    /** Pre-rendered cell JSON from a result store in wire form: escaped
     *  as the inside of a JSON string literal, exactly as the store line
     *  and a daemon response hold it, and shared with the store, which
     *  may evict its own reference meanwhile (status == Skipped only;
     *  takes precedence over `journalText`). */
    std::shared_ptr<const std::string> wireText;

    /** Wall-clock seconds for this cell's analysis alone. */
    double wallSeconds = 0.0;

    /** Seconds this cell's pass spent fetching trace records: on the
     *  simulator or the `.ptrz` decode (a pass runs either inline, on its
     *  own worker), or on a `.ptrc` decode pool's block checks (near zero
     *  when the pool checked every block in its payload checksum pass,
     *  which SweepResult::captureSeconds times). Every cell of a fused
     *  group waited for the same fetches, so each carries the whole
     *  pass's decode. */
    double decodeSeconds = 0.0;

    /** Seconds in this cell's own engine: wallSeconds less decodeSeconds
     *  for a solo pass; for a fused group's cell, whose wallSeconds is its
     *  engine time alone, all of wallSeconds. */
    double analyzeSeconds = 0.0;

    /** Analysis throughput of this cell, in million instructions/sec. */
    double minstrPerSec = 0.0;

    bool ok() const { return status != Status::Failed; }
};

/** A finished sweep: cells in grid order plus aggregate bookkeeping. */
struct SweepResult
{
    std::vector<SweepCell> cells;

    /** Cells whose every attempt failed (error or deadline). */
    size_t cellsFailed = 0;

    /** Cells satisfied from the resume journal without re-running. */
    size_t cellsSkipped = 0;

    /** Worker threads the sweep ran on. */
    unsigned jobs = 0;

    /** Wall-clock seconds for the whole sweep (input set-up + analyses). */
    double wallSeconds = 0.0;

    /** Of which, seconds spent readying the inputs (serial, paid once):
     *  compiles of simulated inputs and the decode pools of `.ptrc` files
     *  (map, payload checksum and block checks). */
    double captureSeconds = 0.0;

    /** Total instructions analyzed across all cells. */
    uint64_t totalInstructions = 0;

    /** Fused groups the pending cells were scheduled as (passes over the
     *  inputs, before any mid-group fault demotes cells to solo). */
    size_t fusedGroups = 0;

    /** Seconds the passes spent fetching trace records, each pass counted
     *  once however many cells shared it (SweepScheduler::decodeSeconds). */
    double decodeSeconds = 0.0;

    /** Aggregate throughput: totalInstructions / wallSeconds / 1e6. */
    double aggregateMinstrPerSec = 0.0;
};

/**
 * The cross product @p inputs × @p configs as jobs in input-major grid
 * order: job i*configs.size()+j holds inputs[i] under configs[j].
 * @p configLabels (optional, parallel to @p configs) labels each config
 * axis point; missing labels default to AnalysisConfig::describe().
 */
std::vector<SweepJob>
sweepGrid(const std::vector<std::string> &inputs,
          const std::vector<core::AnalysisConfig> &configs,
          const std::vector<std::string> &configLabels = {});

/**
 * Progress observer, called (serialized) after each cell completes:
 * cells done, cells total, aggregate million instructions/sec so far.
 * A throwing observer is disabled after its first throw (with a warning);
 * it can never abort the sweep.
 */
using SweepProgressFn =
    std::function<void(size_t done, size_t total, double minstrPerSec)>;

/**
 * How the runner schedules and executes cells: SweepScheduler::Options,
 * which SweepEngine::Options extends with its grid-level settings.
 */
struct SchedulerOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /** Most cells fused into one pass over a shared trace (always clamped
     *  by groupMemoryBudget); 1 = every cell is its own pass; 0 = auto,
     *  one pass per worker's share of a submission, ceil(batch cells /
     *  workers). A cap, not a fill: each group is sized when a worker
     *  peels it, to that share or to a worker's share of everything
     *  queued if that is more, and never past this cap
     *  (SweepScheduler::groupTarget), so a submission smaller than
     *  workers × groupSize spreads over the idle workers. The default
     *  keeps a pass wide enough to amortize the trace walk without
     *  letting one client's burst monopolize a worker. */
    unsigned groupSize = 8;

    /** Cap on the estimated live analysis state (windows, profiles, live
     *  wells) resident in one fused group; a group is cut early rather
     *  than exceed it. */
    size_t groupMemoryBudget = size_t(1) << 30;

    /** Re-run a failed cell up to this many extra times. Cancelled /
     *  deadline-expired attempts are final and never retried. */
    unsigned maxRetries = 0;

    /** Per-attempt cooperative deadline in seconds; a cell past it is cut
     *  off at the next cancellation checkpoint and marked Failed. 0 = no
     *  deadline. */
    double cellDeadlineSeconds = 0.0;

    /** Ignored: every cell runs the one fused pass. Split-and-patch
     *  sharding measured slower than that pass on the one shape it served
     *  (DESIGN §3.4); the field stays for callers built against it. */
    unsigned shards = 1;
};

class SweepEngine
{
  public:
    /** The scheduler's options plus the grid-level ones below. */
    struct Options : SchedulerOptions
    {
        /** A one-shot grid fuses nothing unless asked. */
        Options() { groupSize = 1; }

        /** Append one JSONL line per completed cell to this file (plus a
         *  header line when the file is new). Empty = no journal. */
        std::string journalPath;

        /** Include profile buckets in journaled cell JSON. Must match the
         *  profiles setting of the final report for resume splicing. */
        bool journalProfiles = true;

        /** Cells already completed in a previous run: matching ok entries
         *  are skipped and their journaled JSON reused. Not owned. */
        const JournalData *resume = nullptr;

        /** Optional progress observer (never called concurrently). */
        SweepProgressFn progress;
    };

    SweepEngine();
    explicit SweepEngine(Options opt);

    /** Worker threads run() will use. */
    unsigned jobs() const { return jobs_; }

    /** Run the full cross product @p inputs × @p configs; cells come back
     *  in sweepGrid() order. */
    SweepResult run(TraceRepository &repo,
                    const std::vector<std::string> &inputs,
                    const std::vector<core::AnalysisConfig> &configs,
                    const std::vector<std::string> &configLabels = {}) const;

    /** Run an explicit job list; cells come back in job order. */
    SweepResult runJobs(TraceRepository &repo,
                        std::vector<SweepJob> jobs) const;

  private:
    Options opt_;
    unsigned jobs_;
};

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_SWEEP_HPP
