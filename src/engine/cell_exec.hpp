/**
 * @file
 * Cell execution: the fault-isolated solo and fused analysis paths behind
 * SweepScheduler, the runner of every paragraph-sweep grid and every
 * paragraph-serve request.
 *
 * These functions own the semantics every cell shares — the per-cell
 * attempts loop, per-attempt deadline tokens, the rule that cancellation
 * is final while ordinary failures retry, and the fused-group demotion
 * rule (an engine that throws mid-group re-runs its cell solo without
 * consuming an attempt; a group-level input error demotes every member).
 * A solo attempt runs the same guarded fused pass a group runs, over one
 * config. Keeping all of it in one place is what makes a daemon-served
 * cell byte-identical to the same cell from a paragraph-sweep run.
 */

#ifndef PARAGRAPH_ENGINE_CELL_EXEC_HPP
#define PARAGRAPH_ENGINE_CELL_EXEC_HPP

#include <functional>
#include <vector>

#include "engine/scheduler.hpp"
#include "engine/sweep.hpp"
#include "engine/trace_repository.hpp"

namespace paragraph {
namespace engine {

/**
 * Run @p cell's attempts loop: guarded input + analysis, retries for
 * ordinary failures, no retry after cancellation. On return the cell's
 * status, result, attempts, error text, and timing are final. Never
 * throws.
 * @return seconds the attempts' passes spent fetching records.
 */
double runCellSolo(TraceRepository &repo, SweepCell &cell,
                   const SweepScheduler::Options &opt);

/**
 * Run @p cells — all carrying jobs for the same input — as one block-major
 * fused pass over the shared trace, applying the demotion rule for
 * failures. @p finish is invoked exactly once per cell with its position in
 * @p cells, after that cell's status is final (in group order). Never
 * throws.
 * @return seconds the passes run here spent fetching records: the group's
 *         pass once, however many cells shared it, plus the solo re-runs
 *         of demoted cells.
 */
double runFusedCells(TraceRepository &repo,
                     const std::vector<SweepCell *> &cells,
                     const SweepScheduler::Options &opt,
                     const std::function<void(size_t)> &finish);

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_CELL_EXEC_HPP
