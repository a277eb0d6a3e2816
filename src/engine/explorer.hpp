/**
 * @file
 * Explorer: adaptive design-space exploration with provably sound pruning.
 *
 * The paper's experiments enumerate (trace × config) grids, but most grid
 * cells carry no information: parallelism curves are monotone along the
 * window/rename/FU/predictor axes (the fuzz oracle's proven theorems,
 * src/fuzz/invariant_oracle.hpp) and flat past each benchmark's knee. The
 * Explorer exploits exactly those theorems — and nothing weaker — to find
 * the per-trace Pareto frontier of available parallelism vs. hardware cost
 * while measuring only a fraction of the grid:
 *
 *   - Window-knee bisection. Within each unlimited-FU stratum (fixed
 *     rename / syscall / predictor point) the window axis is a chain: par
 *     is nondecreasing in window size (window-monotonicity: W1 <= W2 =>
 *     cp(W1) >= cp(W2), and placed-ops-conservation: placedOps is window-
 *     invariant, so par = placedOps / cp is antitone in cp). The Explorer
 *     measures the chain endpoints, collapses a bracket whose endpoint
 *     parallelisms agree to within `kneeTol` (interior cells are then
 *     provably on the same plateau), and otherwise bisects toward the
 *     knee.
 *
 *   - Sound dominance pruning. A cell c is skipped only when a measured
 *     *bounding* cell b proves par(c) <= par(b) — b differs from c only
 *     along axes where a monotonicity theorem applies, each moved in the
 *     parallelism-nondecreasing direction — and a measured *dominating*
 *     cell d satisfies cost(d) <= cost(c), par(d) >= par(b), with at
 *     least one strict (so c cannot tie its way onto the frontier). The
 *     proof (axes, direction, bound, dominator) is recorded as a
 *     certificate in the output and can be re-verified from the measured
 *     cells alone.
 *
 *   - Successive halving. Unresolved cells compete for measurement in
 *     rungs: every rung re-runs the prune sweep, then measures the most
 *     promising half of the survivors (bound-maximal corners first — they
 *     provide the upper bounds everything else needs — then cheapest
 *     first, since cheap cells make the strongest dominators). Traces
 *     whose cells are all resolved drop out of later rungs, so the
 *     measurement budget concentrates on traces that are still
 *     undominated.
 *
 * Why the syscall axis never bounds: syscall-monotonicity proves
 * cp(stall) >= cp(ignore), but placedOps(stall) = placedOps(ignore) +
 * value-creating syscalls — placed ops are NOT conserved across that
 * axis, so neither direction of par = placedOps / cp is provable (a
 * syscall-only trace has par(stall) = 1 > par(ignore) = 0; a mixed trace
 * can order them the other way). Syscall points therefore partition the
 * grid into strata: a bound must match its cell's syscall coordinate
 * exactly. Likewise, finite FU limits only bound against fu=0: the proven
 * fu-monotonicity theorem compares limited against unlimited, and greedy
 * placement under two different finite limits is not covered by it.
 * Stronger still, the window/rename/predictor theorems themselves are
 * pointwise inductions that only close when ops place exactly at their
 * issue level — i.e. with unlimited FUs. Under a finite limit the greedy
 * throttle admits Graham-style scheduling anomalies (fuzzed
 * counterexample: a larger window lowering parallelism under fu=2), so
 * those axes only bound toward fu=0 configs (boundLeq's anomaly gate;
 * the proof chains through relaxing the FU limit first) and finite-FU
 * strata are enumerated, not pruned against each other.
 *
 * With kneeTol == 0 (the default) every prune is exact and the frontier
 * equals the full grid's frontier cell-for-cell — executed cells render
 * byte-identically to their grid twins (cellToJson), which is what the
 * soundness suite and the bench explore-vs-grid leg verify. kneeTol > 0
 * trades exactness for fewer measurements: brackets collapse early and
 * their certificates are marked approximate ("exact": false in the
 * document).
 */

#ifndef PARAGRAPH_ENGINE_EXPLORER_HPP
#define PARAGRAPH_ENGINE_EXPLORER_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/sweep.hpp"
#include "engine/sweep_args.hpp"
#include "engine/sweep_json.hpp"

namespace paragraph {
namespace engine {

/**
 * Deterministic scalar hardware cost of one config point: the "price" axis
 * of the Pareto frontier. Integer by construction so frontier comparisons
 * are exact:
 *
 *   window     bit-width of the window size (64 for unlimited)
 *   rename     2 per Table-4 step: none=0, regs=2, stack=4, data=6
 *   predictor  wrong/static=0, taken/nottaken=1, bimodal=2, perfect=8
 *   fus        bit-width of the FU limit (32 for unlimited)
 *
 * The syscall switch contributes nothing: it models an analysis
 * assumption, not hardware spent.
 */
int exploreCost(const core::AnalysisConfig &cfg);

/**
 * The oracle-to-pruner contract, as data: which monotone-bounding moves
 * the pruner may use, each backed by one proven fuzz-oracle property.
 * Flipping a flag replaces that relation with its unsound mirror — the
 * mutation-audit seam (tests/engine/explore_test.cpp) flips each one and
 * asserts the soundness suite catches the resulting bogus prunes. The
 * default-constructed model is the sound one; certificates are always
 * re-verified against the sound model regardless of what explored.
 */
struct ExploreModel
{
    /** par(c) <= par(c with a larger window)   [window-monotonicity +
     *  placed-ops-conservation]. Flipped: smaller windows bound. */
    bool windowLarger = true;

    /** par(c) <= par(c with more renaming)     [rename-monotonicity +
     *  conservation]. Flipped: less renaming bounds. */
    bool renameMore = true;

    /** par(c, finite fu) <= par(c, fu=0)       [fu-monotonicity +
     *  conservation; finite-vs-finite is NOT proven]. Flipped: fu=0 is
     *  bounded by finite limits. */
    bool fuUnlimited = true;

    /** par is monotone in mispredict-set inclusion: wrong ⊒ {bimodal,
     *  taken, nottaken} ⊒ perfect              [predictor-bound +
     *  conservation]. Flipped: the chain reverses. */
    bool predictorBetter = true;

    /** The syscall axis is a stratum boundary, never a bounding move
     *  (placed ops are not conserved across it). Flipped: stall is
     *  bounded by ignore. */
    bool syscallStratum = true;
};

/** The recorded proof that a skipped cell is dominated. */
struct ExploreCertificate
{
    /** Axes the bounding move crosses ("window", "rename", "predictor",
     *  "fus" — and "syscalls" only if the seam was flipped), each in the
     *  parallelism-nondecreasing direction. */
    std::vector<std::string> axes;

    size_t boundConfigIndex = 0;     ///< measured cell with par >= par(c)
    double boundParallelism = 0.0;
    size_t dominatorConfigIndex = 0; ///< measured cell beating the bound
    double dominatorParallelism = 0.0;
    int dominatorCost = 0;

    /** True when the prune leaned on kneeTol > 0 (par(d) >= bound - tol
     *  instead of >= bound): sound only up to the tolerance. */
    bool approximate = false;
};

/** One pruned (never-measured) cell with its proof. */
struct ExplorePruned
{
    size_t configIndex = 0;
    int cost = 0;
    std::string label;
    ExploreCertificate certificate;
};

/** Everything the Explorer learned about one trace. */
struct ExploreTrace
{
    std::string input;
    size_t inputIndex = 0;

    /** Executed cells in config-index order (Ok, Failed, or Skipped when
     *  a daemon served them from its result store). */
    std::vector<SweepCell> cells;

    /** Config indices of the Pareto-frontier cells, sorted by
     *  (cost, config index). Every entry is a measured-ok cell. */
    std::vector<size_t> frontier;

    /** Skipped cells, config-index order, each with its certificate. */
    std::vector<ExplorePruned> pruned;

    size_t cellsFailed = 0;
};

struct ExploreResult
{
    std::vector<ExploreTrace> traces;

    /** The grid's config axis (identical to buildSweepConfigAxis output:
     *  config indices below address into these). */
    std::vector<core::AnalysisConfig> configs;
    std::vector<std::string> labels;
    SweepAxes axes;

    double kneeTol = 0.0;
    bool exact = true; ///< no certificate leaned on the tolerance

    size_t cellsTotal = 0;
    size_t cellsExecuted = 0;
    size_t cellsPruned = 0;
    size_t cellsFailed = 0;
    size_t rounds = 0; ///< measurement rungs the exploration took

    double wallSeconds = 0.0;
    unsigned jobs = 0;
};

class Explorer
{
  public:
    struct Options
    {
        /** Bracket-collapse tolerance in parallelism units; 0 = exact. */
        double kneeTol = 0.0;

        /** Tie-break seed for rung ordering and midpoint selection.
         *  Callers thread support/test_seed.hpp's testSeed() through here
         *  so PARAGRAPH_TEST_SEED steers exploration deterministically;
         *  the frontier is seed-independent, the executed-cell set is
         *  deterministic per seed. */
        uint64_t seed = 0x70617261676f6eULL;

        /** Monotonicity relations the pruner may use (mutation-audit test
         *  seam; leave defaulted for sound exploration). */
        ExploreModel model;
    };

    /**
     * Measurement backend: run @p jobs and return their cells in job
     * order. The CLI wraps SweepEngine::runJobs; the daemon wraps its
     * standing scheduler plus the content-addressed result store (cached
     * cells come back Skipped with their stored JSON).
     */
    using Runner =
        std::function<std::vector<SweepCell>(std::vector<SweepJob>)>;

    Explorer() : opt_() {}
    explicit Explorer(Options opt) : opt_(opt) {}

    /**
     * Explore @p inputs × the grid spanned by @p axes. @p configs and
     * @p labels must be the buildSweepConfigAxis expansion of @p axes so
     * config indices mean the same thing they would in a full sweep.
     */
    ExploreResult explore(const std::vector<std::string> &inputs,
                          const SweepAxes &axes,
                          const std::vector<core::AnalysisConfig> &configs,
                          const std::vector<std::string> &labels,
                          const Runner &runner) const;

  private:
    Options opt_;
};

/** Measured-ok test for an executed cell (Ok, or store-served Skipped
 *  text, in either form, whose status is "ok"). */
bool exploreCellOk(const SweepCell &cell);

/** Available parallelism of a measured cell; store-served Skipped cells
 *  are parsed from their stored JSON (jsonDouble round-trips exactly, so
 *  the parsed value equals the fresh computation's bit-for-bit). */
double exploreCellParallelism(const SweepCell &cell);

/**
 * Pareto frontier over @p ok-flagged points: indices of every point no
 * other point strictly dominates (cost <=, par >=, one strict), sorted by
 * (cost, index). Shared by the Explorer, the soundness tests, and the
 * bench explore leg so "frontier of a full grid" means exactly one thing.
 */
std::vector<size_t> paretoFrontier(const std::vector<int> &costs,
                                   const std::vector<double> &pars,
                                   const std::vector<bool> &ok);

/**
 * Re-verify every certificate in @p result against the sound model and
 * the measured cells it names: the bound must be measured-ok and reachable
 * from the pruned cell by sound parallelism-nondecreasing moves, the
 * dominator measured-ok with cost(d) <= cost(c), par(d) >= bound (minus
 * kneeTol for approximate certificates), one strict. @return false with
 * @p diag naming the first bad certificate.
 */
bool verifyExploreCertificates(const ExploreResult &result,
                               std::string &diag);

/**
 * The ground-truth soundness check: @p grid must be the full
 * inputs × configs sweep of the same axes. Verifies (a) certificates
 * (verifyExploreCertificates), (b) every executed cell renders
 * byte-identically to its grid twin under @p jsonOpt, (c) the explorer's
 * frontier equals the grid's frontier, and (d) no pruned cell is actually
 * non-dominated in the grid (within kneeTol for approximate runs).
 * @return false with @p diag describing the first divergence.
 */
bool verifyExploreAgainstGrid(const ExploreResult &result,
                              const SweepResult &grid,
                              const SweepJsonOptions &jsonOpt,
                              std::string &diag);

/** @p result as a "paragraph-explore-v1" JSON document. Executed cells
 *  are embedded verbatim via appendCellJson (timing stripped), so each is
 *  byte-identical to its full-grid twin. */
std::string exploreToJson(const ExploreResult &result,
                          const SweepJsonOptions &opt);

/** Render exploreToJson's document into @p sink one executed cell at a
 *  time, as streamSweepJson does. @return false as soon as @p sink does. */
bool streamExploreJson(const ExploreResult &result,
                       const SweepJsonOptions &opt, const JsonSink &sink);

/** Append exploreToJson's document to @p out in @p form, as
 *  appendSweepJson does. */
void appendExploreJson(std::string &out, const ExploreResult &result,
                       const SweepJsonOptions &opt, JsonForm form);

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_EXPLORER_HPP
