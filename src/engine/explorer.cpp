#include "engine/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "support/panic.hpp"
#include "support/prng.hpp"
#include "support/string_utils.hpp"

namespace paragraph {
namespace engine {

namespace {

/** Bit width of @p v (0 -> 0): the integer log-cost of a sized resource. */
int
bitWidth(uint64_t v)
{
    int bits = 0;
    while (v) {
        ++bits;
        v >>= 1;
    }
    return bits;
}

int
renameRank(const core::AnalysisConfig &cfg)
{
    // Table 4 chain: none < regs < regs+stack < regs+stack+data.
    return (cfg.renameRegisters ? 1 : 0) + (cfg.renameStack ? 1 : 0) +
           (cfg.renameData ? 1 : 0);
}

/**
 * Position of a predictor in the mispredict-set inclusion order: a
 * predictor whose mispredict set contains another's places every firewall
 * the other places (and more), so its critical path is no shorter —
 * par is nondecreasing toward perfect. The three modeled/static
 * predictors share rank 1 but are pairwise incomparable (their mispredict
 * sets are not nested).
 */
int
predictorUpRank(core::PredictorKind kind)
{
    switch (kind) {
      case core::PredictorKind::Perfect:
        return 2;
      case core::PredictorKind::AlwaysWrong:
        return 0;
      default:
        return 1;
    }
}

/** Effective window size for ordering (0 = unlimited sorts above all). */
uint64_t
windowRank(uint64_t window)
{
    return window == 0 ? std::numeric_limits<uint64_t>::max() : window;
}

/** SplitMix64 of @p x: deterministic tie-break hashing. */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/**
 * Does the model prove par(a) <= par(b)? When yes and @p axes is given,
 * append the names of the axes where the two configs differ. The sound
 * (default) model only accepts moves backed by an oracle theorem; the
 * mutation-audit seam flips individual relations into their unsound
 * mirrors.
 *
 * The window/rename/predictor theorems are *pointwise*: they show every
 * op places at the same or a later level, and that induction only
 * closes when ops place exactly at their issue level — i.e. with
 * unlimited FUs. Under a finite FU limit the greedy throttle admits
 * Graham-style scheduling anomalies (displacing one op later frees its
 * level for a later op, which can shorten the critical path), so a
 * larger window can *lower* parallelism. Those axes therefore only
 * bound toward configs whose FUs are unlimited; the proof chains
 * a -> (a with unlimited FUs) -> axis steps at unlimited FUs -> b.
 * Relaxing a finite FU limit itself is pointwise-sound under any other
 * settings (placements only move later), so the pure FU move stays.
 */
bool
boundLeq(const core::AnalysisConfig &a, const core::AnalysisConfig &b,
         const ExploreModel &model, std::vector<std::string> *axes)
{
    bool movedNonFu = false;
    if (windowRank(a.windowSize) != windowRank(b.windowSize)) {
        bool up = windowRank(a.windowSize) < windowRank(b.windowSize);
        if (up != model.windowLarger)
            return false;
        movedNonFu = true;
        if (axes)
            axes->push_back("window");
    }
    if (renameRank(a) != renameRank(b)) {
        bool up = renameRank(a) < renameRank(b);
        if (up != model.renameMore)
            return false;
        movedNonFu = true;
        if (axes)
            axes->push_back("rename");
    }
    if (a.sysCallsStall != b.sysCallsStall) {
        if (model.syscallStratum)
            return false; // placed ops differ: no theorem either way
        if (!a.sysCallsStall)
            return false; // flipped mirror claims par(stall) <= par(ignore)
        movedNonFu = true;
        if (axes)
            axes->push_back("syscalls");
    }
    if (a.branchPredictor != b.branchPredictor) {
        int ra = predictorUpRank(a.branchPredictor);
        int rb = predictorUpRank(b.branchPredictor);
        if (ra == rb)
            return false; // taken/nottaken/bimodal are incomparable
        bool up = ra < rb;
        if (up != model.predictorBetter)
            return false;
        movedNonFu = true;
        if (axes)
            axes->push_back("predictor");
    }
    if (a.totalFuLimit != b.totalFuLimit) {
        // Only the limited-vs-unlimited comparison is a proven theorem;
        // greedy placement under two different finite limits is not.
        bool toUnlimited = b.totalFuLimit == 0;
        bool fromUnlimited = a.totalFuLimit == 0;
        bool up = toUnlimited && !fromUnlimited;
        bool down = fromUnlimited && !toUnlimited;
        if (model.fuUnlimited ? !up : !down)
            return false;
        if (axes)
            axes->push_back("fus");
    }
    // Anomaly gate (see above): any non-FU move must land on an
    // unlimited-FU bound, or the pointwise induction does not close.
    if (movedNonFu && b.totalFuLimit != 0)
        return false;
    return true;
}

/** One grid slot of one trace during exploration. */
struct Slot
{
    enum class State { Unknown, Scheduled, Measured, Pruned, Failed };
    State state = State::Unknown;
    bool ok = false;  ///< Measured and usable (status ok)
    double par = 0.0; ///< available parallelism (Measured && ok)
};

struct Bracket
{
    size_t chain = 0; ///< index into TraceState::chains
    size_t lo = 0;    ///< positions within the chain
    size_t hi = 0;
};

struct TraceState
{
    std::string input;
    size_t inputIndex = 0;
    std::vector<Slot> slots;
    std::vector<SweepCell> cells; ///< filled for Measured/Failed slots
    std::vector<ExplorePruned> pruned;
    std::vector<std::vector<size_t>> chains; ///< window chains per stratum
    std::vector<Bracket> brackets;
    std::vector<size_t> scheduled; ///< config indices for this rung
};

} // namespace

int
exploreCost(const core::AnalysisConfig &cfg)
{
    int windowCost =
        cfg.windowSize == 0 ? 64 : bitWidth(cfg.windowSize);
    int fuCost = cfg.totalFuLimit == 0 ? 32 : bitWidth(cfg.totalFuLimit);
    int renameCost = 2 * renameRank(cfg);
    int predictorCost = 0;
    switch (cfg.branchPredictor) {
      case core::PredictorKind::Perfect:
        predictorCost = 8;
        break;
      case core::PredictorKind::Bimodal:
        predictorCost = 2;
        break;
      case core::PredictorKind::AlwaysTaken:
      case core::PredictorKind::NeverTaken:
        predictorCost = 1;
        break;
      case core::PredictorKind::AlwaysWrong:
        predictorCost = 0;
        break;
    }
    return windowCost + fuCost + renameCost + predictorCost;
}

namespace {

/** Where a store-served cell's stored text holds @p field (a document
 *  form anchor such as `"status": `) or, for a wire text, its escaped
 *  twin @p wireField; nullptr when it has neither. */
const char *
storedField(const SweepCell &cell, std::string_view field,
            std::string_view wireField)
{
    const std::string &text =
        cell.wireText ? *cell.wireText : cell.journalText;
    const std::string_view anchor = cell.wireText ? wireField : field;
    const size_t at = text.find(anchor);
    return at == std::string::npos ? nullptr
                                   : text.c_str() + at + anchor.size();
}

} // namespace

bool
exploreCellOk(const SweepCell &cell)
{
    if (cell.status == SweepCell::Status::Ok)
        return true;
    if (cell.status == SweepCell::Status::Skipped)
        return storedField(cell, "\"status\": \"ok\"",
                           "\\\"status\\\": \\\"ok\\\"") != nullptr;
    return false;
}

double
exploreCellParallelism(const SweepCell &cell)
{
    if (cell.status == SweepCell::Status::Ok)
        return cell.result.availableParallelism;
    if (cell.status == SweepCell::Status::Skipped) {
        // Store-served cells carry their rendered JSON; jsonDouble emits
        // the shortest round-trip form, so strtod recovers the exact
        // double a fresh analysis would report. A number holds no byte
        // that escaping changes, so a wire text reads the same.
        if (const char *value =
                storedField(cell, "\"available_parallelism\": ",
                            "\\\"available_parallelism\\\": "))
            return std::strtod(value, nullptr);
    }
    return 0.0;
}

std::vector<size_t>
paretoFrontier(const std::vector<int> &costs, const std::vector<double> &pars,
               const std::vector<bool> &ok)
{
    PARA_ASSERT(costs.size() == pars.size() && costs.size() == ok.size());
    std::vector<size_t> frontier;
    for (size_t i = 0; i < costs.size(); ++i) {
        if (!ok[i])
            continue;
        bool dominated = false;
        for (size_t j = 0; j < costs.size() && !dominated; ++j) {
            if (j == i || !ok[j])
                continue;
            dominated = costs[j] <= costs[i] && pars[j] >= pars[i] &&
                        (costs[j] < costs[i] || pars[j] > pars[i]);
        }
        if (!dominated)
            frontier.push_back(i);
    }
    std::sort(frontier.begin(), frontier.end(),
              [&](size_t a, size_t b) {
                  if (costs[a] != costs[b])
                      return costs[a] < costs[b];
                  return a < b;
              });
    return frontier;
}

ExploreResult
Explorer::explore(const std::vector<std::string> &inputs,
                  const SweepAxes &axes,
                  const std::vector<core::AnalysisConfig> &configs,
                  const std::vector<std::string> &labels,
                  const Runner &runner) const
{
    PARA_ASSERT(configs.size() == axes.points(),
                "configs must be the buildSweepConfigAxis expansion of axes");
    PARA_ASSERT(labels.size() == configs.size());
    auto started = std::chrono::steady_clock::now();

    const size_t C = configs.size();
    ExploreResult result;
    result.configs = configs;
    result.labels = labels;
    result.axes = axes;
    result.kneeTol = opt_.kneeTol;
    result.cellsTotal = inputs.size() * C;

    std::vector<int> cost(C);
    for (size_t j = 0; j < C; ++j)
        cost[j] = exploreCost(configs[j]);

    // Bound-maximal configs have no provable upper bound in this grid, so
    // they can never be pruned — measure them first: they are the bounds
    // everything else prunes against.
    std::vector<bool> maximal(C, true);
    for (size_t j = 0; j < C; ++j) {
        for (size_t k = 0; k < C && maximal[j]; ++k) {
            std::vector<std::string> moved;
            if (k != j && boundLeq(configs[j], configs[k], opt_.model,
                                   &moved) &&
                !moved.empty())
                maximal[j] = false;
        }
    }

    // Window chains: config indices per stratum (every non-window
    // coordinate fixed), ordered by effective window size. The config
    // cross product nests fus innermost, so the stratum of config j is
    // j % strideW where strideW = C / |windows|, and the chain is
    // {stratum + w * strideW}.
    const size_t strideW = C / axes.windows.size();
    std::vector<size_t> windowOrder(axes.windows.size());
    for (size_t w = 0; w < axes.windows.size(); ++w)
        windowOrder[w] = w;
    std::stable_sort(windowOrder.begin(), windowOrder.end(),
                     [&](size_t a, size_t b) {
                         return windowRank(axes.windows[a]) <
                                windowRank(axes.windows[b]);
                     });

    std::vector<TraceState> traces(inputs.size());
    for (size_t t = 0; t < inputs.size(); ++t) {
        TraceState &ts = traces[t];
        ts.input = inputs[t];
        ts.inputIndex = t;
        ts.slots.resize(C);
        ts.cells.resize(C);
        for (size_t s = 0; s < strideW; ++s) {
            std::vector<size_t> chain;
            chain.reserve(axes.windows.size());
            for (size_t w : windowOrder)
                chain.push_back(s + w * strideW);
            if (chain.size() >= 2) {
                Bracket b;
                b.chain = ts.chains.size();
                b.lo = 0;
                b.hi = chain.size() - 1;
                ts.brackets.push_back(b);
            }
            ts.chains.push_back(std::move(chain));
        }
    }

    // A cell is pruned only with a certificate: a measured bound proving
    // par(c) <= par(b), and a measured dominator beating that bound.
    bool sawApproximate = false;
    auto tryPrune = [&](TraceState &ts, size_t c) -> bool {
        size_t boundIdx = C;
        double boundPar = 0.0;
        std::vector<std::string> boundAxes;
        for (size_t m = 0; m < C; ++m) {
            const Slot &slot = ts.slots[m];
            if (slot.state != Slot::State::Measured || !slot.ok)
                continue;
            std::vector<std::string> moved;
            if (!boundLeq(configs[c], configs[m], opt_.model, &moved))
                continue;
            if (boundIdx == C || slot.par < boundPar) {
                boundIdx = m;
                boundPar = slot.par;
                boundAxes = std::move(moved);
            }
        }
        if (boundIdx == C)
            return false;
        size_t domIdx = C;
        bool approximate = false;
        for (size_t d = 0; d < C && domIdx == C; ++d) {
            const Slot &slot = ts.slots[d];
            if (slot.state != Slot::State::Measured || !slot.ok)
                continue;
            if (cost[d] > cost[c])
                continue;
            if (slot.par >= boundPar &&
                (cost[d] < cost[c] || slot.par > boundPar))
                domIdx = d;
        }
        if (domIdx == C && opt_.kneeTol > 0.0) {
            // Approximate mode: accept a dominator within the tolerance
            // of the bound (strictly cheaper, so the prune still cannot
            // manufacture a fake frontier tie).
            for (size_t d = 0; d < C && domIdx == C; ++d) {
                const Slot &slot = ts.slots[d];
                if (slot.state != Slot::State::Measured || !slot.ok)
                    continue;
                if (cost[d] < cost[c] && slot.par >= boundPar - opt_.kneeTol) {
                    domIdx = d;
                    approximate = true;
                }
            }
        }
        if (domIdx == C)
            return false;
        ExplorePruned pruned;
        pruned.configIndex = c;
        pruned.cost = cost[c];
        pruned.label = labels[c];
        pruned.certificate.axes = std::move(boundAxes);
        pruned.certificate.boundConfigIndex = boundIdx;
        pruned.certificate.boundParallelism = boundPar;
        pruned.certificate.dominatorConfigIndex = domIdx;
        pruned.certificate.dominatorParallelism = ts.slots[domIdx].par;
        pruned.certificate.dominatorCost = cost[domIdx];
        pruned.certificate.approximate = approximate;
        sawApproximate = sawApproximate || approximate;
        ts.pruned.push_back(std::move(pruned));
        ts.slots[c].state = Slot::State::Pruned;
        return true;
    };

    auto schedule = [&](TraceState &ts, size_t c) {
        if (ts.slots[c].state != Slot::State::Unknown)
            return;
        ts.slots[c].state = Slot::State::Scheduled;
        ts.scheduled.push_back(c);
    };

    // Bisection bookkeeping: shrink a bracket past resolved endpoints,
    // collapse it when the knee cannot lie inside, or split at the
    // midpoint. Returns brackets still waiting on measurements.
    auto refineBrackets = [&](TraceState &ts) {
        std::vector<Bracket> pending;
        std::vector<Bracket> work = std::move(ts.brackets);
        ts.brackets.clear();
        while (!work.empty()) {
            Bracket b = work.back();
            work.pop_back();
            const std::vector<size_t> &chain = ts.chains[b.chain];
            // Endpoints pruned by the generic sweep: the bracket narrows
            // to the unresolved core (its certificate already covers the
            // dropped end).
            while (b.lo < b.hi &&
                   ts.slots[chain[b.lo]].state == Slot::State::Pruned)
                ++b.lo;
            while (b.hi > b.lo &&
                   ts.slots[chain[b.hi]].state == Slot::State::Pruned)
                --b.hi;
            if (b.lo >= b.hi) {
                size_t c = chain[b.lo];
                if (ts.slots[c].state == Slot::State::Unknown &&
                    !tryPrune(ts, c))
                    schedule(ts, c);
                continue;
            }
            Slot &lo = ts.slots[chain[b.lo]];
            Slot &hi = ts.slots[chain[b.hi]];
            if (lo.state == Slot::State::Unknown)
                schedule(ts, chain[b.lo]);
            if (hi.state == Slot::State::Unknown)
                schedule(ts, chain[b.hi]);
            if (lo.state == Slot::State::Scheduled ||
                hi.state == Slot::State::Scheduled) {
                pending.push_back(b); // endpoints still in flight
                continue;
            }
            bool endpointsUsable = lo.state == Slot::State::Measured &&
                                   lo.ok &&
                                   hi.state == Slot::State::Measured &&
                                   hi.ok;
            bool collapsed =
                endpointsUsable && hi.par - lo.par <= opt_.kneeTol;
            if (collapsed || b.hi - b.lo <= 1) {
                // Plateau (or nothing between): interiors are dominated
                // through the hi bound — prune, measuring any stragglers
                // the cost model cannot strictly separate.
                for (size_t p = b.lo + 1; p < b.hi; ++p) {
                    size_t c = chain[p];
                    if (ts.slots[c].state == Slot::State::Unknown &&
                        !tryPrune(ts, c))
                        schedule(ts, c);
                }
                continue;
            }
            if (!endpointsUsable) {
                // A failed endpoint cannot anchor the knee search; fall
                // back to measuring the interval (pruning what it can).
                for (size_t p = b.lo + 1; p < b.hi; ++p) {
                    size_t c = chain[p];
                    if (ts.slots[c].state == Slot::State::Unknown &&
                        !tryPrune(ts, c))
                        schedule(ts, c);
                }
                continue;
            }
            // Split at the unresolved interior nearest the center; the
            // seeded bit breaks exact-distance ties deterministically.
            double center = (static_cast<double>(b.lo) + b.hi) / 2.0;
            size_t mid = b.hi;
            double best = -1.0;
            for (size_t p = b.lo + 1; p < b.hi; ++p) {
                if (ts.slots[chain[p]].state == Slot::State::Pruned ||
                    ts.slots[chain[p]].state == Slot::State::Failed)
                    continue;
                double dist =
                    center > p ? center - p : static_cast<double>(p) - center;
                if (mid == b.hi || dist < best ||
                    (dist == best &&
                     (mix64(opt_.seed ^ ts.inputIndex * 0x9e3779b9ULL ^
                            chain[p]) &
                      1))) {
                    mid = p;
                    best = dist;
                }
            }
            if (mid == b.hi)
                continue; // every interior already resolved
            if (ts.slots[chain[mid]].state == Slot::State::Unknown)
                schedule(ts, chain[mid]);
            Bracket lower{b.chain, b.lo, mid};
            Bracket upper{b.chain, mid, b.hi};
            pending.push_back(lower);
            pending.push_back(upper);
        }
        ts.brackets = std::move(pending);
    };

    // Successive halving over cells no bracket will resolve (window
    // chains of length one, e.g. a pure FU or predictor grid): measure
    // the most promising half each rung — bound-maximal corners first,
    // then cheapest (the strongest dominators), seeded tie-break.
    auto halve = [&](TraceState &ts) {
        if (!ts.scheduled.empty() || !ts.brackets.empty())
            return;
        std::vector<size_t> candidates;
        for (size_t c = 0; c < C; ++c)
            if (ts.slots[c].state == Slot::State::Unknown)
                candidates.push_back(c);
        if (candidates.empty())
            return;
        std::sort(candidates.begin(), candidates.end(),
                  [&](size_t a, size_t b) {
                      if (maximal[a] != maximal[b])
                          return static_cast<bool>(maximal[a]);
                      if (cost[a] != cost[b])
                          return cost[a] < cost[b];
                      uint64_t ha = mix64(opt_.seed ^
                                          (ts.inputIndex << 32) ^ a);
                      uint64_t hb = mix64(opt_.seed ^
                                          (ts.inputIndex << 32) ^ b);
                      if (ha != hb)
                          return ha < hb;
                      return a < b;
                  });
        size_t take = (candidates.size() + 1) / 2;
        for (size_t i = 0; i < take; ++i)
            schedule(ts, candidates[i]);
    };

    for (;;) {
        // Prune sweep first: every new measurement can retire cells that
        // would otherwise be scheduled below.
        for (TraceState &ts : traces)
            for (size_t c = 0; c < C; ++c)
                if (ts.slots[c].state == Slot::State::Unknown)
                    tryPrune(ts, c);
        for (TraceState &ts : traces) {
            // Refine to a fixpoint: a pass can split a bracket whose
            // midpoint is already measured without scheduling anything —
            // keep going until the pass schedules work or changes nothing.
            for (;;) {
                std::vector<Bracket> before = ts.brackets;
                refineBrackets(ts);
                bool same =
                    ts.brackets.size() == before.size() &&
                    std::equal(ts.brackets.begin(), ts.brackets.end(),
                               before.begin(),
                               [](const Bracket &a, const Bracket &b) {
                                   return a.chain == b.chain &&
                                          a.lo == b.lo && a.hi == b.hi;
                               });
                if (same || !ts.scheduled.empty())
                    break;
            }
            halve(ts);
        }

        std::vector<SweepJob> jobs;
        std::vector<std::pair<size_t, size_t>> jobSlot; // (trace, config)
        for (TraceState &ts : traces) {
            std::sort(ts.scheduled.begin(), ts.scheduled.end());
            for (size_t c : ts.scheduled) {
                SweepJob job;
                job.input = ts.input;
                job.config = configs[c];
                job.configLabel = labels[c];
                job.inputIndex = ts.inputIndex;
                job.configIndex = c;
                jobs.push_back(std::move(job));
                jobSlot.emplace_back(ts.inputIndex, c);
            }
            ts.scheduled.clear();
        }
        if (jobs.empty())
            break;

        ++result.rounds;
        std::vector<SweepCell> cells = runner(std::move(jobs));
        PARA_ASSERT(cells.size() == jobSlot.size(),
                    "explore runner must return one cell per job");
        for (size_t k = 0; k < cells.size(); ++k) {
            TraceState &ts = traces[jobSlot[k].first];
            size_t c = jobSlot[k].second;
            Slot &slot = ts.slots[c];
            slot.ok = exploreCellOk(cells[k]);
            slot.state = slot.ok ? Slot::State::Measured
                                 : Slot::State::Failed;
            if (slot.ok)
                slot.par = exploreCellParallelism(cells[k]);
            ts.cells[c] = std::move(cells[k]);
        }
    }

    result.exact = !sawApproximate;
    for (TraceState &ts : traces) {
        ExploreTrace out;
        out.input = ts.input;
        out.inputIndex = ts.inputIndex;
        std::vector<double> pars(C, 0.0);
        std::vector<bool> ok(C, false);
        for (size_t c = 0; c < C; ++c) {
            switch (ts.slots[c].state) {
              case Slot::State::Measured:
                ok[c] = ts.slots[c].ok;
                pars[c] = ts.slots[c].par;
                out.cells.push_back(std::move(ts.cells[c]));
                break;
              case Slot::State::Failed:
                ++out.cellsFailed;
                out.cells.push_back(std::move(ts.cells[c]));
                break;
              case Slot::State::Pruned:
                break;
              case Slot::State::Unknown:
              case Slot::State::Scheduled:
                PARA_PANIC("unresolved cell after exploration");
            }
        }
        out.frontier = paretoFrontier(cost, pars, ok);
        std::sort(ts.pruned.begin(), ts.pruned.end(),
                  [](const ExplorePruned &a, const ExplorePruned &b) {
                      return a.configIndex < b.configIndex;
                  });
        out.pruned = std::move(ts.pruned);
        result.cellsExecuted += out.cells.size();
        result.cellsPruned += out.pruned.size();
        result.cellsFailed += out.cellsFailed;
        result.traces.push_back(std::move(out));
    }
    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    return result;
}

namespace {

/** Measured-cell lookup for certificate verification. */
struct MeasuredMap
{
    std::vector<bool> ok;
    std::vector<double> par;

    explicit MeasuredMap(size_t configs)
        : ok(configs, false), par(configs, 0.0)
    {
    }
};

MeasuredMap
measuredOf(const ExploreTrace &trace, size_t configs)
{
    MeasuredMap map(configs);
    for (const SweepCell &cell : trace.cells) {
        size_t j = cell.job.configIndex;
        if (j < configs && exploreCellOk(cell)) {
            map.ok[j] = true;
            map.par[j] = exploreCellParallelism(cell);
        }
    }
    return map;
}

} // namespace

bool
verifyExploreCertificates(const ExploreResult &result, std::string &diag)
{
    const size_t C = result.configs.size();
    const ExploreModel sound; // certificates must hold under the theorems
    for (const ExploreTrace &trace : result.traces) {
        MeasuredMap measured = measuredOf(trace, C);
        for (const ExplorePruned &p : trace.pruned) {
            const ExploreCertificate &cert = p.certificate;
            if (p.configIndex >= C || cert.boundConfigIndex >= C ||
                cert.dominatorConfigIndex >= C) {
                diag = strFormat("trace %zu: certificate for cell %zu "
                                 "references out-of-grid indices",
                                 trace.inputIndex, p.configIndex);
                return false;
            }
            if (!measured.ok[cert.boundConfigIndex] ||
                !measured.ok[cert.dominatorConfigIndex]) {
                diag = strFormat("trace %zu cell %zu: bound %zu or "
                                 "dominator %zu is not a measured-ok cell",
                                 trace.inputIndex, p.configIndex,
                                 cert.boundConfigIndex,
                                 cert.dominatorConfigIndex);
                return false;
            }
            std::vector<std::string> axes;
            if (!boundLeq(result.configs[p.configIndex],
                          result.configs[cert.boundConfigIndex], sound,
                          &axes)) {
                diag = strFormat("trace %zu cell %zu: bound %zu is not "
                                 "reachable by sound monotone moves",
                                 trace.inputIndex, p.configIndex,
                                 cert.boundConfigIndex);
                return false;
            }
            if (axes != cert.axes) {
                diag = strFormat("trace %zu cell %zu: certificate axes do "
                                 "not match the actual bound move",
                                 trace.inputIndex, p.configIndex);
                return false;
            }
            double boundPar = measured.par[cert.boundConfigIndex];
            double domPar = measured.par[cert.dominatorConfigIndex];
            int cellCost = exploreCost(result.configs[p.configIndex]);
            int domCost =
                exploreCost(result.configs[cert.dominatorConfigIndex]);
            if (cert.boundParallelism != boundPar ||
                cert.dominatorParallelism != domPar ||
                cert.dominatorCost != domCost || p.cost != cellCost) {
                diag = strFormat("trace %zu cell %zu: certificate values "
                                 "disagree with the measured cells",
                                 trace.inputIndex, p.configIndex);
                return false;
            }
            bool dominated;
            if (cert.approximate) {
                dominated = result.kneeTol > 0.0 && domCost < cellCost &&
                            domPar >= boundPar - result.kneeTol;
            } else {
                dominated = domCost <= cellCost && domPar >= boundPar &&
                            (domCost < cellCost || domPar > boundPar);
            }
            if (!dominated) {
                diag = strFormat(
                    "trace %zu cell %zu: dominator %zu (cost %d, par %s) "
                    "does not dominate the bound (par %s)",
                    trace.inputIndex, p.configIndex,
                    cert.dominatorConfigIndex, domCost,
                    jsonDouble(domPar).c_str(),
                    jsonDouble(boundPar).c_str());
                return false;
            }
        }
    }
    return true;
}

bool
verifyExploreAgainstGrid(const ExploreResult &result, const SweepResult &grid,
                         const SweepJsonOptions &jsonOpt, std::string &diag)
{
    const size_t C = result.configs.size();
    if (grid.cells.size() != result.traces.size() * C) {
        diag = strFormat("grid has %zu cells; explore grid is %zu x %zu",
                         grid.cells.size(), result.traces.size(), C);
        return false;
    }
    if (!verifyExploreCertificates(result, diag))
        return false;

    std::vector<int> cost(C);
    for (size_t j = 0; j < C; ++j)
        cost[j] = exploreCost(result.configs[j]);

    for (const ExploreTrace &trace : result.traces) {
        const SweepCell *gridRow = &grid.cells[trace.inputIndex * C];
        std::vector<double> gridPar(C, 0.0);
        std::vector<bool> gridOk(C, false);
        for (size_t j = 0; j < C; ++j) {
            gridOk[j] = exploreCellOk(gridRow[j]);
            if (gridOk[j])
                gridPar[j] = exploreCellParallelism(gridRow[j]);
        }

        for (const SweepCell &cell : trace.cells) {
            size_t j = cell.job.configIndex;
            if (j >= C) {
                diag = strFormat("trace %zu: executed cell has config "
                                 "index %zu outside the grid",
                                 trace.inputIndex, j);
                return false;
            }
            std::string mine = cellToJson(cell, jsonOpt);
            std::string twin = cellToJson(gridRow[j], jsonOpt);
            if (mine != twin) {
                diag = strFormat("trace %zu config %zu: executed cell "
                                 "JSON differs from its grid twin",
                                 trace.inputIndex, j);
                return false;
            }
        }

        // Exact mode (no certificate leaned on the tolerance): dominance
        // through pruned cells is transitive to their measured
        // dominators, so the frontiers must agree cell-for-cell.
        if (result.exact) {
            std::vector<size_t> expect =
                paretoFrontier(cost, gridPar, gridOk);
            if (expect != trace.frontier) {
                diag = strFormat("trace %zu: explorer frontier (%zu cells) "
                                 "!= grid frontier (%zu cells)",
                                 trace.inputIndex, trace.frontier.size(),
                                 expect.size());
                return false;
            }
        }

        for (const ExplorePruned &p : trace.pruned) {
            if (!gridOk[p.configIndex])
                continue; // grid twin failed: nothing to compare
            double actual = gridPar[p.configIndex];
            double slack = p.certificate.approximate ? result.kneeTol : 0.0;
            // The theorem's claim, checked empirically: the pruned cell's
            // true parallelism may not exceed its recorded bound.
            if (actual > p.certificate.boundParallelism + slack) {
                diag = strFormat(
                    "trace %zu cell %zu: measured par %s exceeds its "
                    "certificate bound %s — unsound prune",
                    trace.inputIndex, p.configIndex,
                    jsonDouble(actual).c_str(),
                    jsonDouble(p.certificate.boundParallelism).c_str());
                return false;
            }
            double domPar = p.certificate.dominatorParallelism;
            int domCost = p.certificate.dominatorCost;
            bool dominated = domCost <= p.cost &&
                             domPar + slack >= actual &&
                             (domCost < p.cost || domPar > actual);
            if (!dominated) {
                diag = strFormat("trace %zu cell %zu: pruned cell is not "
                                 "actually dominated (par %s, cost %d)",
                                 trace.inputIndex, p.configIndex,
                                 jsonDouble(actual).c_str(), p.cost);
                return false;
            }
        }
    }
    return true;
}

namespace {

/** Render @p result into @p doc, settling it and calling @p flush (which
 *  returns false to stop) after each executed cell and at the end. */
template <class Flush>
bool
writeExplore(JsonDocOut &doc, const ExploreResult &result,
             const SweepJsonOptions &opt, Flush &&flush)
{
    JsonOut &os = doc.text();
    // Executed cells must stay byte-identical to their full-grid twins,
    // so cell fragments are rendered through the exact writer the sweep
    // document and the daemon's result store use — timing excluded, which
    // is the form grids are diffed in.
    SweepJsonOptions cellOpt = opt;
    cellOpt.timing = false;
    cellOpt.stats = false;

    os << "{\n";
    os << "  \"schema\": \"paragraph-explore-v1\",\n";
    os << "  \"knee_tol\": " << result.kneeTol << ",\n";
    os << "  \"exact\": " << (result.exact ? "true" : "false") << ",\n";
    os << "  \"inputs\": " << result.traces.size() << ",\n";
    os << "  \"configs\": " << result.configs.size() << ",\n";
    os << "  \"cells_total\": " << result.cellsTotal << ",\n";
    os << "  \"cells_executed\": " << result.cellsExecuted << ",\n";
    os << "  \"cells_pruned\": " << result.cellsPruned << ",\n";
    os << "  \"cells_failed\": " << result.cellsFailed << ",\n";
    os << "  \"rounds\": " << result.rounds << ",\n";
    if (opt.timing) {
        os << "  \"jobs\": " << result.jobs << ",\n";
        os << "  \"timing\": {\"wall_seconds\": " << result.wallSeconds
           << "},\n";
    }
    os << "  \"traces\": [";
    bool firstTrace = true;
    for (const ExploreTrace &trace : result.traces) {
        os << (firstTrace ? "" : ",") << "\n";
        firstTrace = false;
        os << "    {\n";
        os << "      \"input\": " << quoted(trace.input) << ",\n";
        os << "      \"input_index\": " << trace.inputIndex << ",\n";
        os << "      \"cells_total\": " << result.configs.size() << ",\n";
        os << "      \"cells_executed\": " << trace.cells.size() << ",\n";
        os << "      \"cells_pruned\": " << trace.pruned.size() << ",\n";
        os << "      \"cells_failed\": " << trace.cellsFailed << ",\n";
        os << "      \"cells\": [";
        bool first = true;
        for (const SweepCell &cell : trace.cells) {
            os << (first ? "" : ",") << "\n";
            appendCellJson(doc, cell, cellOpt);
            first = false;
            if (!flush())
                return false;
        }
        if (!first)
            os << "\n      ";
        os << "],\n";
        os << "      \"frontier\": [";
        first = true;
        for (size_t j : trace.frontier) {
            os << (first ? "" : ",") << "\n";
            os << "        {\"config_index\": " << j
               << ", \"label\": " << quoted(result.labels[j])
               << ", \"cost\": " << exploreCost(result.configs[j]);
            for (const SweepCell &cell : trace.cells) {
                if (cell.job.configIndex == j) {
                    os << ", \"parallelism\": "
                       << exploreCellParallelism(cell);
                    break;
                }
            }
            os << "}";
            first = false;
        }
        if (!first)
            os << "\n      ";
        os << "],\n";
        os << "      \"pruned\": [";
        first = true;
        for (const ExplorePruned &p : trace.pruned) {
            const ExploreCertificate &cert = p.certificate;
            os << (first ? "" : ",") << "\n";
            os << "        {\"config_index\": " << p.configIndex
               << ", \"label\": " << quoted(p.label)
               << ", \"cost\": " << p.cost << ",\n";
            os << "         \"certificate\": {\"axes\": [";
            for (size_t a = 0; a < cert.axes.size(); ++a)
                os << (a ? ", " : "") << quoted(cert.axes[a]);
            os << "], \"direction\": \"up\",\n";
            os << "          \"bound_config_index\": "
               << cert.boundConfigIndex << ", \"bound_parallelism\": "
               << cert.boundParallelism << ",\n";
            os << "          \"dominator_config_index\": "
               << cert.dominatorConfigIndex << ", \"dominator_cost\": "
               << cert.dominatorCost << ", \"dominator_parallelism\": "
               << cert.dominatorParallelism << ", \"approximate\": "
               << (cert.approximate ? "true" : "false") << "}}";
            first = false;
        }
        if (!first)
            os << "\n      ";
        os << "]\n";
        os << "    }";
    }
    if (!firstTrace)
        os << "\n  ";
    os << "]\n";
    os << "}\n";
    doc.settle();
    return flush();
}

} // namespace

bool
streamExploreJson(const ExploreResult &result, const SweepJsonOptions &opt,
                  const JsonSink &sink)
{
    std::string buf;
    JsonDocOut doc(buf, JsonForm::Document);
    return writeExplore(doc, result, opt, [&] {
        bool more = sink(buf);
        buf.clear();
        return more;
    });
}

void
appendExploreJson(std::string &out, const ExploreResult &result,
                  const SweepJsonOptions &opt, JsonForm form)
{
    JsonDocOut doc(out, form);
    writeExplore(doc, result, opt, [] { return true; });
}

std::string
exploreToJson(const ExploreResult &result, const SweepJsonOptions &opt)
{
    std::string out;
    appendExploreJson(out, result, opt, JsonForm::Document);
    return out;
}

} // namespace engine
} // namespace paragraph
