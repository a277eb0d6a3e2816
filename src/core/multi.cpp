#include "core/multi.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

namespace paragraph {
namespace core {

namespace {

/// Records per in-place slice of a capture. Big enough that each engine's
/// bulk loop amortizes its live-well re-warm across tens of thousands of
/// records; small enough (a few MB) that the slice stays in cache while
/// several engines walk it.
constexpr size_t fusedBlockRecords = 65536;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * The fused pass: one engine per config, fed block-major. The live list
 * holds the indices of engines still consuming; an engine leaves it when
 * it hits its instruction cap or throws. With stopOnEngineError the first
 * engine exception (e.g. CancelledError from a polled token) abandons the
 * pass; without it the exception is parked in the engine's outcome slot
 * and the siblings keep running.
 */
struct FusedPass
{
    std::vector<std::unique_ptr<Paragraph>> engines;
    std::vector<MultiOutcome> outcomes;
    std::vector<size_t> live;
    bool stopOnEngineError;

    FusedPass(const std::vector<AnalysisConfig> &configs, bool stop_on_error)
        : outcomes(configs.size()), stopOnEngineError(stop_on_error)
    {
        engines.reserve(configs.size());
        live.reserve(configs.size());
        for (size_t i = 0; i < configs.size(); ++i) {
            engines.push_back(std::make_unique<Paragraph>(configs[i]));
            live.push_back(i);
        }
    }

    /** Run every live engine's bulk loop over one shared block
     *  (engine-major: each live well stays cache-hot for the whole
     *  block). Cancel tokens are polled inside processAll. */
    void
    feed(const trace::TraceRecord *block, size_t n)
    {
        size_t k = 0;
        while (k < live.size()) {
            size_t i = live[k];
            auto t0 = std::chrono::steady_clock::now();
            try {
                engines[i]->processAll(block, n);
            } catch (...) {
                outcomes[i].error = std::current_exception();
                outcomes[i].engineSeconds += secondsSince(t0);
                live.erase(live.begin() + k);
                if (stopOnEngineError)
                    std::rethrow_exception(outcomes[i].error);
                continue;
            }
            outcomes[i].engineSeconds += secondsSince(t0);
            if (engines[i]->done())
                live.erase(live.begin() + k);
            else
                ++k;
        }
    }

    /** finish() every engine that didn't fail. */
    void
    finishAll()
    {
        for (size_t i = 0; i < engines.size(); ++i) {
            if (outcomes[i].error)
                continue;
            auto t0 = std::chrono::steady_clock::now();
            try {
                outcomes[i].result = engines[i]->finish();
            } catch (...) {
                outcomes[i].error = std::current_exception();
            }
            outcomes[i].engineSeconds += secondsSince(t0);
        }
    }
};

std::vector<MultiOutcome>
runFusedBlocks(trace::BlockSource &blocks,
               const std::vector<AnalysisConfig> &configs,
               bool stop_on_engine_error)
{
    FusedPass pass(configs, stop_on_engine_error);
    double decodeSeconds = 0.0;
    const trace::TraceRecord *block = nullptr;
    while (!pass.live.empty()) {
        auto t0 = std::chrono::steady_clock::now();
        size_t n = blocks.next(&block); // rethrows source errors
        decodeSeconds += secondsSince(t0);
        if (n == 0)
            break;
        pass.feed(block, n);
    }
    pass.finishAll();
    for (MultiOutcome &o : pass.outcomes)
        o.decodeSeconds = decodeSeconds;
    return std::move(pass.outcomes);
}

std::vector<MultiOutcome>
runFusedSource(trace::TraceSource &src,
               const std::vector<AnalysisConfig> &configs,
               bool stop_on_engine_error)
{
    if (configs.empty())
        return {};

    // Inline: the source fills one reused block on this thread, then every
    // live engine walks it. When every config has an instruction cap, the
    // (shared) source is not drained past the largest.
    trace::SourceBlocks blocks(src, trace::kSourceBlockRecords,
                               passRecordLimit(configs));
    return runFusedBlocks(blocks, configs, stop_on_engine_error);
}

} // namespace

uint64_t
passRecordLimit(const std::vector<AnalysisConfig> &configs)
{
    uint64_t limit = 0;
    for (const AnalysisConfig &cfg : configs) {
        if (cfg.maxInstructions == 0)
            return 0;
        limit = std::max<uint64_t>(limit, cfg.maxInstructions);
    }
    return limit;
}

std::vector<AnalysisResult>
analyzeMany(trace::TraceSource &src,
            const std::vector<AnalysisConfig> &configs)
{
    auto start = std::chrono::steady_clock::now();
    std::vector<MultiOutcome> outcomes =
        runFusedSource(src, configs, /*stop_on_engine_error=*/true);
    double seconds = secondsSince(start);

    std::vector<AnalysisResult> results;
    results.reserve(outcomes.size());
    for (MultiOutcome &o : outcomes) {
        o.result.analysisSeconds = seconds; // shared pass
        results.push_back(std::move(o.result));
    }
    return results;
}

std::vector<MultiOutcome>
analyzeManyGuarded(trace::TraceSource &src,
                   const std::vector<AnalysisConfig> &configs)
{
    return runFusedSource(src, configs, /*stop_on_engine_error=*/false);
}

std::vector<MultiOutcome>
analyzeManyGuarded(trace::BlockSource &blocks,
                   const std::vector<AnalysisConfig> &configs)
{
    return runFusedBlocks(blocks, configs, /*stop_on_engine_error=*/false);
}

std::vector<MultiOutcome>
analyzeManyGuarded(const trace::TraceBuffer &buffer,
                   const std::vector<AnalysisConfig> &configs)
{
    FusedPass pass(configs, /*stop_on_error=*/false);
    const trace::TraceRecord *data = buffer.records().data();
    const size_t total = buffer.records().size();
    for (size_t off = 0; off < total && !pass.live.empty();
         off += fusedBlockRecords) {
        pass.feed(data + off, std::min(fusedBlockRecords, total - off));
    }
    pass.finishAll();
    return std::move(pass.outcomes);
}

} // namespace core
} // namespace paragraph
