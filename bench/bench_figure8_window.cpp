// Figure 8: Window Size vs. Parallelism.
//
// Percent of total available parallelism exposed as a function of the
// instruction-window size (both axes logarithmic in the paper). Each data
// point is a full re-analysis of the trace at that window size, exactly as
// in the paper ("Each point in the graph represents a full DDG extraction
// and analysis ... and requires approximately 10 hours on a DECstation
// 3100" — here each point takes well under a second).
//
// The sweep runs on the parallel sweep engine: each benchmark's analog is
// simulated inside each fused pass, with no trace stored
// (engine::TraceRepository), and all window sizes are analyzed
// concurrently across a worker pool (engine::SweepEngine) — the paper paid
// ~10 hours per point for the same grid, serially.
//
// Traces are capped at 2,000,000 instructions per point so the whole sweep
// stays laptop-scale; the 100% reference is the unlimited-window analysis of
// the same capped trace.
#include <cstdio>
#include <iostream>

#include "bench/bench_common.hpp"
#include "engine/sweep.hpp"
#include "support/ascii_table.hpp"
#include "support/string_utils.hpp"

using namespace paragraph;

namespace {

constexpr uint64_t instructionCap = 2000000;

const uint64_t windowSizes[] = {1,    4,    16,    64,    256,
                                1024, 4096, 16384, 65536};

} // namespace

int
main()
{
    bench::banner("Figure 8: Window Size vs. Parallelism", "Figure 8");

    AsciiTable table;
    table.addColumn("Benchmark", AsciiTable::Align::Left);
    for (uint64_t w : windowSizes)
        table.addColumn("W=" + AsciiTable::withCommas(w));
    table.addColumn("Total Par");

    // One grid per benchmark: every window size plus the unlimited
    // reference, fused into passes across the worker pool.
    std::vector<core::AnalysisConfig> configs;
    for (uint64_t w : windowSizes) {
        core::AnalysisConfig cfg = core::AnalysisConfig::windowed(w);
        cfg.maxInstructions = instructionCap;
        configs.push_back(cfg);
    }
    core::AnalysisConfig ref_cfg =
        core::AnalysisConfig::dataflowConservative();
    ref_cfg.maxInstructions = instructionCap;
    configs.push_back(ref_cfg);

    engine::TraceRepository repo(engine::TraceRepository::Options{
        workloads::Scale::Full, instructionCap});
    engine::SweepEngine sweeper;

    auto &suite = workloads::WorkloadSuite::instance();
    for (const auto &wl : suite.all()) {
        engine::SweepResult sweep = sweeper.run(repo, {wl.name}, configs);
        double total = sweep.cells.back().result.availableParallelism;

        table.beginRow();
        table.cell(wl.name);
        for (size_t i = 0; i + 1 < sweep.cells.size(); ++i) {
            table.cell(strFormat(
                "%.2f%%",
                100.0 * sweep.cells[i].result.availableParallelism /
                    total));
        }
        table.cell(total, 2);
    }
    table.print(std::cout);

    std::printf(
        "\n(Each cell: percent of the unlimited-window available "
        "parallelism exposed at that\nwindow size.)\n\n"
        "Paper shape checks: ~100%% needs windows of 100,000+ instructions "
        "for the low-\nparallelism codes and is still not reached at 1M "
        "for matrix300 (3.8%% at W=1M in\nthe paper); yet *every* "
        "benchmark reaches modest parallelism (roughly 7-52 ops\nper "
        "cycle) by W=100, \"certainly enough to fuel the next several "
        "generations of\nsuperscalar processors\".\n\n");

    // The absolute ops/cycle at a small window, the paper's second claim.
    AsciiTable small;
    small.addColumn("Benchmark", AsciiTable::Align::Left);
    small.addColumn("Ops/cycle at W=64");
    small.addColumn("Ops/cycle at W=256");
    std::vector<core::AnalysisConfig> smallConfigs;
    for (uint64_t w : {64u, 256u}) {
        core::AnalysisConfig cfg = core::AnalysisConfig::windowed(w);
        cfg.maxInstructions = instructionCap;
        smallConfigs.push_back(cfg);
    }
    for (const auto &wl : suite.all()) {
        engine::SweepResult sweep =
            sweeper.run(repo, {wl.name}, smallConfigs);
        small.beginRow();
        small.cell(wl.name);
        small.cell(sweep.cells[0].result.availableParallelism, 2);
        small.cell(sweep.cells[1].result.availableParallelism, 2);
    }
    small.print(std::cout);
    return 0;
}
