// Table 4: SPEC Benchmarks under Different Renaming Conditions.
//
// Available parallelism with: no renaming, registers renamed, registers +
// stack renamed, and registers + all memory renamed. Conservative syscalls,
// unlimited window, no functional-unit limits — exactly the paper's setup.
//
// Runs on the parallel sweep engine: each benchmark's analog is simulated
// inside each fused pass (no trace is stored) and the four renaming
// conditions are analyzed concurrently across a worker pool.
#include <cstdio>
#include <iostream>

#include "bench/bench_common.hpp"
#include "engine/sweep.hpp"
#include "support/ascii_table.hpp"

using namespace paragraph;

int
main()
{
    bench::banner("Table 4: Available Parallelism under Different Renaming "
                  "Conditions",
                  "Table 4");

    AsciiTable table;
    table.addColumn("Benchmark", AsciiTable::Align::Left);
    table.addColumn("No Renaming");
    table.addColumn("Regs Renamed");
    table.addColumn("Regs/Stack Renamed");
    table.addColumn("Regs/Mem Renamed");

    const std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::noRenaming(),
        core::AnalysisConfig::regsRenamed(),
        core::AnalysisConfig::regsStackRenamed(),
        core::AnalysisConfig::regsMemRenamed(),
    };

    engine::TraceRepository repo;
    engine::SweepEngine sweeper;

    auto &suite = workloads::WorkloadSuite::instance();
    for (const auto &w : suite.all()) {
        engine::SweepResult sweep = sweeper.run(repo, {w.name}, configs);
        table.beginRow();
        table.cell(w.name);
        for (const engine::SweepCell &cell : sweep.cells)
            table.cell(cell.result.availableParallelism, 2);
    }
    table.print(std::cout);

    std::printf(
        "\nPaper rows (none / regs / regs+stack / regs+mem):\n"
        "  cc1        3.65 /    33.70 /    36.19 /    36.21\n"
        "  doduc      1.62 /    29.97 /   103.59 /   103.59\n"
        "  eqntott    3.67 /   532.69 /   538.87 /   782.52\n"
        "  espresso   2.53 /    42.46 /    42.49 /   132.97\n"
        "  fpppp      1.69 /    18.34 /    81.32 / 1,999.86\n"
        "  matrix300  2.05 / 1,235.74 / 23,302.59 / 23,302.60\n"
        "  nasker     2.58 /    50.84 /    50.85 /    50.97\n"
        "  spice2g6   1.85 /    39.67 /    57.36 /   111.45\n"
        "  tomcatv    1.52 /    66.63 /  5,772.38 /  5,806.13\n"
        "  xlisp      3.32 /    13.27 /    13.28 /    13.28\n"
        "Key signatures to compare: register renaming alone recovers most "
        "parallelism for\ncc1/nasker/xlisp; matrix300 and tomcatv need "
        "*stack* renaming (their arrays live\nin procedure frames); fpppp "
        "and espresso need full *memory* renaming.\n");
    return 0;
}
