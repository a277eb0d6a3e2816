// bench_sweep — throughput benchmark for trace-major fused sweeps.
//
// A (trace × config) sweep's cost model changed three times: fused
// grouping made a group of N configs pay one pass over the shared trace
// instead of N, the shared decode pool changed what a streamed trace
// costs — `.ptrc` files are mmapped and each 64K block is checked once
// across every consumer — and split-and-patch sharding lets a single
// (trace, config) cell split at arbitrary boundaries across threads and
// patch the exact solo result for EVERY config. This harness measures all
// of it on one trace: the same 8-config window × renaming grid is run
// solo (--group=1), mid-fused (--group=2), and fully fused (--group=0,
// auto) over three sources — a captured in-memory trace, a streamed
// `.ptrz` (decoded inline by each pass on its own worker), and a streamed
// pooled `.ptrc` — at 1 and 8 worker threads;
// then a single-config cell is run at --shard={1,2,4,8} over both the
// captured source (buffer split-and-patch) and the pooled stream (block
// split-and-patch). Every run's JSON document (timing off) is compared
// per source/grid slot — the matrix is only meaningful because every
// variant produces byte-identical analysis, every sharded point included.
//
// A final explore-vs-grid leg runs the adaptive explorer (--explore)
// against the full grid on a plateau-heavy window × rename axis: the explorer
// must reproduce the exact full-grid Pareto frontier (checked cell-for-
// cell with engine::verifyExploreAgainstGrid) while executing a fraction
// of the cells; the fraction and both wall times go into the summary and
// the frontier identity is asserted like identical_json.
//
// Results are written as `BENCH_sweep.json` — a stable, timestamped schema
// (`paragraph-bench-sweep-v4`) meant to be re-run and diffed across
// revisions so the perf trajectory of the sweep engine is tracked in-repo.
// The shard-scaling summary is reported, never asserted: on a 1-core
// runner the sharded legs cannot beat solo, and the numbers say so.
//
// Usage:
//   bench_sweep [options]
//     --input=NAME     workload captured as the benchmark trace
//                      (default: xlisp)
//     --max=N          instructions per cell / trace records (default:
//                      1,000,000)
//     --repeats=N      timed repetitions, best-of (default: 2)
//     --jobs=N         threaded leg's worker count (default: 8); the
//                      shard-scaling leg always runs shard={1,2,4,8}
//     --small          use the workload's reduced test input
//     --json           print the JSON document to stdout (suppresses table)
//     --out=FILE       also write the JSON to FILE
//                      (default: BENCH_sweep.json; --out= disables)
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/paragraph.hpp"
#include "engine/explorer.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_args.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "support/ascii_table.hpp"
#include "support/string_utils.hpp"
#include "trace/buffer.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"
#include "workloads/workload.hpp"

using namespace paragraph;

namespace {

struct Options
{
    std::string input = "xlisp";
    uint64_t maxInstructions = 1000000;
    unsigned repeats = 2;
    unsigned jobs = 8;
    bool small = false;
    bool jsonToStdout = false;
    std::string outPath = "BENCH_sweep.json";
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: bench_sweep [--input=NAME] [--max=N] [--repeats=N] "
                 "[--jobs=N]\n"
                 "                   [--small] [--json] [--out=FILE]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        int64_t n = 0;
        if (startsWith(arg, "--input=")) {
            opt.input = arg.substr(8);
            if (opt.input.empty())
                usage();
        } else if (startsWith(arg, "--max=") && parseInt(arg.substr(6), n) &&
                   n > 0) {
            opt.maxInstructions = static_cast<uint64_t>(n);
        } else if (startsWith(arg, "--repeats=") &&
                   parseInt(arg.substr(10), n) && n > 0) {
            opt.repeats = static_cast<unsigned>(n);
        } else if (startsWith(arg, "--jobs=") &&
                   parseInt(arg.substr(7), n) && n > 0) {
            opt.jobs = static_cast<unsigned>(n);
        } else if (arg == "--small") {
            opt.small = true;
        } else if (arg == "--json") {
            opt.jsonToStdout = true;
        } else if (startsWith(arg, "--out=")) {
            opt.outPath = arg.substr(6);
        } else {
            std::fprintf(stderr, "bench_sweep: bad argument '%s'\n",
                         arg.c_str());
            usage();
        }
    }
    return opt;
}

/** The acceptance grid: 8 configs = windows {inf,16,64,256} × renaming
 *  {all, none}, every cell capped at max_instructions. */
std::vector<core::AnalysisConfig>
makeConfigs(uint64_t max_instructions)
{
    std::vector<core::AnalysisConfig> configs;
    for (uint64_t w : {uint64_t{0}, uint64_t{16}, uint64_t{64},
                       uint64_t{256}}) {
        for (bool rename : {true, false}) {
            core::AnalysisConfig cfg =
                rename ? core::AnalysisConfig::dataflowConservative()
                       : core::AnalysisConfig::noRenaming();
            cfg.windowSize = w;
            cfg.maxInstructions = max_instructions;
            configs.push_back(cfg);
        }
    }
    return configs;
}

/** One timed matrix point: a whole sweep of the grid. */
struct Row
{
    std::string source; ///< "capture", "stream" (.ptrz) or "pooled" (.ptrc)
    unsigned jobs = 0;
    unsigned group = 0; ///< 0 = auto
    unsigned shard = 1; ///< split-and-patch segments per (trace, config) cell
    size_t cells = 0;
    uint64_t instructions = 0;
    double seconds = 0.0;
    double cellsPerSec = 0.0;
    double minstrPerSec = 0.0;
};

Row
measure(const std::string &path, const std::string &source, bool stream,
        unsigned jobs, unsigned group, unsigned shard,
        const std::vector<core::AnalysisConfig> &configs,
        const Options &opt, std::string &identityJson, bool &identical)
{
    engine::TraceRepository::Options repoOpt;
    repoOpt.maxRecords = opt.maxInstructions;
    repoOpt.streamFiles = stream;
    engine::TraceRepository repo(repoOpt);
    if (!stream)
        repo.get(path); // captured legs measure analysis, not decode

    engine::SweepEngine::Options engineOpt;
    engineOpt.jobs = jobs;
    engineOpt.groupSize = group;
    engineOpt.shards = shard;
    engine::SweepEngine sweeper(engineOpt);

    engine::SweepJsonOptions noTiming;
    noTiming.timing = false;

    Row row;
    row.source = source;
    row.jobs = jobs;
    row.group = group;
    row.shard = shard;
    row.seconds = std::numeric_limits<double>::infinity();
    for (unsigned r = 0; r < opt.repeats; ++r) {
        engine::SweepResult sweep = sweeper.run(repo, {path}, configs);
        row.cells = sweep.cells.size();
        row.instructions = sweep.totalInstructions;
        if (sweep.wallSeconds < row.seconds)
            row.seconds = sweep.wallSeconds;
        std::string doc = engine::sweepToJson(sweep, noTiming);
        if (identityJson.empty())
            identityJson = std::move(doc);
        else if (doc != identityJson)
            identical = false;
    }
    row.cellsPerSec = row.seconds > 0.0
                          ? static_cast<double>(row.cells) / row.seconds
                          : 0.0;
    row.minstrPerSec =
        row.seconds > 0.0
            ? static_cast<double>(row.instructions) / 1e6 / row.seconds
            : 0.0;
    return row;
}

/** The explore-vs-grid leg's measurements. */
struct ExploreLeg
{
    size_t cellsTotal = 0;
    size_t cellsExecuted = 0;
    size_t cellsPruned = 0;
    double gridSeconds = 0.0;
    double exploreSeconds = 0.0;
    bool identicalFrontier = false;
    std::string diag;
};

/**
 * Adaptive explorer vs the full grid over the captured trace. The axis is
 * deliberately plateau-heavy — a sparse window knee region followed by a
 * deep chain of windows at and beyond the instruction cap (which cannot
 * bind, so their cells equal the unlimited-window cell exactly) is
 * exactly the regime the explorer's knee bisection and dominance pruning
 * are built for — and the frontier identity is verified cell-for-cell
 * against the grid run. FUs stay unlimited: under a finite FU limit the
 * dominance order offers no window bounds (the Graham-anomaly gate in
 * engine/explorer.cpp), so those strata would simply be enumerated.
 */
ExploreLeg
measureExplore(const std::string &path, const Options &opt)
{
    engine::SweepArgs args;
    args.inputs = {path};
    args.windows = {1,         16,        256,       1024,      4096,
                    16384,     65536,     262144,    1u << 20u, 1u << 21u,
                    1u << 22u, 1u << 23u, 1u << 24u, 1u << 25u, 1u << 26u,
                    0};
    args.renames = {"none", "data"};
    args.maxInstructions = opt.maxInstructions;
    engine::SweepAxes axes = engine::defaultedSweepAxes(args);
    std::vector<core::AnalysisConfig> configs;
    std::vector<std::string> labels;
    ExploreLeg leg;
    if (!engine::buildSweepConfigAxis(args, configs, labels, leg.diag))
        return leg;

    engine::TraceRepository::Options repoOpt;
    repoOpt.maxRecords = opt.maxInstructions;
    engine::TraceRepository repo(repoOpt);
    repo.get(path);

    engine::SweepEngine::Options engineOpt;
    engineOpt.jobs = opt.jobs;
    engine::SweepEngine sweeper(engineOpt);

    leg.gridSeconds = std::numeric_limits<double>::infinity();
    engine::SweepResult grid;
    for (unsigned r = 0; r < opt.repeats; ++r) {
        engine::SweepResult sweep = sweeper.run(repo, {path}, configs,
                                                labels);
        if (sweep.wallSeconds < leg.gridSeconds)
            leg.gridSeconds = sweep.wallSeconds;
        grid = std::move(sweep); // deterministic: any repeat serves
    }

    engine::Explorer explorer; // exact mode, fixed default seed
    leg.exploreSeconds = std::numeric_limits<double>::infinity();
    engine::ExploreResult explored;
    for (unsigned r = 0; r < opt.repeats; ++r) {
        engine::ExploreResult result = explorer.explore(
            {path}, axes, configs, labels,
            [&](std::vector<engine::SweepJob> jobs) {
                return sweeper.runJobs(repo, std::move(jobs)).cells;
            });
        if (result.wallSeconds < leg.exploreSeconds)
            leg.exploreSeconds = result.wallSeconds;
        explored = std::move(result);
    }

    leg.cellsTotal = explored.cellsTotal;
    leg.cellsExecuted = explored.cellsExecuted;
    leg.cellsPruned = explored.cellsPruned;
    engine::SweepJsonOptions noTiming;
    noTiming.timing = false;
    leg.identicalFrontier =
        engine::verifyExploreAgainstGrid(explored, grid, noTiming, leg.diag);
    return leg;
}

std::string
utcTimestamp()
{
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    return strFormat("%04d-%02d-%02dT%02d:%02d:%02dZ", tm.tm_year + 1900,
                     tm.tm_mon + 1, tm.tm_mday, tm.tm_hour, tm.tm_min,
                     tm.tm_sec);
}

/** The matrix row for (source, jobs, group) at shard=1. */
const Row *
findRow(const std::vector<Row> &rows, const char *source, unsigned jobs,
        unsigned group)
{
    for (const Row &row : rows) {
        if (row.source == source && row.jobs == jobs &&
            row.group == group && row.shard == 1)
            return &row;
    }
    return nullptr;
}

/** The scaling-leg row for (source, shard): single config, jobs=1,
 *  group=1. */
const Row *
findShardRow(const std::vector<Row> &shardRows, const char *source,
             unsigned shard)
{
    for (const Row &row : shardRows) {
        if (row.source == source && row.shard == shard)
            return &row;
    }
    return nullptr;
}

/** BENCH_sweep.json, schema paragraph-bench-sweep-v4. */
void
writeJson(std::ostream &os, const Options &opt, size_t configs,
          const std::vector<Row> &rows, const std::vector<Row> &shardRows,
          unsigned maxShard, bool identical, const ExploreLeg &explore)
{
    os << "{\n"
       << "  \"schema\": \"paragraph-bench-sweep-v4\",\n"
       << "  \"timestamp\": " << engine::jsonString(utcTimestamp()) << ",\n"
       << "  \"input\": " << engine::jsonString(opt.input) << ",\n"
       << "  \"configs\": " << configs << ",\n"
       << "  \"max_instructions\": " << opt.maxInstructions << ",\n"
       << "  \"repeats\": " << opt.repeats << ",\n"
       << "  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        os << "    {\"source\": " << engine::jsonString(row.source)
           << ", \"jobs\": " << row.jobs << ", \"group\": " << row.group
           << ", \"shard\": " << row.shard
           << ", \"cells\": " << row.cells
           << ", \"instructions\": " << row.instructions
           << ", \"seconds\": " << engine::jsonDouble(row.seconds)
           << ", \"cells_per_sec\": " << engine::jsonDouble(row.cellsPerSec)
           << ", \"minstr_per_sec\": " << engine::jsonDouble(row.minstrPerSec)
           << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    const Row *solo1 = findRow(rows, "stream", 1, 1);
    const Row *fused1 = findRow(rows, "stream", 1, 0);
    const Row *soloN = findRow(rows, "stream", opt.jobs, 1);
    const Row *fusedN = findRow(rows, "stream", opt.jobs, 0);
    auto speedup = [](const Row *solo, const Row *fused) {
        return solo && fused && solo->minstrPerSec > 0.0
                   ? fused->minstrPerSec / solo->minstrPerSec
                   : 0.0;
    };
    const Row *pooledShard1 = findShardRow(shardRows, "pooled", 1);
    const Row *pooledShardN = findShardRow(shardRows, "pooled", maxShard);
    const Row *captureShard1 = findShardRow(shardRows, "capture", 1);
    const Row *captureShardN = findShardRow(shardRows, "capture", maxShard);
    double shardSpeedup = speedup(pooledShard1, pooledShardN);
    double captureShardSpeedup = speedup(captureShard1, captureShardN);
    os << "  ],\n"
       << "  \"summary\": {\n"
       << "    \"jobs1_solo_minstr_per_sec\": "
       << engine::jsonDouble(solo1 ? solo1->minstrPerSec : 0.0) << ",\n"
       << "    \"jobs1_fused_minstr_per_sec\": "
       << engine::jsonDouble(fused1 ? fused1->minstrPerSec : 0.0) << ",\n"
       << "    \"jobs1_fused_speedup\": "
       << engine::jsonDouble(speedup(solo1, fused1)) << ",\n"
       << "    \"jobs" << opt.jobs << "_solo_minstr_per_sec\": "
       << engine::jsonDouble(soloN ? soloN->minstrPerSec : 0.0) << ",\n"
       << "    \"jobs" << opt.jobs << "_fused_minstr_per_sec\": "
       << engine::jsonDouble(fusedN ? fusedN->minstrPerSec : 0.0) << ",\n"
       << "    \"jobs" << opt.jobs << "_fused_speedup\": "
       << engine::jsonDouble(speedup(soloN, fusedN)) << ",\n"
       // Single-trace scaling: ONE (trace, config) cell at
       // --shard={1,2,4,...} over the pooled stream (block
       // split-and-patch) and the captured buffer. The headline pair is
       // the pooled leg at shard=1 vs shard=max; efficiency is speedup /
       // shard_threads — machine-dependent, reported honestly (a 1-core
       // runner will show ~1/N), never asserted.
       << "    \"shard_threads\": " << maxShard << ",\n"
       << "    \"shard1_minstr_per_sec\": "
       << engine::jsonDouble(pooledShard1 ? pooledShard1->minstrPerSec : 0.0)
       << ",\n"
       << "    \"shardn_minstr_per_sec\": "
       << engine::jsonDouble(pooledShardN ? pooledShardN->minstrPerSec : 0.0)
       << ",\n"
       << "    \"shard_speedup\": " << engine::jsonDouble(shardSpeedup)
       << ",\n"
       << "    \"shard_scaling_efficiency\": "
       << engine::jsonDouble(maxShard > 0 ? shardSpeedup / maxShard : 0.0)
       << ",\n"
       << "    \"capture_shard_speedup\": "
       << engine::jsonDouble(captureShardSpeedup) << ",\n"
       // Explore-vs-grid: the fraction of cells the explorer had to run
       // is deterministic (seeded), so it IS asserted downstream; the
       // wall-time speedup is machine noise and only reported.
       << "    \"explore_cells_total\": " << explore.cellsTotal << ",\n"
       << "    \"explore_cells_executed\": " << explore.cellsExecuted
       << ",\n"
       << "    \"explore_cells_pruned\": " << explore.cellsPruned << ",\n"
       << "    \"explore_fraction_executed\": "
       << engine::jsonDouble(
              explore.cellsTotal
                  ? static_cast<double>(explore.cellsExecuted) /
                        static_cast<double>(explore.cellsTotal)
                  : 0.0)
       << ",\n"
       << "    \"explore_grid_seconds\": "
       << engine::jsonDouble(explore.gridSeconds) << ",\n"
       << "    \"explore_seconds\": "
       << engine::jsonDouble(explore.exploreSeconds) << ",\n"
       << "    \"explore_speedup\": "
       << engine::jsonDouble(explore.exploreSeconds > 0.0
                                 ? explore.gridSeconds /
                                       explore.exploreSeconds
                                 : 0.0)
       << ",\n"
       << "    \"identical_frontier\": "
       << (explore.identicalFrontier ? "true" : "false") << ",\n"
       << "    \"identical_json\": " << (identical ? "true" : "false")
       << "\n"
       << "  }\n"
       << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::vector<core::AnalysisConfig> configs =
        makeConfigs(opt.maxInstructions);

    // Capture the workload once and persist it both as a `.ptrz`
    // (compressed: private decoder per pass) and a `.ptrc` (raw: mmapped
    // into the shared decode pool), so every leg sweeps the very same
    // records.
    namespace fs = std::filesystem;
    std::string zpath =
        (fs::temp_directory_path() /
         strFormat("bench_sweep_%llu.ptrz",
                   static_cast<unsigned long long>(opt.maxInstructions)))
            .string();
    std::string cpath =
        (fs::temp_directory_path() /
         strFormat("bench_sweep_%llu.ptrc",
                   static_cast<unsigned long long>(opt.maxInstructions)))
            .string();
    {
        auto &suite = workloads::WorkloadSuite::instance();
        const workloads::Workload &w = suite.find(opt.input);
        auto src = suite.makeSource(w, opt.small ? workloads::Scale::Small
                                                 : workloads::Scale::Full);
        trace::TraceBuffer buffer;
        buffer.capture(*src, opt.maxInstructions);
        {
            trace::CompressedTraceWriter writer(zpath);
            trace::BufferSource replay(buffer, opt.input);
            writer.writeAll(replay);
            writer.close();
        }
        {
            trace::TraceFileWriter writer(cpath);
            trace::BufferSource replay(buffer, opt.input);
            writer.writeAll(replay);
            writer.close();
        }
    }

    // Identity slots: every run over the same (file, grid) must render a
    // byte-identical no-timing document — capture and pooled legs share the
    // `.ptrc` slot, so the pooled decode path is checked against the bulk
    // captured path too. The shard-scaling leg has its own single-config
    // slot shared across both sources and every shard count: sharded ==
    // unsharded is the whole point.
    std::map<std::string, std::string> identity;
    bool identical = true;

    struct Leg
    {
        const char *source;
        const std::string *path;
        bool stream;
    };
    const Leg legs[] = {{"capture", &cpath, false},
                        {"stream", &zpath, true},
                        {"pooled", &cpath, true}};

    std::vector<Row> rows;
    auto report = [&](const Row &row) {
        if (!opt.jsonToStdout) {
            std::fprintf(stderr,
                         "  %-8s jobs=%u group=%-4s shard=%-2u %7.2f "
                         "Minstr/s\n",
                         row.source.c_str(), row.jobs,
                         row.group ? std::to_string(row.group).c_str()
                                   : "auto",
                         row.shard, row.minstrPerSec);
        }
    };
    for (const Leg &leg : legs) {
        std::string &slot = identity[*leg.path + "#grid"];
        for (unsigned jobs : {1u, opt.jobs}) {
            for (unsigned group : {1u, 2u, 0u}) { // solo, mid-fused, auto
                rows.push_back(measure(*leg.path, leg.source, leg.stream,
                                       jobs, group, 1, configs, opt, slot,
                                       identical));
                report(rows.back());
            }
        }
    }

    // The single-trace scaling leg: ONE (trace, config) cell at
    // --shard={1,2,4,8} over the captured buffer and the pooled stream
    // (`.ptrz` cells have no block index, so they cannot shard). Both
    // sources sweep the same records and share one identity slot: every
    // point, sharded or not, must render the same document — byte-exact
    // split-and-patch is the whole point.
    std::vector<core::AnalysisConfig> oneConfig;
    {
        core::AnalysisConfig cfg = core::AnalysisConfig::dataflowConservative();
        cfg.maxInstructions = opt.maxInstructions;
        oneConfig.push_back(cfg);
    }
    constexpr unsigned kShardPoints[] = {1, 2, 4, 8};
    constexpr unsigned kMaxShard =
        kShardPoints[sizeof(kShardPoints) / sizeof(kShardPoints[0]) - 1];
    const Leg shardLegs[] = {{"capture", &cpath, false},
                             {"pooled", &cpath, true}};
    std::vector<Row> shardRows;
    std::string &shardSlot = identity[cpath + "#one"];
    for (const Leg &leg : shardLegs) {
        for (unsigned shard : kShardPoints) {
            shardRows.push_back(measure(*leg.path, leg.source, leg.stream, 1,
                                        1, shard, oneConfig, opt, shardSlot,
                                        identical));
            report(shardRows.back());
        }
    }
    rows.insert(rows.end(), shardRows.begin(), shardRows.end());

    // Explore-vs-grid over the captured trace.
    ExploreLeg explore = measureExplore(cpath, opt);
    if (!opt.jsonToStdout) {
        std::fprintf(stderr,
                     "  explore  %zu/%zu cells (%zu pruned), grid %.3fs "
                     "vs explore %.3fs\n",
                     explore.cellsExecuted, explore.cellsTotal,
                     explore.cellsPruned, explore.gridSeconds,
                     explore.exploreSeconds);
    }
    if (!explore.identicalFrontier && !explore.diag.empty())
        std::fprintf(stderr, "bench_sweep: explore verification: %s\n",
                     explore.diag.c_str());

    fs::remove(zpath);
    fs::remove(cpath);

    if (opt.jsonToStdout) {
        writeJson(std::cout, opt, configs.size(), rows, shardRows, kMaxShard,
                  identical, explore);
    } else {
        AsciiTable table;
        table.addColumn("Source", AsciiTable::Align::Left);
        table.addColumn("Jobs");
        table.addColumn("Group", AsciiTable::Align::Left);
        table.addColumn("Shard");
        table.addColumn("Cells");
        table.addColumn("Cells/s");
        table.addColumn("Minstr/s");
        for (const Row &row : rows) {
            table.beginRow();
            table.cell(row.source);
            table.cell(AsciiTable::withCommas(row.jobs));
            table.cell(row.group ? std::to_string(row.group)
                                 : std::string("auto"));
            table.cell(AsciiTable::withCommas(row.shard));
            table.cell(AsciiTable::withCommas(row.cells));
            table.cell(row.cellsPerSec, 2);
            table.cell(row.minstrPerSec, 2);
        }
        table.print(std::cout);
        const Row *solo1 = findRow(rows, "stream", 1, 1);
        const Row *fused1 = findRow(rows, "stream", 1, 0);
        if (solo1 && fused1 && solo1->minstrPerSec > 0.0) {
            std::printf("\nstream jobs=1 fused speedup: %.2fx   ",
                        fused1->minstrPerSec / solo1->minstrPerSec);
        }
        const Row *pooled1 = findShardRow(shardRows, "pooled", 1);
        const Row *pooledN = findShardRow(shardRows, "pooled", kMaxShard);
        if (pooled1 && pooledN && pooled1->minstrPerSec > 0.0) {
            std::printf("pooled shard=%u speedup: %.2fx   ", kMaxShard,
                        pooledN->minstrPerSec / pooled1->minstrPerSec);
        }
        std::printf("identical json: %s\n", identical ? "yes" : "NO");
        std::printf("explore: %zu/%zu cells, identical frontier: %s\n",
                    explore.cellsExecuted, explore.cellsTotal,
                    explore.identicalFrontier ? "yes" : "NO");
    }

    if (!opt.outPath.empty()) {
        std::ofstream out(opt.outPath);
        if (!out) {
            std::fprintf(stderr, "bench_sweep: cannot write '%s'\n",
                         opt.outPath.c_str());
            return 1;
        }
        writeJson(out, opt, configs.size(), rows, shardRows, kMaxShard,
                  identical, explore);
        if (!opt.jsonToStdout)
            std::printf("wrote %s\n", opt.outPath.c_str());
    }
    return identical && explore.identicalFrontier ? 0 : 1;
}
