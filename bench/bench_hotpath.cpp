// bench_hotpath — analyzer-throughput benchmark for the placement hot path.
//
// The paper's methodology is a single serial pass over up to 100M-instruction
// traces, so Minstr/s through Paragraph::process *is* the scaling axis: every
// grid cell of a sweep pays the full per-record placement cost again. This
// harness times the analyzer alone (traces are captured into memory first, so
// simulation cost is excluded) across representative configurations, on both
// record-at-a-time streaming (`analyze(TraceSource&)`) and bulk buffer
// iteration (`analyze(const TraceBuffer&)`).
//
// The `fetch` config is the first layer of that cost on its own: it walks
// the capture reading each record's kind bytes and ids, as the placement
// loop does, and places nothing; its ns/record beside a placement config's
// is the share of the hot path spent reading records of `record_bytes`.
// The `ptrz` config is the layer before it for a compressed trace: it
// decodes the capture's `.ptrz` encoding into 4K-record blocks, as a fused
// pass over a streamed `.ptrz` does (a `stream` row only).
//
// The `fused2` and `fused8` configs measure the shape a sweep runs: the
// 8-config perfbench grid (windows 0/16/64/256 x rename none/data) through
// analyzeManyGuarded, in passes of 2 configs (grid order, as a 4-worker
// sweep groups those 8 cells) and in one pass of all 8, each config
// collecting what a sweep cell does (the lifetime and sharing means, not
// the full distributions). The placement rows keep the full distributions
// of a `paragraph` run. The `stream` row
// feeds each pass 4K-record blocks, as a simulated or streamed input does;
// the `bulk` row walks the capture in place. Their `instructions` count
// cell-records (records x configs), so the ns/record column reads ns per
// cell-record. None of the fetch, ptrz and fused rows counts in the
// placement geomeans.
//
// Results are written as `BENCH_hotpath.json` — a stable, timestamped schema
// (`paragraph-bench-hotpath-v1`) meant to be re-run and diffed across
// revisions so the perf trajectory of the hot path is tracked in-repo.
//
// Usage:
//   bench_hotpath [options]
//     --inputs=a,b,c   workload names (default: xlisp,espresso,tomcatv)
//     --max=N          instructions per trace capture (default: 2,000,000)
//     --repeats=N      timed repetitions, best-of (default: 3)
//     --small          use each workload's reduced test input
//     --json           print the JSON document to stdout (suppresses table)
//     --out=FILE       also write the JSON to FILE
//                      (default: BENCH_hotpath.json; --out= disables)
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/multi.hpp"
#include "core/paragraph.hpp"
#include "engine/sweep_json.hpp"
#include "support/ascii_table.hpp"
#include "support/string_utils.hpp"
#include "trace/block_source.hpp"
#include "trace/buffer.hpp"
#include "trace/compressed_io.hpp"
#include "trace/last_use.hpp"
#include "workloads/workload.hpp"

#include <unistd.h>

using namespace paragraph;

namespace {

struct Options
{
    std::vector<std::string> inputs = {"xlisp", "espresso", "tomcatv"};
    std::vector<std::string> configs; ///< empty = all
    uint64_t maxInstructions = 2000000;
    unsigned repeats = 3;
    bool small = false;
    bool jsonToStdout = false;
    std::string outPath = "BENCH_hotpath.json";
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: bench_hotpath [--inputs=a,b,c] [--configs=a,b] "
                 "[--max=N] [--repeats=N]\n"
                 "                     [--small] [--json] [--out=FILE]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        int64_t n = 0;
        if (startsWith(arg, "--inputs=")) {
            opt.inputs.clear();
            for (const std::string &s : splitAndTrim(arg.substr(9), ','))
                if (!s.empty())
                    opt.inputs.push_back(s);
            if (opt.inputs.empty())
                usage();
        } else if (startsWith(arg, "--configs=")) {
            for (const std::string &s : splitAndTrim(arg.substr(10), ','))
                if (!s.empty())
                    opt.configs.push_back(s);
            if (opt.configs.empty())
                usage();
        } else if (startsWith(arg, "--max=") && parseInt(arg.substr(6), n) &&
                   n > 0) {
            opt.maxInstructions = static_cast<uint64_t>(n);
        } else if (startsWith(arg, "--repeats=") &&
                   parseInt(arg.substr(10), n) && n > 0) {
            opt.repeats = static_cast<unsigned>(n);
        } else if (arg == "--small") {
            opt.small = true;
        } else if (arg == "--json") {
            opt.jsonToStdout = true;
        } else if (startsWith(arg, "--out=")) {
            opt.outPath = arg.substr(6);
        } else {
            std::fprintf(stderr, "bench_hotpath: bad argument '%s'\n",
                         arg.c_str());
            usage();
        }
    }
    return opt;
}

/** One benchmark configuration point. */
struct BenchConfig
{
    std::string label;
    core::AnalysisConfig cfg;
    bool needsLastUse = false; ///< analyze the last-use-annotated capture
    bool fetchOnly = false;    ///< read the records, place nothing
    bool ptrzDecode = false;   ///< decode the capture's `.ptrz` encoding
    /** Non-empty: a fused row over these configs, passWidth per pass. */
    std::vector<core::AnalysisConfig> fused;
    size_t passWidth = 0;
};

/** Labels of the rows excluded from the placement geomeans: the record
 *  fetch, the `.ptrz` decode and the fused sweep passes. */
const char *const kFetchLabel = "fetch";
const char *const kPtrzLabel = "ptrz";
const char *const kFused2Label = "fused2";
const char *const kFused8Label = "fused8";

bool
isPlacementConfig(const std::string &label)
{
    return label != kFetchLabel && label != kPtrzLabel &&
           label != kFused2Label && label != kFused8Label;
}

/** The perfbench sweep grid, in grid order (window outer): windows
 *  0/16/64/256 x rename none/data, as a sweep runs its cells (without the
 *  full distributions). */
std::vector<core::AnalysisConfig>
sweepGrid(uint64_t max_instructions)
{
    std::vector<core::AnalysisConfig> grid;
    for (uint64_t window : {0, 16, 64, 256}) {
        for (bool renamed : {false, true}) {
            core::AnalysisConfig cfg =
                renamed ? core::AnalysisConfig::regsMemRenamed()
                        : core::AnalysisConfig::noRenaming();
            cfg.windowSize = window;
            cfg.maxInstructions = max_instructions;
            cfg.distributions = false;
            grid.push_back(cfg);
        }
    }
    return grid;
}

std::vector<BenchConfig>
makeConfigs(uint64_t max_instructions)
{
    std::vector<BenchConfig> configs;
    auto add = [&](const std::string &label, core::AnalysisConfig cfg,
                   bool last_use = false) {
        BenchConfig bc;
        bc.label = label;
        bc.cfg = cfg;
        bc.cfg.maxInstructions = max_instructions;
        bc.needsLastUse = last_use;
        configs.push_back(bc);
    };
    // Record fetch alone: the operand bytes every placement reads first.
    configs.emplace_back().label = kFetchLabel;
    configs.back().fetchOnly = true;
    // `.ptrz` decode alone: what a streamed compressed pass pays per block.
    configs.emplace_back().label = kPtrzLabel;
    configs.back().ptrzDecode = true;
    // The paper's default analysis: all renaming, unlimited window, perfect
    // prediction — the single-config analyze path.
    add("dataflow", core::AnalysisConfig::dataflowConservative());
    // Storage dependencies everywhere: every destination probes its
    // previous occupant.
    add("norename", core::AnalysisConfig::noRenaming());
    // Finite window: firewall bookkeeping on every record.
    add("window64", core::AnalysisConfig::windowed(64));
    // Realistic control flow: bimodal predictor + large window.
    {
        core::AnalysisConfig cfg = core::AnalysisConfig::windowed(1024);
        cfg.branchPredictor = core::PredictorKind::Bimodal;
        add("bimodal-w1k", cfg);
    }
    // Resource limits: the Figure 4 throttle on every placement.
    {
        core::AnalysisConfig cfg = core::AnalysisConfig::dataflowConservative();
        cfg.totalFuLimit = 64;
        add("fu64", cfg);
    }
    // Two-pass deadness: eviction work on the annotated trace.
    {
        core::AnalysisConfig cfg = core::AnalysisConfig::dataflowConservative();
        cfg.useLastUseEviction = true;
        add("lastuse", cfg, true);
    }
    // The sweep's shape: the perfbench grid in fused passes of 2 and of 8.
    for (size_t width : {size_t{2}, size_t{8}}) {
        BenchConfig bc;
        bc.label = width == 2 ? kFused2Label : kFused8Label;
        bc.fused = sweepGrid(max_instructions);
        bc.passWidth = width;
        configs.push_back(bc);
    }
    return configs;
}

/** One timed measurement. */
struct Row
{
    std::string input;
    std::string config;
    std::string path; ///< "stream" or "bulk"
    uint64_t instructions = 0;
    double seconds = 0.0;
    double minstrPerSec = 0.0;
};

/** Where each record-fetch walk leaves its sum, so it cannot be elided. */
volatile uint64_t fetchSink = 0;

/** Read @p n records' flags, kind bytes and ids the way the placement
 *  loop does, folding them into a value the compiler must compute. */
uint64_t
fetchRecords(const trace::TraceRecord *records, size_t n)
{
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i) {
        const trace::TraceRecord &rec = records[i];
        sum += rec.flags;
        for (int s = 0; s < rec.numSrcs; ++s)
            sum += trace::locationKey(rec.operandKinds[s], rec.operandIds[s]);
        if (rec.hasDest()) {
            sum += trace::locationKey(
                rec.operandKinds[trace::TraceRecord::destSlot],
                rec.operandIds[trace::TraceRecord::destSlot]);
        }
    }
    return sum;
}

/** One record-fetch walk over @p buffer: in place for the bulk path,
 *  through 256-record batches (as Paragraph::analyze streams) otherwise.
 *  @return the seconds it took. */
double
timeFetch(const std::string &path, const trace::TraceBuffer &buffer)
{
    auto start = std::chrono::steady_clock::now();
    uint64_t sum = 0;
    if (path == "bulk") {
        sum = fetchRecords(buffer.records().data(), buffer.size());
    } else {
        trace::BufferSource src(buffer);
        trace::TraceRecord batch[256];
        while (size_t n = src.nextBatch(batch, 256))
            sum += fetchRecords(batch, n);
    }
    fetchSink = sum;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Decode the `.ptrz` at @p file into 4K-record blocks, as a fused pass
 *  does. @return the seconds it took; @p records receives the count. */
double
timePtrzDecode(const std::string &file, uint64_t &records)
{
    trace::CompressedTraceReader reader(file);
    trace::SourceBlocks blocks(reader, trace::kSourceBlockRecords);
    const trace::TraceRecord *block = nullptr;
    records = 0;
    auto start = std::chrono::steady_clock::now();
    while (size_t n = blocks.next(&block))
        records += n;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Run @p bc's fused grid over @p buffer, pass by pass: from 4K-record
 *  blocks on the stream path, in place on the bulk path.
 *  @return the seconds it took. */
double
timeFused(const std::string &path, const trace::TraceBuffer &buffer,
          const BenchConfig &bc)
{
    std::vector<std::vector<core::AnalysisConfig>> passes;
    for (size_t first = 0; first < bc.fused.size(); first += bc.passWidth) {
        const size_t last = std::min(first + bc.passWidth, bc.fused.size());
        passes.emplace_back(bc.fused.begin() + static_cast<ptrdiff_t>(first),
                            bc.fused.begin() + static_cast<ptrdiff_t>(last));
    }
    auto start = std::chrono::steady_clock::now();
    for (const std::vector<core::AnalysisConfig> &pass : passes) {
        std::vector<core::MultiOutcome> outcomes;
        if (path == "bulk") {
            outcomes = core::analyzeManyGuarded(buffer, pass);
        } else {
            trace::BufferSource src(buffer);
            outcomes = core::analyzeManyGuarded(src, pass);
        }
        for (const core::MultiOutcome &o : outcomes) {
            if (o.error)
                std::rethrow_exception(o.error);
        }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

Row
measure(const std::string &input, const BenchConfig &bc,
        const std::string &path, const trace::TraceBuffer &buffer,
        unsigned repeats, const std::string &ptrzFile)
{
    Row row;
    row.input = input;
    row.config = bc.label;
    row.path = path;
    row.seconds = std::numeric_limits<double>::infinity();
    for (unsigned r = 0; r < repeats; ++r) {
        if (bc.fetchOnly) {
            row.instructions = buffer.size();
            row.seconds = std::min(row.seconds, timeFetch(path, buffer));
            continue;
        }
        if (bc.ptrzDecode) {
            row.seconds = std::min(
                row.seconds, timePtrzDecode(ptrzFile, row.instructions));
            continue;
        }
        if (!bc.fused.empty()) {
            row.instructions = buffer.size() * bc.fused.size();
            row.seconds = std::min(row.seconds, timeFused(path, buffer, bc));
            continue;
        }
        core::Paragraph analyzer(bc.cfg);
        core::AnalysisResult res;
        if (path == "bulk") {
            res = analyzer.analyze(buffer);
        } else {
            trace::BufferSource src(buffer, input);
            res = analyzer.analyze(src);
        }
        row.instructions = res.instructions;
        if (res.analysisSeconds < row.seconds)
            row.seconds = res.analysisSeconds;
    }
    row.minstrPerSec =
        row.seconds > 0.0
            ? static_cast<double>(row.instructions) / 1e6 / row.seconds
            : 0.0;
    return row;
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

double
geomean(const std::vector<Row> &rows, const std::string &path)
{
    double logSum = 0.0;
    size_t n = 0;
    for (const Row &row : rows) {
        if (row.path == path && isPlacementConfig(row.config) &&
            row.minstrPerSec > 0.0) {
            logSum += std::log(row.minstrPerSec);
            ++n;
        }
    }
    return n ? std::exp(logSum / static_cast<double>(n)) : 0.0;
}

/** BENCH_hotpath.json, schema paragraph-bench-hotpath-v1. */
void
writeJson(std::ostream &os, const Options &opt, const std::vector<Row> &rows)
{
    os << "{\n"
       << "  \"schema\": \"paragraph-bench-hotpath-v1\",\n"
       << "  \"timestamp\": " << engine::jsonString(utcTimestamp()) << ",\n"
       << "  \"max_instructions\": " << opt.maxInstructions << ",\n"
       << "  \"repeats\": " << opt.repeats << ",\n"
       << "  \"record_bytes\": " << sizeof(trace::TraceRecord) << ",\n"
       << "  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        os << "    {\"input\": " << engine::jsonString(row.input)
           << ", \"config\": " << engine::jsonString(row.config)
           << ", \"path\": " << engine::jsonString(row.path)
           << ", \"instructions\": " << row.instructions
           << ", \"seconds\": " << engine::jsonDouble(row.seconds)
           << ", \"minstr_per_sec\": " << engine::jsonDouble(row.minstrPerSec)
           << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"summary\": {\n"
       << "    \"stream_geomean_minstr_per_sec\": "
       << engine::jsonDouble(geomean(rows, "stream")) << ",\n"
       << "    \"bulk_geomean_minstr_per_sec\": "
       << engine::jsonDouble(geomean(rows, "bulk")) << "\n"
       << "  }\n"
       << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::vector<BenchConfig> configs = makeConfigs(opt.maxInstructions);
    if (!opt.configs.empty()) {
        std::vector<BenchConfig> picked;
        for (const std::string &want : opt.configs) {
            bool found = false;
            for (const BenchConfig &bc : configs) {
                if (bc.label == want) {
                    picked.push_back(bc);
                    found = true;
                }
            }
            if (!found) {
                std::fprintf(stderr, "bench_hotpath: unknown config '%s'\n",
                             want.c_str());
                return 2;
            }
        }
        configs = std::move(picked);
    }
    auto &suite = workloads::WorkloadSuite::instance();
    bool wantPtrz = false;
    for (const BenchConfig &bc : configs)
        wantPtrz = wantPtrz || bc.ptrzDecode;
    const std::string ptrzFile =
        (std::filesystem::temp_directory_path() /
         ("bench_hotpath_" + std::to_string(::getpid()) + ".ptrz"))
            .string();

    std::vector<Row> rows;
    for (const std::string &input : opt.inputs) {
        const workloads::Workload &w = suite.find(input);
        auto src = suite.makeSource(w, opt.small ? workloads::Scale::Small
                                                 : workloads::Scale::Full);
        trace::TraceBuffer buffer;
        buffer.capture(*src, opt.maxInstructions);

        trace::TraceBuffer annotated(buffer.records());
        trace::annotateLastUses(annotated);

        // The capture's `.ptrz` encoding, for the decode row.
        if (wantPtrz) {
            trace::CompressedTraceWriter writer(ptrzFile);
            for (const trace::TraceRecord &rec : buffer.records())
                writer.write(rec);
            writer.close();
        }

        for (const BenchConfig &bc : configs) {
            const trace::TraceBuffer &buf =
                bc.needsLastUse ? annotated : buffer;
            for (const char *path : {"stream", "bulk"}) {
                if (bc.ptrzDecode && std::string(path) == "bulk")
                    continue; // a decode is a stream by nature
                rows.push_back(
                    measure(input, bc, path, buf, opt.repeats, ptrzFile));
                if (!opt.jsonToStdout) {
                    const Row &row = rows.back();
                    std::fprintf(stderr, "  %-10s %-12s %-7s %7.2f Minstr/s\n",
                                 row.input.c_str(), row.config.c_str(),
                                 row.path.c_str(), row.minstrPerSec);
                }
            }
        }
    }
    if (wantPtrz)
        std::remove(ptrzFile.c_str());

    if (opt.jsonToStdout) {
        writeJson(std::cout, opt, rows);
    } else {
        AsciiTable table;
        table.addColumn("Input", AsciiTable::Align::Left);
        table.addColumn("Config", AsciiTable::Align::Left);
        table.addColumn("Path", AsciiTable::Align::Left);
        table.addColumn("Instructions");
        table.addColumn("Minstr/s");
        table.addColumn("ns/record");
        for (const Row &row : rows) {
            table.beginRow();
            table.cell(row.input);
            table.cell(row.config);
            table.cell(row.path);
            table.cell(AsciiTable::withCommas(row.instructions));
            table.cell(row.minstrPerSec, 2);
            table.cell(row.minstrPerSec > 0.0 ? 1e3 / row.minstrPerSec : 0.0,
                       2);
        }
        table.print(std::cout);
        std::printf("\nstream geomean: %.2f Minstr/s   bulk geomean: "
                    "%.2f Minstr/s (placement configs; %zu-byte records)\n",
                    geomean(rows, "stream"), geomean(rows, "bulk"),
                    sizeof(trace::TraceRecord));
    }

    if (!opt.outPath.empty()) {
        std::ofstream out(opt.outPath);
        if (!out) {
            std::fprintf(stderr, "bench_hotpath: cannot write '%s'\n",
                         opt.outPath.c_str());
            return 1;
        }
        writeJson(out, opt, rows);
        if (!opt.jsonToStdout)
            std::printf("wrote %s\n", opt.outPath.c_str());
    }
    return 0;
}
