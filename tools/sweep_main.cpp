// paragraph-sweep — threaded (trace × config) grid runner with JSON output.
//
// Executes the cross product of the input axis and every config axis as one
// batch on engine::SweepScheduler's worker pool (engine::SweepEngine), the
// runner paragraph-serve uses too. A simulated input (workload, .s, .mc)
// is simulated inside each fused pass; a trace file is captured once into
// a shared immutable trace buffer, or streamed per pass with --stream
// (engine::TraceRepository). Each grid cell is one independent
// core::Paragraph analysis. Results stream to
// stdout (or --out=FILE) as one JSON object per cell, in grid order, so the
// document is identical for any --jobs value (modulo the "timing" fields,
// which --no-timing omits).
//
// Usage:
//   paragraph-sweep [options] --inputs=A,B,... [more inputs...]
//
// Input axis (same resolution as the `paragraph` CLI):
//   --inputs=a,b,c         workload names, *.ptrc/*.ptrz traces,
//                          *.s assembly, *.mc MiniC (positional args too)
//   --small                use each workload's reduced test input
//
// Config axes (grid = cross product of all axes):
//   --windows=16,64,0      window sizes (0 = unlimited)
//   --rename=none,regs,stack,data
//                          Table 4 renaming conditions: none | regs |
//                          stack (= regs+stack) | data (= regs+all memory)
//   --syscalls=stall,ignore
//   --predictors=perfect,bimodal,taken,nottaken,wrong
//   --fus=0,2,8            total functional-unit limits (0 = unlimited)
//
// Execution and output:
//   --jobs=N               worker threads (default: hardware concurrency)
//   --group=N              most configs fused into one pass over a shared
//                          trace (trace-major scheduling); 1 = no fusion,
//                          0 = auto, each worker's share of the grid
//                          becomes a single pass (default: auto). N caps
//                          that share and never fills past it:
//                          --group=8 --jobs=4 over 8 configs runs 4 passes
//                          of 2, so lower --jobs to fuse wider
//   --stream               stream *.ptrc/*.ptrz inputs per pass instead of
//                          capturing them in memory; `.ptrc` files are then
//                          mapped and read in place (each block checked
//                          once across all workers), fused groups pay one
//                          `.ptrz` decode for the whole group
//   --shard=N              split each solo cell (captured or pooled
//                          .ptrc stream) into up to N trace segments
//                          analyzed on N threads and patched into the
//                          exact single-threaded result — how ONE trace x
//                          ONE config uses more than one core; works for
//                          every config (firewall cuts under
//                          --syscalls=stall + perfect prediction,
//                          validate-or-replay split-and-patch otherwise;
//                          simulated and .ptrz cells run solo)
//   --max=N                analyze at most N instructions per cell
//                          (also caps each pass's simulation or stream
//                          and a trace file's capture)
//   --out=FILE             write the JSON document to FILE
//   --stats                add decode/analyze wall-time split and shard
//                          segment/splice/replay counts to the "timing"
//                          fields, and the sweep's fused_groups (passes)
//                          to the top-level one
//   --no-timing            omit wall-clock fields (deterministic output)
//   --no-profiles          omit per-cell parallelism-profile buckets
//   --quiet                suppress the stderr progress line
//
// Adaptive exploration (engine::Explorer, src/engine/explorer.hpp):
//   --explore              instead of running the full grid, locate each
//                          trace's Pareto frontier (parallelism vs. cost)
//                          with window-knee bisection, successive halving,
//                          and provably sound dominance pruning; emits a
//                          "paragraph-explore-v1" document where every
//                          executed cell is byte-identical to its
//                          full-grid twin and every skipped cell carries
//                          a dominance certificate
//   --knee-tol=T           parallelism tolerance for bracket collapse
//                          (default 0 = exact: the frontier equals the
//                          full grid's frontier cell-for-cell)
//
// Fault tolerance (failed cells are reported in the JSON; the exit code
// stays 0 unless every cell failed, which exits 1):
//   --retries=N            re-run a failed cell up to N extra times
//   --deadline=SECONDS     per-cell deadline; a cell past it fails with a
//                          timeout error instead of hanging the sweep
//   --journal=FILE         append a JSONL checkpoint line per finished cell
//   --resume=FILE          skip cells already ok in FILE, splicing their
//                          journaled results into the output (implies
//                          --no-timing so the document is byte-identical
//                          to an uninterrupted --no-timing run)
//
// Example — the paper's Figure 8 window sweep in one command:
//   paragraph-sweep --inputs=cc1,espresso --windows=16,64,256,1024,0
//       --max=2000000 --jobs=8 --out=figure8.json
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/cancel_token.hpp"
#include "engine/explorer.hpp"
#include "engine/journal.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_args.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "support/output_file.hpp"
#include "support/panic.hpp"
#include "support/string_utils.hpp"
#include "support/test_seed.hpp"
#include "workloads/workload.hpp"

using namespace paragraph;

namespace {

using engine::SweepArgs;

// SIGINT/SIGTERM turn into a cooperative cancellation: every cell's config
// chains this token, so in-flight analyses stop at their next checkpoint
// (a few tens of thousands of records away), their cells journal as failed,
// and the process exits 128+signal with the journal and output flushed —
// a `--resume` of the same journal then redoes only what was cut short.
core::CancelToken g_interrupt;
volatile std::sig_atomic_t g_signal = 0;

void
onSignal(int sig)
{
    g_signal = sig;
    g_interrupt.cancelFromSignal(); // async-signal-safe: one atomic store
}

void
installSignalHandlers()
{
    g_interrupt.setReason("interrupted by signal");
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: blocking calls must see the signal
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: paragraph-sweep [options] --inputs=A,B,... [inputs...]\n"
        "  inputs: workload names, *.ptrc/*.ptrz traces, *.s, *.mc\n"
        "  axes:   --windows=16,64,0  --rename=none,regs,stack,data\n"
        "          --syscalls=stall,ignore\n"
        "          --predictors=perfect,bimodal,taken,nottaken,wrong\n"
        "          --fus=0,2,8\n"
        "  run:    --jobs=N  --group=N (most per pass, 0=auto)\n"
        "          --shard=N  --max=N\n"
        "          --small  --stream  --out=FILE\n"
        "          --stats  --no-timing  --no-profiles  --quiet  --list\n"
        "  explore: --explore  --knee-tol=T (0 = exact frontier)\n"
        "  fault:  --retries=N  --deadline=SECONDS\n"
        "          --journal=FILE  --resume=FILE\n");
    std::exit(2);
}

SweepArgs
parseArgs(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    SweepArgs opt;
    std::string error;
    if (!engine::parseSweepArgs(args, opt, error)) {
        std::fprintf(stderr, "paragraph-sweep: %s\n", error.c_str());
        usage();
    }
    if (opt.listRequested) {
        for (const auto &w : workloads::WorkloadSuite::instance().all()) {
            std::printf("%-10s %-8s %-10s %s\n", w.name.c_str(),
                        w.language.c_str(), w.benchType.c_str(),
                        w.description.c_str());
        }
        std::exit(0);
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        SweepArgs opt = parseArgs(argc, argv);
        installSignalHandlers();

        std::vector<core::AnalysisConfig> configs;
        std::vector<std::string> labels;
        std::string error;
        if (!engine::buildSweepConfigAxis(opt, configs, labels, error)) {
            std::fprintf(stderr, "paragraph-sweep: %s\n", error.c_str());
            usage();
        }
        for (core::AnalysisConfig &cfg : configs)
            cfg.cancel = &g_interrupt;

        engine::TraceRepository::Options repoOpt;
        repoOpt.scale = opt.small ? workloads::Scale::Small
                                  : workloads::Scale::Full;
        repoOpt.maxRecords = opt.maxInstructions;
        repoOpt.streamFiles = opt.stream;
        engine::TraceRepository repo(repoOpt);

        engine::SweepEngine::Options engineOpt;
        engineOpt.jobs = opt.jobs;
        engineOpt.groupSize = opt.group;
        engineOpt.shards = opt.shards;
        engineOpt.maxRetries = opt.retries;
        engineOpt.cellDeadlineSeconds = opt.deadlineSeconds;
        engineOpt.journalPath = opt.journalPath;
        engineOpt.journalProfiles = opt.json.profiles;

        if (opt.explore &&
            (!opt.journalPath.empty() || !opt.resumePath.empty())) {
            PARA_FATAL("--explore chooses its own cells round by round and "
                       "cannot journal or resume a fixed grid; drop "
                       "--journal/--resume");
        }

        engine::JournalData resume;
        if (!opt.resumePath.empty()) {
            resume = engine::loadJournal(opt.resumePath);
            if (resume.profiles != opt.json.profiles) {
                PARA_FATAL("journal %s was written with profiles=%s; rerun "
                           "with the matching --no-profiles setting",
                           opt.resumePath.c_str(),
                           resume.profiles ? "true" : "false");
            }
            // Journaled cells carry no timing, so the merged document only
            // stays byte-identical to a clean run without timing fields.
            opt.json.timing = false;
            engineOpt.resume = &resume;
        }
        if (!opt.quiet) {
            engineOpt.progress = [](size_t done, size_t total,
                                    double minstrPerSec) {
                std::fprintf(stderr,
                             "\rsweep: %zu/%zu jobs  %.1f Minstr/s%s", done,
                             total, minstrPerSec,
                             done == total ? "\n" : "");
                std::fflush(stderr);
            };
        }
        engine::SweepEngine sweeper(engineOpt);

        if (opt.explore) {
            engine::Explorer::Options exOpt;
            exOpt.kneeTol = opt.kneeTol;
            // PARAGRAPH_TEST_SEED steers the (frontier-invariant)
            // measurement order, so golden snapshots stay byte-stable.
            exOpt.seed = testSeed(exOpt.seed);
            engine::Explorer explorer(exOpt);

            engine::SweepAxes axes = engine::defaultedSweepAxes(opt);
            if (!opt.quiet) {
                std::fprintf(stderr,
                             "explore: %zu inputs x %zu configs on "
                             "%u worker(s), knee-tol %g\n",
                             opt.inputs.size(), configs.size(),
                             sweeper.jobs(), opt.kneeTol);
            }
            engine::ExploreResult explored = explorer.explore(
                opt.inputs, axes, configs, labels,
                [&](std::vector<engine::SweepJob> jobs) {
                    return sweeper.runJobs(repo, std::move(jobs)).cells;
                });
            explored.jobs = sweeper.jobs();

            if (!opt.quiet) {
                std::fprintf(stderr,
                             "explore: %zu/%zu cells executed (%zu pruned "
                             "with certificates, %zu failed) in %zu "
                             "round(s)\n",
                             explored.cellsExecuted, explored.cellsTotal,
                             explored.cellsPruned, explored.cellsFailed,
                             explored.rounds);
            }

            writeOutputFile(opt.outPath, [&](const OutputWriter &write) {
                return engine::streamExploreJson(explored, opt.json, write);
            });
            if (!opt.quiet && !opt.outPath.empty())
                std::fprintf(stderr, "sweep: wrote %s\n",
                             opt.outPath.c_str());
            if (g_signal != 0) {
                std::fprintf(stderr,
                             "paragraph-sweep: interrupted by signal %d\n",
                             static_cast<int>(g_signal));
                return 128 + static_cast<int>(g_signal);
            }
            bool totalLoss = explored.cellsExecuted > 0 &&
                             explored.cellsFailed == explored.cellsExecuted;
            return totalLoss ? 1 : 0;
        }

        if (!opt.quiet) {
            std::fprintf(stderr,
                         "sweep: %zu inputs x %zu configs = %zu cells on "
                         "%u worker(s)\n",
                         opt.inputs.size(), configs.size(),
                         opt.inputs.size() * configs.size(),
                         sweeper.jobs());
        }

        engine::SweepResult result =
            sweeper.run(repo, opt.inputs, configs, labels);

        if (!opt.quiet && result.cellsSkipped > 0)
            std::fprintf(stderr, "sweep: %zu cell(s) resumed from %s\n",
                         result.cellsSkipped, opt.resumePath.c_str());
        if (!opt.quiet && result.cellsFailed > 0)
            std::fprintf(stderr,
                         "sweep: %zu cell(s) failed (see \"error\" fields "
                         "in the JSON)\n",
                         result.cellsFailed);

        writeOutputFile(opt.outPath, [&](const OutputWriter &write) {
            return engine::streamSweepJson(result, opt.json, write);
        });
        if (!opt.quiet && !opt.outPath.empty())
            std::fprintf(stderr, "sweep: wrote %s\n", opt.outPath.c_str());
        // An interrupted sweep still writes its (partial) document and
        // journal, but the exit status says so: 128+signal, the shell
        // convention for death-by-signal.
        if (g_signal != 0) {
            std::fprintf(stderr,
                         "paragraph-sweep: interrupted by signal %d "
                         "(journal and output flushed)\n",
                         static_cast<int>(g_signal));
            return 128 + static_cast<int>(g_signal);
        }
        // Partial failure is a success with failed cells in the JSON; a
        // sweep where nothing at all completed is an error.
        bool totalLoss = !result.cells.empty() &&
                         result.cellsFailed == result.cells.size();
        return totalLoss ? 1 : 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "paragraph-sweep: %s\n", e.what());
        return 1;
    }
}
