// End-to-end tests of the `paragraph-sweep` CLI binary: spawn it like a
// user would and check the JSON document and the determinism guarantee.
// Plus the argument parser's `--shard` field, which the engine ignores
// but callers of parseSweepArgs still read.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "engine/sweep_args.hpp"
#include "engine/trace_repository.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"

namespace {

std::string
sweepCliPath()
{
#ifdef PARAGRAPH_SWEEP_CLI_PATH
    return PARAGRAPH_SWEEP_CLI_PATH;
#else
    return "./build/tools/paragraph-sweep";
#endif
}

struct CliResult
{
    int status;
    std::string output;
};

/** Run the CLI; @p redirect picks where stderr (and stdout) go, and
 *  @p env holds environment assignments to run it under. */
CliResult
runSweep(const std::string &args,
         const std::string &redirect = "2>/dev/null",
         const std::string &env = "")
{
    std::string cmd =
        env + " " + sweepCliPath() + " " + args + " " + redirect;
    std::FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe))
        out += buf;
    int status = pclose(pipe);
    return CliResult{status, out};
}

/** Every number labelled @p key in @p doc, in document order. */
std::vector<double>
numbersOf(const std::string &doc, const std::string &key)
{
    std::vector<double> values;
    const std::string label = "\"" + key + "\": ";
    for (size_t at = doc.find(label); at != std::string::npos;
         at = doc.find(label, at + 1)) {
        values.push_back(
            std::strtod(doc.c_str() + at + label.size(), nullptr));
    }
    return values;
}

} // namespace

TEST(SweepCli, EmitsTheGridAsJson)
{
    CliResult r = runSweep("--inputs=xlisp --small --windows=16,0 "
                           "--quiet --no-profiles");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("\"schema\": \"paragraph-sweep-v3\""),
              std::string::npos);
    EXPECT_NE(r.output.find("\"cells_total\": 2"), std::string::npos);
    EXPECT_NE(r.output.find("\"critical_path\""), std::string::npos);
    EXPECT_NE(r.output.find("\"available_parallelism\""),
              std::string::npos);
    EXPECT_NE(r.output.find("\"window\": 16"), std::string::npos);
}

TEST(SweepCli, JobCountDoesNotChangeTheDocument)
{
    const std::string grid = "--inputs=xlisp,matrix300 --small "
                             "--windows=4,16,64,0 --rename=regs,data "
                             "--quiet --no-timing";
    CliResult serial = runSweep(grid + " --jobs=1");
    CliResult threaded = runSweep(grid + " --jobs=4");
    EXPECT_EQ(serial.status, 0);
    EXPECT_EQ(threaded.status, 0);
    EXPECT_EQ(serial.output, threaded.output);
    EXPECT_NE(serial.output.find("\"cells_total\": 16"),
              std::string::npos);
}

TEST(SweepCli, StreamFlagIsAcceptedAndChangesNothing)
{
    // Every trace file streams; `--stream` stays accepted for old command
    // lines, with the same document.
    const std::string grid = "--inputs=" + std::string(PARAGRAPH_GOLDEN_DIR) +
                             "/xlisp-800.ptrc --windows=16,0 --quiet "
                             "--no-timing";
    CliResult plain = runSweep(grid);
    CliResult streamed = runSweep(grid + " --stream");
    EXPECT_EQ(plain.status, 0);
    EXPECT_EQ(streamed.status, 0);
    EXPECT_EQ(streamed.output, plain.output);
    EXPECT_NE(plain.output.find("\"cells_total\": 2"), std::string::npos);
}

TEST(SweepCli, MapFailureFailsTheCellsWithTheLocatedError)
{
    // A `.ptrc` that cannot be mapped is not read another way: each cell
    // fails with the mapping's error, and the sweep exits 1.
    const std::string ptrc =
        std::string(PARAGRAPH_GOLDEN_DIR) + "/xlisp-800.ptrc";
    const std::string grid =
        "--inputs=" + ptrc + " --windows=16,0 --quiet --no-timing";
    CliResult failed = runSweep(grid, "2>/dev/null",
                                "PARAGRAPH_FAILPOINTS=trace.mmap.map=after:0");
    EXPECT_TRUE(WIFEXITED(failed.status) && WEXITSTATUS(failed.status) == 1);
    EXPECT_NE(failed.output.find("\"cells_failed\": 2"), std::string::npos)
        << failed.output;
    const std::string error =
        "\"error\": \"cannot mmap trace file: " + ptrc + "\"";
    size_t found = 0;
    for (size_t at = failed.output.find(error); at != std::string::npos;
         at = failed.output.find(error, at + 1))
        ++found;
    EXPECT_EQ(found, 2u) << failed.output;
    EXPECT_EQ(runSweep(grid).status, 0);
}

TEST(SweepCli, ShardFlagIsAcceptedAndChangesNothing)
{
    // Every cell runs one fused pass; `--shard=N` stays accepted (N >= 1)
    // for old command lines, with the same document on every input kind.
    namespace fs = std::filesystem;
    const std::string ptrc =
        std::string(PARAGRAPH_GOLDEN_DIR) + "/xlisp-800.ptrc";
    const std::string ptrz =
        (fs::temp_directory_path() /
         ("sweep_shard_flag_" + std::to_string(::getpid()) + ".ptrz"))
            .string();
    {
        auto reader = paragraph::trace::openTraceFile(ptrc);
        paragraph::trace::CompressedTraceWriter writer(ptrz);
        writer.writeAll(*reader);
        writer.close();
    }
    for (const std::string &input :
         {"--inputs=" + ptrc, "--inputs=" + ptrz,
          std::string("--inputs=matrix300 --small --max=3000")}) {
        SCOPED_TRACE(input);
        const std::string grid =
            input + " --windows=16,0 --rename=none,data --quiet --no-timing";
        CliResult plain = runSweep(grid);
        EXPECT_EQ(plain.status, 0);
        EXPECT_NE(plain.output.find("\"cells_total\": 4"),
                  std::string::npos);
        for (const char *shard : {" --shard=4", " --shard=1"}) {
            CliResult sharded = runSweep(grid + shard);
            EXPECT_EQ(sharded.status, 0);
            EXPECT_EQ(sharded.output, plain.output) << shard;
        }
        // --stats adds the decode/analyze split to each cell's timing,
        // and nothing when timing is off.
        CliResult stats = runSweep(
            input + " --windows=16 --quiet --stats --shard=4 --no-profiles");
        EXPECT_EQ(stats.status, 0);
        EXPECT_NE(stats.output.find("\"decode_seconds\""),
                  std::string::npos);
        EXPECT_NE(stats.output.find("\"analyze_seconds\""),
                  std::string::npos);
        EXPECT_EQ(stats.output.find("\"shard_"), std::string::npos);
        CliResult untimed = runSweep(grid + " --stats");
        EXPECT_EQ(untimed.output, plain.output);
    }
    fs::remove(ptrz);

    const std::string small = "--inputs=xlisp --small --max=2000 --quiet";
    for (const char *bad : {" --shard=0", " --shard=none", " --shard="}) {
        CliResult r = runSweep(small + bad);
        EXPECT_TRUE(WIFEXITED(r.status) && WEXITSTATUS(r.status) == 2)
            << bad;
    }
}

TEST(ShardArgs, ShardAndStatsFlagsParse)
{
    // No cell shards, but SweepArgs still carries --shard=N as given for
    // callers that read it.
    using paragraph::engine::SweepArgs;
    SweepArgs opt;
    std::string error;
    EXPECT_TRUE(paragraph::engine::parseSweepArgs(
        {"--shard=4", "--stats", "xlisp"}, opt, error))
        << error;
    EXPECT_EQ(opt.shards, 4u);
    EXPECT_TRUE(opt.json.stats);

    SweepArgs bad;
    EXPECT_FALSE(
        paragraph::engine::parseSweepArgs({"--shard=0", "xlisp"}, bad, error));
    EXPECT_FALSE(paragraph::engine::parseSweepArgs({"--shard=none", "xlisp"},
                                                   bad, error));
}

TEST(ShardArgs, DefaultIsUnsharded)
{
    paragraph::engine::SweepArgs opt;
    std::string error;
    ASSERT_TRUE(paragraph::engine::parseSweepArgs({"xlisp"}, opt, error))
        << error;
    EXPECT_EQ(opt.shards, 1u);
    EXPECT_FALSE(opt.json.stats);
}

TEST(SweepCli, StatsCountTheFusedGroupsAGroupCapAllows)
{
    // --group=N caps each worker's share of the grid instead of filling a
    // pass: 8 configs at --group=8 run as 4 passes of 2 on four workers
    // and as one pass on one. --stats reports the passes as fused_groups,
    // the same on every run, and the analysis never changes.
    const std::string grid = "--inputs=xlisp --small --max=2000 "
                             "--windows=0,16,64,256 --rename=none,data "
                             "--group=8 --quiet";
    const struct
    {
        const char *jobs;
        const char *passes;
    } runs[] = {{"--jobs=4", "\"fused_groups\": 4}"},
                {"--jobs=1", "\"fused_groups\": 1}"}};
    for (const auto &run : runs) {
        SCOPED_TRACE(run.jobs);
        for (int repeat = 0; repeat < 2; ++repeat) {
            CliResult r =
                runSweep(grid + " --stats --no-profiles " + run.jobs);
            EXPECT_EQ(r.status, 0);
            EXPECT_NE(r.output.find(run.passes), std::string::npos)
                << r.output.substr(0, 400);
        }
    }
    CliResult capped = runSweep(grid + " --jobs=4 --no-timing");
    CliResult solo = runSweep(grid + " --jobs=1 --group=1 --no-timing");
    EXPECT_EQ(capped.status, 0);
    EXPECT_EQ(capped.output, solo.output);
    EXPECT_EQ(capped.output.find("fused_groups"), std::string::npos);
}

TEST(SweepCli, StatsCountEachPassDecodeOnce)
{
    // A fused group's cells share one pass: each cell's wall is its own
    // engine's time, so its analyze_seconds is all of it, and each carries
    // the pass's decode, which the sweep's decode_seconds counts once. A
    // solo pass's wall includes its decode, which analyze_seconds leaves
    // out, and the sweep adds up every pass.
    namespace fs = std::filesystem;
    const std::string ptrz =
        (fs::temp_directory_path() /
         ("sweep_pass_decode_" + std::to_string(::getpid()) + ".ptrz"))
            .string();
    {
        paragraph::engine::TraceRepository::Options small;
        small.scale = paragraph::workloads::Scale::Small;
        paragraph::engine::TraceRepository repo(small);
        paragraph::trace::BufferSource src(*repo.get("cc1"));
        paragraph::trace::CompressedTraceWriter writer(ptrz);
        writer.writeAll(src);
        writer.close();
    }
    const std::string grid = ptrz +
                             " --windows=0,16,64,256 --rename=none,data "
                             "--jobs=1 --stats --quiet --no-profiles";

    CliResult fused = runSweep(grid);
    ASSERT_EQ(fused.status, 0);
    EXPECT_NE(fused.output.find("\"fused_groups\": 1}"), std::string::npos);
    // The sweep's timing block comes first, then the eight cells'.
    std::vector<double> wall = numbersOf(fused.output, "wall_seconds");
    std::vector<double> decode = numbersOf(fused.output, "decode_seconds");
    std::vector<double> analyze = numbersOf(fused.output, "analyze_seconds");
    ASSERT_EQ(wall.size(), 9u);
    ASSERT_EQ(decode.size(), 9u);
    ASSERT_EQ(analyze.size(), 8u);
    EXPECT_GT(decode[0], 0.0);
    EXPECT_LE(decode[0], wall[0]);
    for (size_t k = 1; k <= 8; ++k) {
        EXPECT_EQ(decode[k], decode[0]) << "cell " << k - 1;
        EXPECT_EQ(analyze[k - 1], wall[k]) << "cell " << k - 1;
    }

    CliResult solo = runSweep(grid + " --group=1");
    ASSERT_EQ(solo.status, 0);
    EXPECT_NE(solo.output.find("\"fused_groups\": 8}"), std::string::npos);
    wall = numbersOf(solo.output, "wall_seconds");
    decode = numbersOf(solo.output, "decode_seconds");
    analyze = numbersOf(solo.output, "analyze_seconds");
    ASSERT_EQ(decode.size(), 9u);
    ASSERT_EQ(analyze.size(), 8u);
    double passes = 0.0;
    for (size_t k = 1; k <= 8; ++k) {
        passes += decode[k];
        EXPECT_EQ(analyze[k - 1], std::max(0.0, wall[k] - decode[k]))
            << "cell " << k - 1;
    }
    EXPECT_EQ(decode[0], passes);
    EXPECT_LE(decode[0], wall[0]);
    fs::remove(ptrz);
}

TEST(SweepCli, CrossesEveryAxis)
{
    CliResult r = runSweep("--inputs=xlisp --small --windows=16,0 "
                           "--syscalls=stall,ignore --rename=none,data "
                           "--quiet --no-profiles --no-timing");
    EXPECT_EQ(r.status, 0);
    // 2 windows x 2 syscall modes x 2 renaming points = 8 cells.
    EXPECT_NE(r.output.find("\"cells_total\": 8"), std::string::npos);
    EXPECT_NE(r.output.find("\"syscalls\": \"ignore\""),
              std::string::npos);
    EXPECT_NE(r.output.find("\"rename_regs\": false"), std::string::npos);
}

TEST(SweepCli, WritesToAFile)
{
    namespace fs = std::filesystem;
    std::string path = (fs::temp_directory_path() / "sweep_out.json").string();
    CliResult r = runSweep("--inputs=xlisp --small --windows=16 --quiet "
                           "--no-profiles --out=" + path);
    EXPECT_EQ(r.status, 0);
    EXPECT_TRUE(r.output.empty()); // JSON went to the file, not stdout
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream oss;
    oss << in.rdbuf();
    EXPECT_NE(oss.str().find("\"schema\": \"paragraph-sweep-v3\""),
              std::string::npos);
    fs::remove(path);
}

TEST(SweepCli, SigintFlushesTheJournalAndExits130)
{
    // The graceful-interrupt contract: SIGINT mid-sweep cancels in-flight
    // cells cooperatively, still writes the (partial) document and journal,
    // and exits with the shell's death-by-SIGINT status, 128 + 2. The grid
    // is big and serial on purpose so the signal always lands mid-run.
    namespace fs = std::filesystem;
    std::string journal = (fs::temp_directory_path() / "sweep_int.jsonl")
                              .string();
    std::string out = (fs::temp_directory_path() / "sweep_int.json").string();
    fs::remove(journal);
    fs::remove(out);

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int devnull = ::open("/dev/null", O_WRONLY);
        ::dup2(devnull, 2);
        std::string bin = sweepCliPath();
        std::string journalArg = "--journal=" + journal;
        std::string outArg = "--out=" + out;
        ::execl(bin.c_str(), bin.c_str(), "--inputs=cc1,espresso,xlisp",
                "--windows=0,16,64,256,1024", "--jobs=1", "--quiet",
                "--no-timing", journalArg.c_str(), outArg.c_str(),
                static_cast<char *>(nullptr));
        _exit(127);
    }

    // Give parseArgs + the signal-handler installation time to happen; the
    // 15-cell serial full-scale grid runs far longer than this.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_EQ(::kill(pid, SIGINT), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "died by signal instead of handling it";
    EXPECT_EQ(WEXITSTATUS(status), 128 + SIGINT);

    // Journal and document were flushed on the way out.
    std::ifstream jin(journal);
    ASSERT_TRUE(jin.good());
    std::string header;
    std::getline(jin, header);
    EXPECT_NE(header.find("paragraph-sweep-journal-v1"), std::string::npos);
    std::ifstream din(out);
    ASSERT_TRUE(din.good());
    std::ostringstream doc;
    doc << din.rdbuf();
    EXPECT_NE(doc.str().find("\"schema\": \"paragraph-sweep-v3\""),
              std::string::npos);
    fs::remove(journal);
    fs::remove(out);
}

TEST(SweepCli, BadArgumentsFailCleanly)
{
    EXPECT_NE(runSweep("--inputs=xlisp --bogus").status, 0);
    EXPECT_NE(runSweep("--inputs=no-such-workload --quiet").status, 0);
    EXPECT_NE(runSweep("--inputs=xlisp --rename=everything").status, 0);
    EXPECT_NE(runSweep("").status, 0);
}

TEST(SweepCli, DocumentWriteFailuresExitOneWithTheReason)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    // A full device must not pass for success: every write, the flush and
    // the close are checked, for a grid and for --explore, to --out and
    // to stdout. The captured output is stderr.
    const std::string grid = "--inputs=xlisp --small --max=2000 "
                             "--windows=16,0 --quiet";
    for (const std::string mode : {"", " --explore"}) {
        CliResult r = runSweep(grid + mode + " --out=/dev/full", "2>&1");
        EXPECT_TRUE(WIFEXITED(r.status) && WEXITSTATUS(r.status) == 1)
            << mode << ": " << r.output;
        EXPECT_NE(r.output.find(
                      "cannot write /dev/full: No space left on device"),
                  std::string::npos)
            << mode << ": " << r.output;

        r = runSweep(grid + mode, "2>&1 >/dev/full");
        EXPECT_TRUE(WIFEXITED(r.status) && WEXITSTATUS(r.status) == 1)
            << mode << ": " << r.output;
        EXPECT_NE(
            r.output.find("cannot write stdout: No space left on device"),
            std::string::npos)
            << mode << ": " << r.output;
    }
}
