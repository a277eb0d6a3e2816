// End-to-end tests of the `paragraph-sweep` CLI binary: spawn it like a
// user would and check the JSON document and the determinism guarantee.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

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

/** Run the CLI; @p redirect picks where stderr (and stdout) go. */
CliResult
runSweep(const std::string &args,
         const std::string &redirect = "2>/dev/null")
{
    std::string cmd = sweepCliPath() + " " + args + " " + redirect;
    std::FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe))
        out += buf;
    int status = pclose(pipe);
    return CliResult{status, out};
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
