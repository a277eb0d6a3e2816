// End-to-end tests of the `paragraph` CLI binary: spawn it like a user
// would and check outputs, including trace capture and re-analysis.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <sys/wait.h>

namespace {

std::string
cliPath()
{
    // The test binary runs from build/tests/<exe>; the CLI sits in
    // build/tools/paragraph. CMake passes the binary dir via compile def.
#ifdef PARAGRAPH_CLI_PATH
    return PARAGRAPH_CLI_PATH;
#else
    return "./build/tools/paragraph";
#endif
}

struct CliResult
{
    int status;
    std::string output;
};

/** Run the CLI with @p args, under the environment assignments @p env. */
CliResult
runCli(const std::string &args, const std::string &env = "")
{
    std::string cmd = env + " " + cliPath() + " " + args + " 2>&1";
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

TEST(Cli, ListShowsAllWorkloads)
{
    CliResult r = runCli("--list");
    EXPECT_EQ(r.status, 0);
    for (const char *name : {"cc1", "fpppp", "matrix300", "xlisp"})
        EXPECT_NE(r.output.find(name), std::string::npos) << r.output;
}

TEST(Cli, AnalyzesAWorkload)
{
    CliResult r = runCli("--small xlisp");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("critical path"), std::string::npos);
    EXPECT_NE(r.output.find("avail. parallelism"), std::string::npos);
}

/** True when @p r exited with @p code. */
bool
exitedWith(const CliResult &r, int code)
{
    return WIFEXITED(r.status) && WEXITSTATUS(r.status) == code;
}

TEST(Cli, SwitchesChangeTheResult)
{
    CliResult full = runCli("--small tomcatv");
    CliResult norename = runCli("--small tomcatv --no-rename-stack");
    EXPECT_EQ(full.status, 0);
    EXPECT_EQ(norename.status, 0);
    EXPECT_NE(full.output, norename.output);
    EXPECT_NE(norename.output.find("storage-delayed ops"),
              std::string::npos);
}

TEST(Cli, PredictorFlagReportsBranches)
{
    CliResult r = runCli("--small cc1 --predictor=bimodal");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("mispredicted"), std::string::npos);
    EXPECT_NE(r.output.find("bimodal"), std::string::npos);
}

TEST(Cli, CaptureThenReanalyzeBothFormats)
{
    namespace fs = std::filesystem;
    std::string fixed = (fs::temp_directory_path() / "cli_cap.ptrc").string();
    std::string packed =
        (fs::temp_directory_path() / "cli_cap.ptrz").string();

    CliResult cap1 = runCli("--small xlisp --save-trace=" + fixed);
    CliResult cap2 = runCli("--small xlisp --save-trace=" + packed);
    EXPECT_EQ(cap1.status, 0);
    EXPECT_EQ(cap2.status, 0);
    ASSERT_TRUE(fs::exists(fixed));
    ASSERT_TRUE(fs::exists(packed));
    EXPECT_LT(fs::file_size(packed) * 3, fs::file_size(fixed));

    // Re-analyzing either file gives the same critical path as the live run.
    CliResult live = runCli("--small xlisp");
    CliResult from_fixed = runCli(fixed);
    CliResult from_packed = runCli(packed);
    auto extract_cp = [](const std::string &out) {
        size_t pos = out.find("critical path");
        EXPECT_NE(pos, std::string::npos);
        return out.substr(pos, out.find('\n', pos) - pos);
    };
    EXPECT_EQ(extract_cp(live.output), extract_cp(from_fixed.output));
    EXPECT_EQ(extract_cp(live.output), extract_cp(from_packed.output));
    fs::remove(fixed);
    fs::remove(packed);
}

TEST(Cli, DotOutputIsGraphviz)
{
    CliResult r = runCli("--small matrix300 --dot=20");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("digraph ddg"), std::string::npos);
    EXPECT_NE(r.output.find("->"), std::string::npos);
}

TEST(Cli, ProfileAndStorageOutputs)
{
    CliResult r =
        runCli("--small fpppp --profile --distributions --storage-profile");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("Ops/level"), std::string::npos);
    EXPECT_NE(r.output.find("value lifetimes"), std::string::npos);
    EXPECT_NE(r.output.find("live values"), std::string::npos);
}

TEST(Cli, HotProfileShowsDisassembly)
{
    CliResult r = runCli("--small matrix300 --hot=5");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("hot instructions"), std::string::npos);
    EXPECT_NE(r.output.find("% Dyn"), std::string::npos);
    EXPECT_NE(r.output.find("touched static sites"), std::string::npos);
}

TEST(Cli, BadArgumentsFailCleanly)
{
    EXPECT_NE(runCli("--bogus-flag xlisp").status, 0);
    EXPECT_NE(runCli("no-such-workload").status, 0);
    EXPECT_NE(runCli("").status, 0);
}

TEST(Cli, MapFailureIsALocatedErrorNotAFallback)
{
    // A `.ptrc` is read only through its mapping: when mmap fails, the run
    // fails with the located error instead of reading the file another way.
    const std::string golden =
        std::string(PARAGRAPH_GOLDEN_DIR) + "/xlisp-800.ptrc";
    CliResult failed =
        runCli(golden, "PARAGRAPH_FAILPOINTS=trace.mmap.map=after:0");
    EXPECT_TRUE(exitedWith(failed, 1)) << failed.output;
    EXPECT_NE(failed.output.find("paragraph: cannot mmap trace file: " +
                                 golden + "\n"),
              std::string::npos)
        << failed.output;
    EXPECT_TRUE(exitedWith(runCli(golden), 0));
}

TEST(Cli, DamagedPayloadIsRejectedAtOpenUnderMax)
{
    // The payload CRC is checked as a `.ptrc` opens, so a run capped
    // before the damage still rejects the file.
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() / "cli_damaged.ptrc").string();
    ASSERT_TRUE(exitedWith(runCli("--small xlisp --save-trace=" + path), 0));
    {
        // Flip a bit in the last record's pc: every field stays in range.
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekg(-1, std::ios::end);
        char c = 0;
        f.get(c);
        f.seekp(-1, std::ios::end);
        f.put(static_cast<char>(c ^ 0x40));
    }
    CliResult r = runCli(path + " --max=100");
    EXPECT_TRUE(exitedWith(r, 1)) << r.output;
    EXPECT_NE(r.output.find("paragraph: trace file payload checksum "
                            "mismatch in " +
                            path),
              std::string::npos)
        << r.output;
    fs::remove(path);
}
