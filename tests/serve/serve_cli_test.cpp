// End-to-end tests of the `paragraph-serve` binary: a real daemon process
// on an ephemeral socket, driven through the binary's own client mode.
// Covers the graceful-signal satellite (SIGTERM → exit 0, store intact)
// and the restart acceptance (a fresh daemon re-serves every cell the old
// one ever completed, byte-identically, without recomputing).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

namespace fs = std::filesystem;

std::string
serveCliPath()
{
#ifdef PARAGRAPH_SERVE_CLI_PATH
    return PARAGRAPH_SERVE_CLI_PATH;
#else
    return "./build/tools/paragraph-serve";
#endif
}

std::string
goldenTrace(const std::string &name)
{
    return std::string(PARAGRAPH_GOLDEN_DIR) + "/" + name;
}

std::string
tempPath(const std::string &tag)
{
    return (fs::temp_directory_path() /
            ("psc_" + tag + "_" + std::to_string(::getpid())))
        .string();
}

struct CliResult
{
    int status;
    std::string output;
};

/** Run the binary in client mode (or any one-shot invocation); @p redirect
 *  picks where stderr (and stdout) go. */
CliResult
runServe(const std::string &args,
         const std::string &redirect = "2>/dev/null")
{
    std::string cmd = serveCliPath() + " " + args + " " + redirect;
    std::FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe))
        out += buf;
    int status = pclose(pipe);
    return CliResult{status, out};
}

/** A real daemon child process; killable, exit status observable. */
struct DaemonProcess
{
    pid_t pid = -1;
    std::string socketPath;
    std::string storePath;

    DaemonProcess(const std::string &tag, const std::string &store)
        : socketPath(tempPath(tag + ".sock")), storePath(store)
    {
        fs::remove(socketPath);
        pid = ::fork();
        if (pid == 0) {
            std::string sockArg = "--socket=" + socketPath;
            std::string storeArg = "--store=" + storePath;
            std::string bin = serveCliPath();
            ::execl(bin.c_str(), bin.c_str(), sockArg.c_str(),
                    storeArg.c_str(), "--jobs=2", "--quiet",
                    static_cast<char *>(nullptr));
            _exit(127); // exec failed
        }
        // The daemon is up once its socket exists.
        for (int i = 0; i < 500 && !fs::exists(socketPath); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        EXPECT_TRUE(fs::exists(socketPath)) << "daemon never bound";
    }

    ~DaemonProcess()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
        fs::remove(socketPath);
    }

    /** Send @p sig and reap the child; returns its wait status. */
    int
    signalAndWait(int sig)
    {
        EXPECT_EQ(::kill(pid, sig), 0);
        int status = 0;
        EXPECT_EQ(::waitpid(pid, &status, 0), pid);
        pid = -1;
        return status;
    }

    std::string
    clientArgs() const
    {
        return "--client --socket=" + socketPath + " --quiet";
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

} // namespace

TEST(ServeCli, SigtermShutsDownCleanlyAndRestartServesFromTheStore)
{
    std::string store = tempPath("restart.store");
    fs::remove(store);
    std::string cold = tempPath("cold.json");
    std::string warm = tempPath("warm.json");
    std::string grid = " --inputs=" + goldenTrace("xlisp-800.ptrc") + "," +
                       goldenTrace("matrix300-600.ptrc") +
                       " --windows=16,64";

    {
        DaemonProcess daemon("one", store);
        EXPECT_EQ(runServe(daemon.clientArgs() + " --ping").status, 0);
        CliResult sweep = runServe(daemon.clientArgs() + grid +
                                   " --out=" + cold);
        EXPECT_EQ(sweep.status, 0);

        // Graceful SIGTERM: exit status 0, socket unlinked, store intact.
        int status = daemon.signalAndWait(SIGTERM);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
        EXPECT_FALSE(fs::exists(daemon.socketPath));
    }

    std::string coldDoc = readFile(cold);
    ASSERT_NE(coldDoc.find("\"cells\""), std::string::npos);
    std::string storedText = readFile(store);
    EXPECT_NE(storedText.find("paragraph-serve-store-v1"),
              std::string::npos);
    EXPECT_NE(storedText.find("\"trace_crc\""), std::string::npos);

    {
        // A fresh daemon over the same store answers without recomputing:
        // the raw response must report every cell cached, and the document
        // must be byte-identical to the cold one.
        DaemonProcess daemon("two", store);
        CliResult warmRun = runServe(daemon.clientArgs() + grid +
                                     " --out=" + warm);
        EXPECT_EQ(warmRun.status, 0);
        EXPECT_EQ(readFile(warm), coldDoc);

        CliResult stats = runServe(daemon.clientArgs() + " --stats");
        EXPECT_EQ(stats.status, 0);
        EXPECT_NE(stats.output.find("\"total_cells_cached\": 4"),
                  std::string::npos)
            << stats.output;
        EXPECT_NE(stats.output.find("\"total_cells_computed\": 0"),
                  std::string::npos)
            << stats.output;
    }
    fs::remove(store);
    fs::remove(cold);
    fs::remove(warm);
}

TEST(ServeCli, ClientDocumentsEqualTheSweepCliDocument)
{
    // Cold (computed) and warm (spliced from the store) documents written
    // by the real client, with profiles, against paragraph-sweep's.
    std::string store = tempPath("cmp.store");
    fs::remove(store);
    std::string cold = tempPath("cmp_cold.json");
    std::string warm = tempPath("cmp_warm.json");
    std::string cli = tempPath("cmp_cli.json");
    std::string grid = " --inputs=" + goldenTrace("xlisp-800.ptrc") + "," +
                       goldenTrace("matrix300-600.ptrc") +
                       " --windows=16,64,0 --rename=none,data";

    DaemonProcess daemon("cmp", store);
    EXPECT_EQ(runServe(daemon.clientArgs() + grid + " --out=" + cold).status,
              0);
    EXPECT_EQ(runServe(daemon.clientArgs() + grid + " --out=" + warm).status,
              0);
    std::string sweep = std::string(PARAGRAPH_SWEEP_CLI_PATH) + grid +
                        " --no-timing --quiet --out=" + cli + " 2>/dev/null";
    EXPECT_EQ(std::system(sweep.c_str()), 0);

    const std::string want = readFile(cli);
    ASSERT_NE(want.find("\"profile\": ["), std::string::npos);
    EXPECT_EQ(readFile(cold), want);
    EXPECT_EQ(readFile(warm), want);
    CliResult stats = runServe(daemon.clientArgs() + " --stats");
    EXPECT_NE(stats.output.find("\"total_cells_cached\": 12"),
              std::string::npos)
        << stats.output;
    fs::remove(store);
    fs::remove(cold);
    fs::remove(warm);
    fs::remove(cli);
}

TEST(ServeCli, ShutdownOpStopsTheDaemonWithExitZero)
{
    std::string store = tempPath("shutdown.store");
    fs::remove(store);
    DaemonProcess daemon("three", store);
    CliResult r = runServe(daemon.clientArgs() + " --shutdown");
    EXPECT_EQ(r.status, 0);

    int status = 0;
    ASSERT_EQ(::waitpid(daemon.pid, &status, 0), daemon.pid);
    daemon.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    fs::remove(store);
}

TEST(ServeCli, ClientDocumentWriteFailuresExitOneWithTheReason)
{
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    std::string store = tempPath("full.store");
    fs::remove(store);
    DaemonProcess daemon("full", store);
    std::string grid = daemon.clientArgs() + " --inputs=" +
                       goldenTrace("xlisp-800.ptrc") + " --windows=16,64";

    // The captured output is stderr; the document goes to a full device.
    CliResult r = runServe(grid + " --out=/dev/full", "2>&1");
    EXPECT_TRUE(WIFEXITED(r.status) && WEXITSTATUS(r.status) == 1)
        << r.output;
    EXPECT_NE(
        r.output.find("cannot write /dev/full: No space left on device"),
        std::string::npos)
        << r.output;

    r = runServe(grid, "2>&1 >/dev/full");
    EXPECT_TRUE(WIFEXITED(r.status) && WEXITSTATUS(r.status) == 1)
        << r.output;
    EXPECT_NE(r.output.find("cannot write stdout: No space left on device"),
              std::string::npos)
        << r.output;

    r = runServe(daemon.clientArgs() + " --ping", "2>&1 >/dev/full");
    EXPECT_TRUE(WIFEXITED(r.status) && WEXITSTATUS(r.status) == 1)
        << r.output;
    fs::remove(store);
}

TEST(ServeCli, ClientWithoutADaemonFailsCleanly)
{
    std::string sock = tempPath("nobody.sock");
    fs::remove(sock);
    CliResult r = runServe("--client --socket=" + sock + " --ping --quiet");
    EXPECT_NE(r.status, 0);
}

TEST(ServeCli, BadArgumentsFailCleanly)
{
    EXPECT_NE(runServe("--bogus").status, 0);
    EXPECT_NE(runServe("").status, 0); // --socket is required
}
