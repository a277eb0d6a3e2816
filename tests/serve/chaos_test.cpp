// Randomized failure-injection run against the real paragraph-serve
// binary: forks daemons, arms seeded failpoint schedules over the
// store/decode/socket sites, SIGKILLs them mid-job, and verifies after
// every restart that no acknowledged store entry is lost and every clean
// re-serve is byte-identical (src/fuzz/chaos_harness.hpp). A failing seed
// replays with `paragraph-fuzz --chaos --seed=N`.
//
// And a trace file changed on disk between two requests to one daemon —
// replaced by rename, rewritten in place, truncated in place, deleted —
// or a `.mc` program edited between them, is never answered from its old
// content, never takes the daemon down, and does not stay mapped past the
// daemon's next request. A trace file the daemon cannot map fails its
// cells with the mapping's error, and the daemon serves the next request.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "engine/sweep.hpp"
#include "engine/sweep_args.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "fuzz/chaos_harness.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "support/test_seed.hpp"
#include "trace/file_io.hpp"

#include "../core/trace_helpers.hpp"

using namespace paragraph;

namespace {

namespace fs = std::filesystem;

std::string
goldenTrace(const std::string &name)
{
    return std::string(PARAGRAPH_GOLDEN_DIR) + "/" + name;
}

/** A paragraph-serve child process on a per-test socket and store. */
class FileChangeDaemon : public ::testing::Test
{
  protected:
    std::string dir_;
    std::string trace_; ///< a `.ptrc` in the test's directory
    std::string input_; ///< the input the requests sweep (trace_ unless set)
    std::string socket_;
    pid_t pid_ = -1;

    void SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("ps_file_change_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        trace_ = dir_ + "/input.ptrc";
        input_ = trace_;
        socket_ = dir_ + "/serve.sock";
        const std::string store = "--store=" + dir_ + "/store.jsonl";
        const std::string sock = "--socket=" + socket_;
        pid_ = ::fork();
        if (pid_ == 0) {
            ::execl(PARAGRAPH_SERVE_CLI_PATH, PARAGRAPH_SERVE_CLI_PATH,
                    sock.c_str(), store.c_str(), "--jobs=2", "--quiet",
                    "--allow-failpoints", static_cast<char *>(nullptr));
            _exit(127);
        }
        for (int i = 0; i < 500 && !fs::exists(socket_); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ASSERT_TRUE(fs::exists(socket_)) << "daemon never bound";
    }

    void TearDown() override
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        fs::remove_all(dir_);
    }

    /** The daemon's memory map, as /proc lists it. */
    std::string
    mappings() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/maps");
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    }

    /** True while the daemon process has not exited. */
    bool
    alive()
    {
        return ::waitpid(pid_, nullptr, WNOHANG) == 0;
    }

    serve::ServeResponse
    ask(const serve::ServeRequest &req)
    {
        serve::ServeClient client(socket_);
        client.setTimeout(60.0);
        std::string error;
        std::string line;
        serve::ServeResponse resp;
        EXPECT_TRUE(client.connect(error)) << error;
        EXPECT_TRUE(client.roundTrip(serve::renderServeRequest(req), line,
                                     error))
            << error;
        EXPECT_TRUE(serve::parseServeResponse(line, resp, error)) << error;
        return resp;
    }

    serve::ServeRequest
    sweepRequest() const
    {
        serve::ServeRequest req;
        req.op = serve::ServeRequest::Op::Sweep;
        req.inputs = {input_};
        req.windows = {16, 64};
        return req;
    }

    /** Arm the daemon's failpoints with @p spec ("" disarms them all). */
    void
    armFailpoints(const std::string &spec)
    {
        serve::ServeRequest req;
        req.op = serve::ServeRequest::Op::Failpoint;
        req.failpointSpec = spec;
        serve::ServeResponse resp = ask(req);
        EXPECT_TRUE(resp.ok()) << resp.error;
    }

    serve::ServeResponse sweep() { return ask(sweepRequest()); }

    bool
    pinged()
    {
        serve::ServeRequest req;
        req.op = serve::ServeRequest::Op::Ping;
        return ask(req).ok();
    }

    /** The document a fresh analysis of the file on disk now renders. */
    std::string
    freshDocument()
    {
        std::vector<core::AnalysisConfig> configs;
        std::vector<std::string> labels;
        std::string error;
        EXPECT_TRUE(engine::buildSweepConfigAxis(
            serve::toSweepArgs(sweepRequest()), configs, labels, error))
            << error;
        engine::TraceRepository repo;
        engine::SweepJsonOptions json;
        json.timing = false;
        return engine::sweepToJson(
            engine::SweepEngine().run(repo, {input_}, configs, labels),
            json);
    }

    /** Serve the file once computed and once from the store. */
    std::string
    serveWarm()
    {
        serve::ServeResponse cold = sweep();
        EXPECT_TRUE(cold.ok()) << cold.error;
        EXPECT_EQ(cold.cellsComputed, 2u);
        EXPECT_EQ(cold.document, freshDocument());
        serve::ServeResponse warm = sweep();
        EXPECT_EQ(warm.cellsCached, 2u);
        EXPECT_EQ(warm.document, cold.document);
        return cold.document;
    }

    /** The change served: computed afresh, equal to a fresh analysis, and
     *  then stored under the new content. */
    void
    expectServedAfresh(const std::string &before)
    {
        serve::ServeResponse after = sweep();
        ASSERT_TRUE(after.ok()) << after.error;
        EXPECT_EQ(after.cellsCached, 0u) << "a stale cell was served";
        EXPECT_EQ(after.cellsFailed, 0u);
        EXPECT_EQ(after.document, freshDocument());
        EXPECT_NE(after.document, before);
        serve::ServeResponse again = sweep();
        EXPECT_EQ(again.cellsCached, 2u);
        EXPECT_EQ(again.document, after.document);
    }

    /** Every cell fails with @p error, none is served, and the daemon
     *  still answers. */
    void
    expectEveryCellFails(const std::string &error)
    {
        serve::ServeResponse after = sweep();
        ASSERT_TRUE(after.ok()) << after.error;
        EXPECT_EQ(after.cellsCached, 0u) << "a stale cell was served";
        EXPECT_EQ(after.cellsFailed, 2u);
        size_t found = 0;
        for (size_t at = after.document.find(error);
             at != std::string::npos;
             at = after.document.find(error, at + 1))
            ++found;
        EXPECT_EQ(found, 2u) << after.document;
        EXPECT_TRUE(pinged());
        EXPECT_TRUE(alive());
    }
};

void
writeTrace(const std::string &path, const trace::TraceBuffer &records)
{
    trace::TraceFileWriter writer(path);
    writer.write(records.records().data(), records.size());
    writer.close();
}

constexpr size_t kRecords = 3000;

/** A MiniC program whose loop runs @p iterations times. */
std::string
miniCProgram(int iterations)
{
    return "int table[16];\n"
           "void main() {\n"
           "    int i;\n"
           "    int acc;\n"
           "    acc = 0;\n"
           "    for (i = 0; i < " +
           std::to_string(iterations) +
           "; i = i + 1) {\n"
           "        table[i % 16] = table[(i * 3) % 16] + i;\n"
           "        acc = acc + table[i % 16];\n"
           "    }\n"
           "    print_int(acc);\n"
           "}\n";
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
    ASSERT_TRUE(out.good()) << path;
}

} // namespace

TEST(ServeChaos, InjectedFailuresNeverLoseOrCorruptAcknowledgedState)
{
    fuzz::ChaosOptions opt;
    opt.seed = testSeed(1);
    opt.iterations = 80;
    opt.roundLength = 20;
    opt.killProbability = 0.1;
    opt.serveBinary = PARAGRAPH_SERVE_CLI_PATH;
    opt.workDir = (fs::temp_directory_path() /
                   ("ps_chaos_" + std::to_string(::getpid())))
                      .string();
    opt.inputs = {goldenTrace("xlisp-800.ptrc"),
                  goldenTrace("matrix300-600.ptrc")};

    fuzz::ChaosReport report = fuzz::runChaos(opt);

    EXPECT_TRUE(report.ok())
        << report.firstFailure << "\nreplay: paragraph-fuzz --chaos --seed="
        << opt.seed << "\n"
        << fuzz::chaosReportJson(opt, report);
    EXPECT_EQ(report.iterations, opt.iterations);
    EXPECT_GT(report.kills + report.restarts, 1u)
        << "the schedule must actually crash and restart the daemon";
    EXPECT_GT(report.verifiedGrids, 0u)
        << "verification must re-serve at least one reference grid";
    fs::remove_all(opt.workDir);
}

TEST_F(FileChangeDaemon, ReplacedByRenameIsKeyedAndAnalyzedAgain)
{
    writeTrace(trace_, testhelpers::randomTrace(41, kRecords));
    const std::string before = serveWarm();
    writeTrace(trace_ + ".new", testhelpers::randomTrace(42, kRecords));
    fs::rename(trace_ + ".new", trace_);
    expectServedAfresh(before);
}

TEST_F(FileChangeDaemon, RewrittenInPlaceIsKeyedAndAnalyzedAgain)
{
    writeTrace(trace_, testhelpers::randomTrace(43, kRecords));
    const std::string before = serveWarm();
    // Other records of the same size over the same inode, past the
    // filesystem's timestamp granularity: only the mtime tells.
    const std::string other = trace_ + ".other";
    writeTrace(other, testhelpers::randomTrace(44, kRecords));
    ASSERT_EQ(fs::file_size(other), fs::file_size(trace_));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
        std::FILE *in = std::fopen(other.c_str(), "rb");
        std::FILE *out = std::fopen(trace_.c_str(), "r+b");
        ASSERT_NE(in, nullptr);
        ASSERT_NE(out, nullptr);
        char buf[65536];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
            ASSERT_EQ(std::fwrite(buf, 1, n, out), n);
        std::fclose(in);
        std::fclose(out);
    }
    expectServedAfresh(before);
}

TEST_F(FileChangeDaemon, TruncatedInPlaceFailsEveryCellWithTheLocatedError)
{
    writeTrace(trace_, testhelpers::randomTrace(45, kRecords));
    serveWarm();
    ASSERT_EQ(::truncate(trace_.c_str(),
                         static_cast<off_t>(trace::recordOffset(1000))),
              0);
    expectEveryCellFails("trace file truncated: " + trace_ +
                         " (record 1000 at offset " +
                         std::to_string(trace::recordOffset(1000)) + ")");
}

TEST_F(FileChangeDaemon, DeletedFileFailsEveryCell)
{
    writeTrace(trace_, testhelpers::randomTrace(46, kRecords));
    serveWarm();
    fs::remove(trace_);
    expectEveryCellFails("cannot open trace file: " + trace_);
}

TEST_F(FileChangeDaemon, EditedProgramIsCompiledAndAnalyzedAgain)
{
    // A `.mc` input is keyed and compiled by its file's identity too: an
    // edit is compiled and analyzed afresh, never served from the cells of
    // the old program.
    input_ = dir_ + "/input.mc";
    writeText(input_, miniCProgram(300));
    const std::string before = serveWarm();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    writeText(input_, miniCProgram(400));
    expectServedAfresh(before);
}

TEST_F(FileChangeDaemon, MapFailureFailsEveryCellAndTheNextRequestIsServed)
{
    // A `.ptrc` that cannot be mapped is not read another way: the request
    // fails its cells with the mapping's error, stores none, and the
    // daemon answers the next request in full.
    writeTrace(trace_, testhelpers::randomTrace(49, kRecords));
    armFailpoints("trace.mmap.map=after:0");
    expectEveryCellFails("cannot mmap trace file: " + trace_);
    armFailpoints("");
    serveWarm();
}

TEST_F(FileChangeDaemon, DeletedFileIsUnmappedByTheNextRequest)
{
    writeTrace(trace_, testhelpers::randomTrace(47, kRecords));
    serveWarm();
    const std::string mapped = fs::canonical(trace_).string();
    ASSERT_NE(mappings().find(mapped), std::string::npos)
        << "the daemon maps the file it analyzed";
    fs::remove(trace_);

    // One request on another file: the daemon lets the deleted one go.
    const std::string other = dir_ + "/other.ptrc";
    writeTrace(other, testhelpers::randomTrace(48, kRecords));
    serve::ServeRequest req = sweepRequest();
    req.inputs = {other};
    serve::ServeResponse resp = ask(req);
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.cellsComputed, 2u);
    EXPECT_EQ(mappings().find(mapped + " (deleted)"), std::string::npos)
        << mappings();
    EXPECT_TRUE(alive());
}
