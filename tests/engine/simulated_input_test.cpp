// Simulated inputs (bundled analogs, `.s` and `.mc` programs) stream from
// the simulator into every fused pass and are never captured by the sweep
// paths: the repository caches only their compiled programs. These tests
// pin down what that must keep: one compile however many passes touch a
// fresh input at once, cells equal to a serial simulation, a streaming
// content key equal to the capture's, no resident trace after a sweep, and
// sharded cells that fall back to the identical solo pass.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "casm/program.hpp"
#include "core/paragraph.hpp"
#include "engine/scheduler.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "minic/compiler.hpp"
#include "minic/parser.hpp"
#include "sim/machine.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"

using namespace paragraph;
using namespace paragraph::engine;

namespace {

namespace fs = std::filesystem;

/** A MiniC program of ~100K records: loops, calls and memory traffic. */
const char *const kProgram = R"(
int table[64];

int mix(int a, int b) {
    return (a * 7 + b) % 1021;
}

void main() {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 3000; i = i + 1) {
        table[i % 64] = mix(table[(i * 5) % 64], i);
        acc = acc + table[i % 64];
    }
    print_int(acc);
}
)";

TraceRepository::Options
smallScale()
{
    TraceRepository::Options opt;
    opt.scale = workloads::Scale::Small;
    return opt;
}

/** Per-test temporary path: ctest runs each test as its own process. */
std::string
tempPath(const std::string &suffix)
{
    return (fs::temp_directory_path() /
            (std::string("para_sim_input_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             suffix))
        .string();
}

std::string
writeText(const std::string &path, const std::string &text)
{
    std::ofstream(path) << text;
    return path;
}

std::vector<SweepJob>
gridJobs(const std::string &input,
         const std::vector<core::AnalysisConfig> &configs)
{
    std::vector<SweepJob> jobs;
    for (size_t j = 0; j < configs.size(); ++j) {
        SweepJob job;
        job.input = input;
        job.config = configs[j];
        job.configLabel = "config-" + std::to_string(j);
        job.configIndex = j;
        jobs.push_back(job);
    }
    return jobs;
}

std::vector<core::AnalysisConfig>
fourConfigs()
{
    return {core::AnalysisConfig::windowed(16),
            core::AnalysisConfig::windowed(64),
            core::AnalysisConfig::noRenaming(),
            core::AnalysisConfig::dataflowConservative()};
}

std::string
noTimingJson(const SweepCell &cell)
{
    SweepJsonOptions json;
    json.timing = false;
    return cellToJson(cell, json);
}

/** @p job's cell JSON from a serial Paragraph::analyze over a fresh
 *  simulation of @p program — no repository, scheduler or fusion. */
std::string
serialSimulatedJson(const SweepJob &job, const casm::Program &program)
{
    sim::MachineTraceSource src(program);
    SweepCell ref;
    ref.job = job;
    ref.result = core::Paragraph(job.config).analyze(src);
    return noTimingJson(ref);
}

} // namespace

TEST(SimulatedInput, ConcurrentFirstTouchCompilesOnce)
{
    // Four solo passes start at once on a fresh repository: each resolves
    // the program on its own worker. The cache must compile it once, and
    // every cell must equal a serial simulation of its own compile.
    const std::string assembly =
        minic::generateAssembly(minic::parse(kProgram));
    const std::string mc = writeText(tempPath(".mc"), kProgram);
    const std::string s = writeText(tempPath(".s"), assembly);
    const casm::Program reference = minic::compile(kProgram);

    for (const std::string &input : {mc, s}) {
        SCOPED_TRACE(input);
        TraceRepository repo(smallScale());
        SweepScheduler::Options opt;
        opt.jobs = 4;
        opt.groupSize = 1;
        SweepScheduler scheduler(repo, opt);
        std::vector<SweepJob> jobs = gridJobs(input, fourConfigs());
        auto batch = scheduler.submit(jobs);
        batch->wait();

        EXPECT_EQ(scheduler.fusedGroups(), jobs.size());
        EXPECT_EQ(repo.programsBuilt(), 1u);
        EXPECT_EQ(repo.cachedInputs(), 0u);
        for (size_t i = 0; i < jobs.size(); ++i) {
            const SweepCell &cell = batch->cells()[i];
            ASSERT_EQ(cell.status, SweepCell::Status::Ok)
                << cell.errorMessage;
            EXPECT_GT(cell.result.instructions, 50000u);
            EXPECT_EQ(noTimingJson(cell),
                      serialSimulatedJson(jobs[i], reference));
        }
    }
    fs::remove(mc);
    fs::remove(s);
}

TEST(SimulatedInput, StreamingTraceCrcEqualsTheCaptureCrc)
{
    // Every input that is not captured is keyed by one streaming pass; the
    // key must equal the CRC of the capture, or a result store written by
    // a capturing daemon would stop hitting.
    const std::string mc = writeText(tempPath(".mc"), kProgram);
    const std::string s = writeText(
        tempPath(".s"), minic::generateAssembly(minic::parse(kProgram)));
    const std::string ptrc = tempPath(".ptrc");
    const std::string ptrz = tempPath(".ptrz");
    {
        TraceRepository writer(smallScale());
        trace::SharedBufferSource a(writer.get("cc1"), "cc1");
        trace::TraceFileWriter raw(ptrc);
        raw.writeAll(a);
        raw.close();
        trace::SharedBufferSource b(writer.get("cc1"), "cc1");
        trace::CompressedTraceWriter packed(ptrz);
        packed.writeAll(b);
        packed.close();
    }

    struct Case
    {
        std::string spec;
        uint64_t maxRecords;
        bool streamFiles;
    };
    for (const Case &c : {Case{"xlisp", 0, false}, Case{"xlisp", 5000, false},
                          Case{mc, 0, false}, Case{s, 0, false},
                          Case{ptrc, 0, true}, Case{ptrz, 0, true},
                          Case{ptrc, 7000, true}}) {
        SCOPED_TRACE(c.spec + " max=" + std::to_string(c.maxRecords));
        TraceRepository::Options opt = smallScale();
        opt.maxRecords = c.maxRecords;
        opt.streamFiles = c.streamFiles;
        TraceRepository repo(opt);
        uint32_t streamed = repo.traceCrc(c.spec);
        EXPECT_EQ(repo.cachedInputs(), 0u);
        EXPECT_EQ(repo.cachedBytes(), 0u);

        std::shared_ptr<const trace::TraceBuffer> capture = repo.get(c.spec);
        if (c.maxRecords) {
            EXPECT_EQ(capture->size(), c.maxRecords);
        }
        EXPECT_EQ(streamed, trace::traceBufferCrc(*capture));
    }
    for (const std::string &path : {mc, s, ptrc, ptrz})
        fs::remove(path);
}

TEST(SimulatedInput, SweepLeavesNoCapture)
{
    const std::string mc = writeText(tempPath(".mc"), kProgram);
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 3;
    SweepResult result = SweepEngine(opt).run(
        repo, {"xlisp", "matrix300", mc}, fourConfigs());
    for (const SweepCell &cell : result.cells)
        EXPECT_TRUE(cell.ok()) << cell.errorMessage;
    EXPECT_EQ(repo.cachedInputs(), 0u);
    EXPECT_EQ(repo.cachedBytes(), 0u);
    fs::remove(mc);
}

TEST(SimulatedInput, ShardedCellsRunSoloAndIdentical)
{
    // A simulation has no random access: --shard=4 on an analog runs each
    // cell as the unsharded pass, with the same document as --shard=1.
    std::vector<core::AnalysisConfig> cfgs = fourConfigs();
    cfgs.push_back(core::AnalysisConfig::windowed(0));
    std::string docs[2];
    for (unsigned shards : {1u, 4u}) {
        TraceRepository repo(smallScale());
        SweepEngine::Options opt;
        opt.jobs = 2;
        opt.groupSize = 1;
        opt.shards = shards;
        SweepResult result =
            SweepEngine(opt).run(repo, {"cc1", "xlisp"}, cfgs);
        for (const SweepCell &cell : result.cells) {
            EXPECT_TRUE(cell.ok()) << cell.errorMessage;
            EXPECT_EQ(cell.shardSegments, 0u);
        }
        SweepJsonOptions json;
        json.timing = false;
        docs[shards == 4] = sweepToJson(result, json);
    }
    EXPECT_EQ(docs[1], docs[0]);
}
