// Engine-level split-and-patch sharding: a cell run with --shard=N must
// render the byte-identical JSON document of the unsharded run for EVERY
// config — the splice/replay equivalence proved record-by-record in
// tests/core/shard_test.cpp, here end-to-end through TraceRepository, the
// sweep scheduler, and the JSON writer, in each input mode: a `.ptrc`
// shards over its pool's mapped blocks, and a `.ptrz` (no block index) runs
// unsharded, each with the document of a serial analysis of its capture.
// Plus the CLI surface: --shard / --stats argument parsing and the --stats
// timing fields.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/paragraph.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_args.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "trace/buffer.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"

#include "../core/trace_helpers.hpp"
#include "serial_reference.hpp"

using namespace paragraph;
using namespace paragraph::engine;

namespace {

/** How a sweep reads the fixture's trace. */
enum class InputMode { PooledPtrc, StreamedPtrz };

const InputMode kInputModes[] = {InputMode::PooledPtrc,
                                 InputMode::StreamedPtrz};

const char *
modeName(InputMode mode)
{
    switch (mode) {
      case InputMode::PooledPtrc:
        return "pooled .ptrc stream";
      case InputMode::StreamedPtrz:
        return "streamed .ptrz";
    }
    return "?";
}

/** A syscall-bearing random trace persisted as `.ptrc` and `.ptrz`. */
class ShardExec : public ::testing::Test
{
  protected:
    std::string path_;  ///< the `.ptrc` file
    std::string ptrz_;  ///< the same records as `.ptrz`

    void SetUp() override
    {
        // Per-test file names: ctest runs each test as its own process, so
        // sibling tests of this fixture can be live at the same instant.
        std::string stem =
            (std::filesystem::temp_directory_path() /
             (std::string("para_shard_exec_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
        path_ = stem + ".ptrc";
        ptrz_ = stem + ".ptrz";
        trace::TraceBuffer buf = testhelpers::randomTrace(17, 20000);
        trace::TraceFileWriter writer(path_);
        trace::BufferSource replay(buf, "shard-exec");
        writer.writeAll(replay);
        writer.close();
        trace::CompressedTraceWriter packed(ptrz_);
        trace::BufferSource again(buf, "shard-exec");
        packed.writeAll(again);
        packed.close();
    }

    void TearDown() override
    {
        std::remove(path_.c_str());
        std::remove(ptrz_.c_str());
    }

    const std::string &
    input(InputMode mode) const
    {
        return mode == InputMode::StreamedPtrz ? ptrz_ : path_;
    }

    /** One sweep over the file in @p mode; returns its no-timing
     *  document. */
    std::string
    runSweep(InputMode mode, unsigned shards,
             const std::vector<core::AnalysisConfig> &cfgs,
             SweepResult *outResult = nullptr)
    {
        TraceRepository repo;
        SweepEngine::Options opt;
        opt.jobs = 1;
        opt.groupSize = 1;
        opt.shards = shards;
        SweepEngine sweeper(opt);
        SweepResult result = sweeper.run(repo, {input(mode)}, cfgs);

        SweepJsonOptions json;
        json.timing = false;
        std::string doc = sweepToJson(result, json);
        if (outResult)
            *outResult = std::move(result);
        return doc;
    }

    /** The serial analysis of the file's capture in @p mode. */
    std::string
    serialDoc(InputMode mode, const std::vector<core::AnalysisConfig> &cfgs)
    {
        TraceRepository repo;
        return testhelpers::serialSweepDoc(repo, {input(mode)}, cfgs);
    }
};

/** A `.ptrz` stream has no block index: its sharded run stays solo. */
void
expectUnsharded(const SweepResult &result)
{
    for (const SweepCell &cell : result.cells) {
        EXPECT_TRUE(cell.ok()) << cell.errorMessage;
        EXPECT_EQ(cell.shardSegments, 0u);
    }
}

} // namespace

TEST_F(ShardExec, ShardedSweepIsByteIdenticalToSolo)
{
    std::vector<core::AnalysisConfig> cfgs;
    cfgs.push_back(core::AnalysisConfig::dataflowConservative());
    core::AnalysisConfig windowed = core::AnalysisConfig::dataflowConservative();
    windowed.windowSize = 64;
    cfgs.push_back(windowed);
    core::AnalysisConfig plain; // no renaming defaults, still shardable
    cfgs.push_back(plain);

    for (InputMode mode : kInputModes) {
        SCOPED_TRACE(modeName(mode));
        SweepResult sharded;
        std::string solo = runSweep(mode, 1, cfgs);
        std::string split = runSweep(mode, 4, cfgs, &sharded);
        EXPECT_EQ(solo, serialDoc(mode, cfgs));
        EXPECT_EQ(solo, split);

        ASSERT_EQ(sharded.cells.size(), cfgs.size());
        if (mode == InputMode::StreamedPtrz) {
            expectUnsharded(sharded);
            continue;
        }
        // And the sharded run really did shard: a 1%-syscall 20K trace has
        // hundreds of firewall candidates, so every cell splits — and
        // every config here stalls under perfect prediction, so every
        // segment takes the firewall fast path.
        for (const SweepCell &cell : sharded.cells) {
            EXPECT_TRUE(cell.ok()) << cell.errorMessage;
            EXPECT_GE(cell.shardSegments, 2u);
            EXPECT_LE(cell.shardSegments, 4u);
            EXPECT_EQ(cell.shardSpliced, cell.shardSegments);
        }
    }
}

TEST_F(ShardExec, FormerlyGatedConfigsShardByteIdentically)
{
    // Every config the old firewall-only gate excluded: modeled
    // predictors, non-stalling syscalls, and FU limits all shard now via
    // split-and-patch, still byte-identical to solo.
    std::vector<core::AnalysisConfig> cfgs;
    core::AnalysisConfig bimodal = core::AnalysisConfig::dataflowConservative();
    bimodal.branchPredictor = core::PredictorKind::Bimodal;
    cfgs.push_back(bimodal);
    core::AnalysisConfig nostall = core::AnalysisConfig::dataflowConservative();
    nostall.sysCallsStall = false;
    cfgs.push_back(nostall);
    core::AnalysisConfig fu = core::AnalysisConfig::dataflowConservative();
    fu.totalFuLimit = 2;
    cfgs.push_back(fu);

    for (InputMode mode : kInputModes) {
        SCOPED_TRACE(modeName(mode));
        SweepResult sharded;
        std::string solo = runSweep(mode, 1, cfgs);
        std::string split = runSweep(mode, 4, cfgs, &sharded);
        EXPECT_EQ(solo, serialDoc(mode, cfgs));
        EXPECT_EQ(solo, split);
        ASSERT_EQ(sharded.cells.size(), cfgs.size());
        if (mode == InputMode::StreamedPtrz) {
            expectUnsharded(sharded);
            continue;
        }
        for (const SweepCell &cell : sharded.cells) {
            EXPECT_TRUE(cell.ok()) << cell.errorMessage;
            EXPECT_GE(cell.shardSegments, 2u);
            EXPECT_LE(cell.shardSegments, 4u);
            EXPECT_EQ(cell.shardSpliced + cell.shardReplayed,
                      cell.shardSegments);
        }
    }
}

TEST_F(ShardExec, MoreShardsThanSegmentsClampAndStayExact)
{
    std::vector<core::AnalysisConfig> cfgs;
    cfgs.push_back(core::AnalysisConfig::dataflowConservative());
    core::AnalysisConfig bimodal = cfgs[0];
    bimodal.branchPredictor = core::PredictorKind::Bimodal;
    cfgs.push_back(bimodal);

    for (InputMode mode : kInputModes) {
        SCOPED_TRACE(modeName(mode));
        SweepResult sharded;
        std::string solo = runSweep(mode, 1, cfgs);
        std::string split = runSweep(mode, 64, cfgs, &sharded);
        EXPECT_EQ(solo, serialDoc(mode, cfgs));
        EXPECT_EQ(solo, split);
        if (mode == InputMode::StreamedPtrz) {
            expectUnsharded(sharded);
            continue;
        }
        for (const SweepCell &cell : sharded.cells) {
            EXPECT_TRUE(cell.ok()) << cell.errorMessage;
            EXPECT_GE(cell.shardSegments, 2u);
            EXPECT_LE(cell.shardSegments, 64u);
        }
    }
}

TEST_F(ShardExec, StatsEmitDecodeAnalyzeSplitAndSegments)
{
    std::vector<core::AnalysisConfig> cfgs;
    cfgs.push_back(core::AnalysisConfig::dataflowConservative());

    for (InputMode mode : kInputModes) {
        SCOPED_TRACE(modeName(mode));
        TraceRepository repo;
        SweepEngine::Options opt;
        opt.jobs = 1;
        opt.shards = 2;
        SweepEngine sweeper(opt);
        SweepResult result = sweeper.run(repo, {input(mode)}, cfgs);

        // Only waits on the cell's wall-clock path count as decode, so a
        // sharded cell never reports more decode time than wall time.
        for (const SweepCell &cell : result.cells)
            EXPECT_LE(cell.decodeSeconds, cell.wallSeconds);

        SweepJsonOptions json;
        json.stats = true;
        std::string doc = sweepToJson(result, json);
        EXPECT_NE(doc.find("\"decode_seconds\""), std::string::npos);
        EXPECT_NE(doc.find("\"analyze_seconds\""), std::string::npos);
        EXPECT_NE(doc.find("\"shard_segments\""), std::string::npos);

        // --no-timing still wins: stats ride inside the timing object.
        json.timing = false;
        doc = sweepToJson(result, json);
        EXPECT_EQ(doc.find("decode_seconds"), std::string::npos);
        EXPECT_EQ(doc.find("shard_segments"), std::string::npos);
    }
}

TEST(ShardArgs, ShardAndStatsFlagsParse)
{
    SweepArgs opt;
    std::string error;
    EXPECT_TRUE(parseSweepArgs({"--shard=4", "--stats", "xlisp"}, opt,
                               error))
        << error;
    EXPECT_EQ(opt.shards, 4u);
    EXPECT_TRUE(opt.json.stats);

    SweepArgs bad;
    EXPECT_FALSE(parseSweepArgs({"--shard=0", "xlisp"}, bad, error));
    EXPECT_FALSE(parseSweepArgs({"--shard=none", "xlisp"}, bad, error));
}

TEST(ShardArgs, DefaultIsUnsharded)
{
    SweepArgs opt;
    std::string error;
    ASSERT_TRUE(parseSweepArgs({"xlisp"}, opt, error)) << error;
    EXPECT_EQ(opt.shards, 1u);
    EXPECT_FALSE(opt.json.stats);
}
