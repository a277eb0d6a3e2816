// A `.ptrc` record is the analyzer's TraceRecord byte for byte, so a mapped
// trace is analyzed in place. These tests pin what that must keep: the
// content keys result stores were written under, identical cells however
// a mapped trace is read (captured, streamed from the mapping, sharded
// over its blocks), and the capped-read rule that records past the cap
// are never checked.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "trace/file_io.hpp"

#include "../core/trace_helpers.hpp"

using namespace paragraph;
using namespace paragraph::engine;

namespace {

std::string
golden(const char *name)
{
    return std::string(PARAGRAPH_GOLDEN_DIR) + "/" + name;
}

/** A small grid: windows, renaming and syscall switches. */
std::vector<core::AnalysisConfig>
grid()
{
    std::vector<core::AnalysisConfig> cfgs;
    for (uint64_t window : {uint64_t{0}, uint64_t{16}}) {
        core::AnalysisConfig stall = core::AnalysisConfig::dataflowConservative();
        stall.windowSize = window;
        cfgs.push_back(stall);
        core::AnalysisConfig plain;
        plain.windowSize = window;
        plain.renameData = true;
        cfgs.push_back(plain);
    }
    return cfgs;
}

/** The no-timing document of @p configs over @p input. */
std::string
sweepDoc(const std::string &input,
         const std::vector<core::AnalysisConfig> &configs, bool stream,
         unsigned shards, uint64_t maxRecords = 0,
         SweepResult *out = nullptr)
{
    TraceRepository::Options ro;
    ro.streamFiles = stream;
    ro.maxRecords = maxRecords;
    TraceRepository repo(ro);
    SweepEngine::Options opt;
    opt.jobs = 2;
    opt.shards = shards;
    SweepResult result = SweepEngine(opt).run(repo, {input}, configs);
    SweepJsonOptions json;
    json.timing = false;
    std::string doc = sweepToJson(result, json);
    if (out)
        *out = std::move(result);
    return doc;
}

} // namespace

TEST(MappedTrace, ContentKeysMatchThePreviousRecordLayout)
{
    // traceBufferCrc values computed by the code that unpacked records
    // into an 80-byte TraceRecord: result stores keyed before the record
    // became the disk layout must keep hitting.
    struct Pin
    {
        std::string spec;
        uint32_t crc;
    };
    const Pin pins[] = {
        {"xlisp", 0x1ca53f65},
        {"cc1", 0x39d4931d},
        {golden("xlisp-800.ptrc"), 0x18925f20},
        {golden("matrix300-600.ptrc"), 0x0f51a0d0},
    };
    for (bool stream : {false, true}) {
        TraceRepository::Options ro;
        ro.scale = workloads::Scale::Small;
        ro.streamFiles = stream;
        TraceRepository repo(ro);
        for (const Pin &pin : pins) {
            SCOPED_TRACE(pin.spec + (stream ? " streamed" : " captured"));
            EXPECT_EQ(repo.traceCrc(pin.spec), pin.crc);
            EXPECT_EQ(trace::traceBufferCrc(*repo.get(pin.spec)), pin.crc);
        }
    }
}

TEST(MappedTrace, StreamedCapturedAndShardedCellsAgree)
{
    for (const char *name : {"xlisp-800.ptrc", "matrix300-600.ptrc"}) {
        SCOPED_TRACE(name);
        const std::string input = golden(name);
        const std::string captured = sweepDoc(input, grid(), false, 1);
        SweepResult streamedResult;
        EXPECT_EQ(sweepDoc(input, grid(), true, 1, 0, &streamedResult),
                  captured);
        for (const SweepCell &cell : streamedResult.cells)
            EXPECT_TRUE(cell.ok()) << cell.errorMessage;
        EXPECT_EQ(sweepDoc(input, grid(), true, 4), captured);
        EXPECT_EQ(sweepDoc(input, grid(), false, 4), captured);
    }
}

TEST(MappedTrace, CappedStreamNeverChecksPastItsCap)
{
    // Record 150 is corrupt under a valid payload CRC. A stream capped at
    // 100 records never reads it, exactly as the sequential reader never
    // would; uncapped, every cell fails with the located error.
    const std::string path =
        (std::filesystem::temp_directory_path() / "para_mapped_cap.ptrc")
            .string();
    trace::TraceBuffer buf = testhelpers::randomTrace(23, 200);
    buf[150].numSrcs = 9;
    {
        trace::TraceFileWriter writer(path);
        writer.write(buf.records().data(), buf.size());
        writer.close();
    }
    std::vector<core::AnalysisConfig> cfgs = grid();
    for (core::AnalysisConfig &cfg : cfgs)
        cfg.maxInstructions = 100;
    SweepResult capped;
    sweepDoc(path, cfgs, true, 1, 100, &capped);
    for (const SweepCell &cell : capped.cells) {
        EXPECT_TRUE(cell.ok()) << cell.errorMessage;
        EXPECT_EQ(cell.result.instructions, 100u);
    }

    SweepResult whole;
    sweepDoc(path, grid(), true, 1, 0, &whole);
    for (const SweepCell &cell : whole.cells) {
        EXPECT_FALSE(cell.ok());
        EXPECT_NE(cell.errorMessage.find(
                      "bad source count 9 (record 150 at offset " +
                      std::to_string(trace::recordOffset(150)) + ")"),
                  std::string::npos)
            << cell.errorMessage;
    }
    std::remove(path.c_str());
}
