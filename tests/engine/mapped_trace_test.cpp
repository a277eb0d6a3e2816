// A `.ptrc` record is the analyzer's TraceRecord byte for byte, so a mapped
// trace is analyzed in place. These tests pin what that must keep: the
// content keys result stores were written under, cells streamed from the
// mapping identical to a serial analysis of the trace's capture, and the
// capped-read rule that records past the cap are never checked.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/config.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "support/panic.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"

#include "../core/trace_helpers.hpp"
#include "serial_reference.hpp"

using namespace paragraph;
using namespace paragraph::engine;

namespace {

std::string
golden(const char *name)
{
    return std::string(PARAGRAPH_GOLDEN_DIR) + "/" + name;
}

/** @p records written to a `.ptrc` (or, by its name, `.ptrz`) at
 *  @p path. */
void
writeTrace(const std::string &path, const trace::TraceBuffer &records)
{
    trace::BufferSource src(records, "records");
    if (path.ends_with(".ptrz")) {
        trace::CompressedTraceWriter writer(path);
        writer.writeAll(src);
        writer.close();
    } else {
        trace::TraceFileWriter writer(path);
        writer.writeAll(src);
        writer.close();
    }
}

/** The FatalError text of @p fn, or "" if it does not throw one. */
template <class Fn>
std::string
fatalText(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return {};
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
         const std::vector<core::AnalysisConfig> &configs,
         uint64_t maxRecords = 0, SweepResult *out = nullptr)
{
    TraceRepository::Options ro;
    ro.maxRecords = maxRecords;
    TraceRepository repo(ro);
    SweepEngine::Options opt;
    opt.jobs = 2;
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
    TraceRepository::Options ro;
    ro.scale = workloads::Scale::Small;
    TraceRepository repo(ro);
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.spec);
        EXPECT_EQ(repo.traceCrc(pin.spec), pin.crc);
        EXPECT_EQ(trace::traceBufferCrc(*repo.get(pin.spec)), pin.crc);
    }
}

TEST(MappedTrace, StreamedCapturedAndShardedCellsAgree)
{
    for (const char *name : {"xlisp-800.ptrc", "matrix300-600.ptrc"}) {
        SCOPED_TRACE(name);
        const std::string input = golden(name);
        TraceRepository captureRepo;
        const std::string captured =
            testhelpers::serialSweepDoc(captureRepo, {input}, grid());
        SweepResult streamedResult;
        EXPECT_EQ(sweepDoc(input, grid(), 0, &streamedResult), captured);
        for (const SweepCell &cell : streamedResult.cells) {
            EXPECT_TRUE(cell.ok()) << cell.errorMessage;
            // Block waits are part of the cell's own wall time.
            EXPECT_LE(cell.decodeSeconds, cell.wallSeconds);
        }
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
    sweepDoc(path, cfgs, 100, &capped);
    for (const SweepCell &cell : capped.cells) {
        EXPECT_TRUE(cell.ok()) << cell.errorMessage;
        EXPECT_EQ(cell.result.instructions, 100u);
    }

    const std::string located = "bad source count 9 (record 150 at offset " +
                                std::to_string(trace::recordOffset(150)) +
                                ")";
    SweepResult whole;
    sweepDoc(path, grid(), 0, &whole);
    for (const SweepCell &cell : whole.cells) {
        EXPECT_FALSE(cell.ok());
        EXPECT_NE(cell.errorMessage.find(located), std::string::npos)
            << cell.errorMessage;
    }
    // The payload CRC holds, but a block failed its range check: the file
    // gets no content key, so none of its cells can be stored.
    TraceRepository repo;
    EXPECT_NE(fatalText([&] { repo.traceKey(path); }).find(located),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(MappedTrace, ChangedFileIsKeyedAndMappedAgain)
{
    // A trace file's key and pool carry the identity of the file they were
    // taken from. A file replaced by rename, rewritten in place at the same
    // size, truncated or deleted no longer matches a key taken before (so
    // a cell computed under that key is not stored), and the next
    // traceKey() and decodePool() read the file on disk now.
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() / "para_mapped_changed.ptrc").string();
    const trace::TraceBuffer a = testhelpers::randomTrace(31, 3000);
    const trace::TraceBuffer b = testhelpers::randomTrace(32, 3000);
    writeTrace(path, a);
    TraceRepository repo;
    const TraceRepository::TraceKey keyA = repo.traceKey(path);
    EXPECT_EQ(keyA.crc, trace::traceBufferCrc(a));
    ASSERT_TRUE(keyA.file.has_value());
    EXPECT_EQ(repo.fileIdentity(path), keyA.file);
    std::shared_ptr<trace::SharedDecodePool> poolA = repo.decodePool(path);
    EXPECT_EQ(repo.decodePool(path), poolA) << "an unchanged file is shared";

    // Replaced by rename: a new key and a new mapping, while a pass still
    // holding the old pool reads the old file to its end.
    writeTrace(path + ".new", b);
    fs::rename(path + ".new", path);
    EXPECT_NE(repo.fileIdentity(path), keyA.file);
    const TraceRepository::TraceKey keyB = repo.traceKey(path);
    EXPECT_EQ(keyB.crc, trace::traceBufferCrc(b));
    std::shared_ptr<trace::SharedDecodePool> poolB = repo.decodePool(path);
    EXPECT_NE(poolB, poolA);
    EXPECT_EQ(poolB->block(0)[0], b[0]);
    EXPECT_EQ(poolA->block(0)[0], a[0]);
    poolA.reset();
    poolB.reset(); // the rewrites below change the file poolB maps

    // Rewritten in place with other records of the same size, past the
    // filesystem's timestamp granularity: only the mtime tells.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::string bytesA = [&] {
        const std::string tmp = path + ".a";
        writeTrace(tmp, a);
        std::FILE *f = std::fopen(tmp.c_str(), "rb");
        std::string bytes(fs::file_size(tmp), '\0');
        EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
        std::fclose(f);
        fs::remove(tmp);
        return bytes;
    }();
    ASSERT_EQ(bytesA.size(), fs::file_size(path));
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytesA.data(), 1, bytesA.size(), f),
                  bytesA.size());
        std::fclose(f);
    }
    EXPECT_NE(repo.fileIdentity(path), keyB.file);
    EXPECT_EQ(repo.traceCrc(path), trace::traceBufferCrc(a));
    EXPECT_EQ(repo.decodePool(path)->block(0)[0], a[0]);

    // Truncated in place: no key, and the located truncation error.
    ASSERT_EQ(::truncate(path.c_str(),
                         static_cast<off_t>(trace::recordOffset(1000))),
              0);
    const std::string truncated =
        "trace file truncated: " + path + " (record 1000 at offset " +
        std::to_string(trace::recordOffset(1000)) + ")";
    EXPECT_EQ(fatalText([&] { repo.traceKey(path); }), truncated);
    EXPECT_EQ(fatalText([&] { repo.decodePool(path); }), truncated);

    // Deleted: no identity, no key, no pool.
    fs::remove(path);
    EXPECT_FALSE(repo.fileIdentity(path).has_value());
    EXPECT_NE(fatalText([&] { repo.traceKey(path); }).find("cannot open"),
              std::string::npos);
    EXPECT_NE(fatalText([&] { repo.decodePool(path); }).find("cannot open"),
              std::string::npos);

    // A `.ptrz` is keyed per identity too, as it streams.
    const std::string ptrz = path.substr(0, path.size() - 5) + ".ptrz";
    writeTrace(ptrz, a);
    EXPECT_EQ(repo.traceCrc(ptrz), trace::traceBufferCrc(a));
    writeTrace(ptrz + ".new", b);
    fs::rename(ptrz + ".new", ptrz);
    EXPECT_EQ(repo.traceCrc(ptrz), trace::traceBufferCrc(b));
    fs::remove(ptrz);
}

TEST(MappedTrace, AnyPoolCallReleasesThePoolsOfChangedFiles)
{
    // The repository drops the pool of a file that is gone or replaced on
    // its next decodePool() call, whatever input that call asks for, so a
    // long-lived holder keeps no deleted file mapped. An unchanged file's
    // pool stays shared.
    namespace fs = std::filesystem;
    const std::string stem =
        (fs::temp_directory_path() / "para_mapped_release_").string();
    const std::string gone = stem + "gone.ptrc";
    const std::string replaced = stem + "replaced.ptrc";
    const std::string kept = stem + "kept.ptrc";
    writeTrace(gone, testhelpers::randomTrace(33, 3000));
    writeTrace(replaced, testhelpers::randomTrace(34, 3000));
    writeTrace(kept, testhelpers::randomTrace(35, 3000));
    TraceRepository repo;
    std::weak_ptr<trace::SharedDecodePool> gonePool = repo.decodePool(gone);
    std::weak_ptr<trace::SharedDecodePool> replacedPool =
        repo.decodePool(replaced);
    const std::shared_ptr<trace::SharedDecodePool> keptPool =
        repo.decodePool(kept);
    EXPECT_FALSE(gonePool.expired()) << "the repository holds each pool";
    EXPECT_FALSE(replacedPool.expired());

    fs::remove(gone);
    writeTrace(replaced + ".new", testhelpers::randomTrace(36, 3000));
    fs::rename(replaced + ".new", replaced);
    EXPECT_EQ(repo.decodePool(kept), keptPool);
    EXPECT_TRUE(gonePool.expired());
    EXPECT_TRUE(replacedPool.expired());

    // A call for an input that has no pool releases them too.
    writeTrace(gone, testhelpers::randomTrace(37, 3000));
    gonePool = repo.decodePool(gone);
    EXPECT_FALSE(gonePool.expired());
    fs::remove(gone);
    EXPECT_EQ(repo.decodePool("xlisp"), nullptr);
    EXPECT_TRUE(gonePool.expired());
    fs::remove(replaced);
    fs::remove(kept);
}
