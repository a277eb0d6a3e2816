// Tests for the paragraph-serve subsystem: the content-addressed result
// store (persistence, LRU, damage tolerance), the wire protocol
// (parse/render round trips), and the daemon itself — run in-process on an
// ephemeral AF_UNIX socket against the checked-in golden traces, proving
// the cache serves warm cells byte-identical to cold ones, across
// overlapping grids, concurrent clients, disconnects, and restarts.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "engine/trace_repository.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "serve/server.hpp"
#include "support/failpoint.hpp"
#include "support/panic.hpp"
#include "trace/file_io.hpp"

using namespace paragraph;
using namespace paragraph::serve;

namespace {

namespace fs = std::filesystem;

std::string
tempPath(const std::string &tag)
{
    return (fs::temp_directory_path() /
            ("ps_" + tag + "_" + std::to_string(::getpid())))
        .string();
}

std::string
goldenTrace(const std::string &name)
{
    return std::string(PARAGRAPH_GOLDEN_DIR) + "/" + name;
}

/** Append raw bytes to a file (to simulate damage and torn writes). */
void
appendRaw(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/** An in-process daemon on an ephemeral socket, torn down on destruction. */
struct Daemon
{
    std::string socketPath;
    std::string storePath;
    std::unique_ptr<ServeServer> server;
    std::thread thread;

    explicit Daemon(const std::string &tag, ServeServer::Options opt = {})
        : socketPath(tempPath(tag + ".sock")), storePath(opt.storePath)
    {
        fs::remove(socketPath);
        opt.socketPath = socketPath;
        opt.quiet = true;
        if (opt.jobs == 0)
            opt.jobs = 2;
        server = std::make_unique<ServeServer>(std::move(opt));
        std::string error;
        if (!server->start(error))
            PARA_FATAL("daemon start failed: %s", error.c_str());
        thread = std::thread([this] { server->run(); });
    }

    ~Daemon()
    {
        stop();
        fs::remove(socketPath);
    }

    void
    stop()
    {
        if (server)
            server->requestStop();
        if (thread.joinable())
            thread.join();
    }
};

ServeRequest
sweepRequest(const std::vector<std::string> &inputs,
             const std::vector<uint64_t> &windows)
{
    ServeRequest req;
    req.op = ServeRequest::Op::Sweep;
    req.inputs = inputs;
    req.windows = windows;
    return req;
}

/** Connect, send @p req, and parse the single response line. */
ServeResponse
ask(const Daemon &daemon, const ServeRequest &req)
{
    ServeClient client(daemon.socketPath);
    std::string error;
    EXPECT_TRUE(client.connect(error)) << error;
    std::string line;
    EXPECT_TRUE(client.roundTrip(renderServeRequest(req), line, error))
        << error;
    ServeResponse resp;
    EXPECT_TRUE(parseServeResponse(line, resp, error)) << error;
    return resp;
}

ResultKey
key(uint32_t traceCrc, uint32_t configKey, bool profiles = true)
{
    ResultKey k;
    k.traceCrc = traceCrc;
    k.configKey = configKey;
    k.profiles = profiles;
    return k;
}

std::string
readFile(const std::string &path)
{
    std::string bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    char buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, n);
    std::fclose(f);
    return bytes;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/** @p text with every @p from replaced by @p to. */
std::string
replaceAll(std::string text, const std::string &from, const std::string &to)
{
    for (size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size()))
        text.replace(at, from.size(), to);
    return text;
}

/** Run paragraph-sweep with @p args (shell-quoted by the caller) and
 *  return the document it prints. */
std::string
sweepCliDocument(const std::string &args)
{
    std::string cmd = std::string(PARAGRAPH_SWEEP_CLI_PATH) + " " + args +
                      " --no-timing --quiet 2>/dev/null";
    std::FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    char buf[65536];
    size_t n;
    while (pipe && (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    EXPECT_EQ(pipe ? pclose(pipe) : -1, 0) << cmd;
    return out;
}

/** Send @p req on a fresh connection and return the raw response line. */
std::string
askRaw(const Daemon &daemon, const ServeRequest &req)
{
    ServeClient client(daemon.socketPath);
    std::string error;
    std::string line;
    EXPECT_TRUE(client.connect(error)) << error;
    EXPECT_TRUE(client.roundTrip(renderServeRequest(req), line, error))
        << error;
    return line;
}

/** Overwrite the one occurrence of @p from in the file at @p path with
 *  @p to, of the same length, in place (damage a stored digit). */
void
patchInPlace(const std::string &path, const std::string &from,
             const std::string &to)
{
    ASSERT_EQ(from.size(), to.size());
    const std::string bytes = readFile(path);
    const size_t at = bytes.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    ASSERT_EQ(bytes.find(from, at + 1), std::string::npos) << from;
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(at), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(to.data(), 1, to.size(), f), to.size());
    std::fclose(f);
}

} // namespace

// --------------------------------------------------------------------------
// ResultStore

TEST(ResultStore, RoundTripsAndPersistsAcrossReopen)
{
    std::string path = tempPath("store_rt.jsonl");
    fs::remove(path);

    {
        ResultStore store(path);
        EXPECT_EQ(store.entries(), 0u);
        store.insert(key(1, 2), "{\"cell\": 1}");
        store.insert(key(1, 3), "cell\nwith\n\"escapes\"\\");
        std::string text;
        ASSERT_TRUE(store.lookup(key(1, 2), text));
        EXPECT_EQ(text, "{\"cell\": 1}");
        EXPECT_FALSE(store.lookup(key(9, 9), text));

        // Same content address: first write wins, nothing is appended.
        store.insert(key(1, 2), "{\"cell\": 1}");
        EXPECT_EQ(store.entries(), 2u);
    }

    ResultStore reopened(path);
    EXPECT_EQ(reopened.entries(), 2u);
    std::string text;
    ASSERT_TRUE(reopened.lookup(key(1, 3), text));
    EXPECT_EQ(text, "cell\nwith\n\"escapes\"\\");
    fs::remove(path);
}

TEST(ResultStore, ProfilesFlagIsPartOfTheAddress)
{
    std::string path = tempPath("store_prof.jsonl");
    fs::remove(path);
    ResultStore store(path);
    store.insert(key(1, 2, true), "with profiles");
    store.insert(key(1, 2, false), "without profiles");
    EXPECT_EQ(store.entries(), 2u);
    std::string text;
    ASSERT_TRUE(store.lookup(key(1, 2, false), text));
    EXPECT_EQ(text, "without profiles");
    fs::remove(path);
}

TEST(ResultStore, EvictedHotTextIsReReadFromDisk)
{
    std::string path = tempPath("store_lru.jsonl");
    fs::remove(path);
    ResultStore::Options opt;
    opt.memoryBudget = 64; // room for roughly one entry's text
    ResultStore store(path, opt);

    std::string big(50, 'a');
    std::string alsoBig(50, 'b');
    store.insert(key(1, 1), big);
    store.insert(key(2, 2), alsoBig); // evicts the first entry's hot text
    EXPECT_LE(store.hotBytes(), opt.memoryBudget);
    EXPECT_EQ(store.entries(), 2u);

    // Both still serve: one hot, one re-read (and re-validated) from disk.
    std::string text;
    ASSERT_TRUE(store.lookup(key(1, 1), text));
    EXPECT_EQ(text, big);
    ASSERT_TRUE(store.lookup(key(2, 2), text));
    EXPECT_EQ(text, alsoBig);
    fs::remove(path);
}

TEST(ResultStore, DamagedLinesAreSkippedNotFatal)
{
    std::string path = tempPath("store_damage.jsonl");
    fs::remove(path);
    {
        ResultStore store(path);
        store.insert(key(1, 1), "first");
    }
    appendRaw(path, "this is not json\n");
    appendRaw(path, "{\"trace_crc\": 2}\n"); // incomplete entry
    {
        ResultStore store(path); // warns twice, keeps going
        EXPECT_EQ(store.entries(), 1u);
        store.insert(key(3, 3), "after damage");
    }
    ResultStore reopened(path);
    EXPECT_EQ(reopened.entries(), 2u);
    std::string text;
    ASSERT_TRUE(reopened.lookup(key(1, 1), text));
    EXPECT_EQ(text, "first");
    ASSERT_TRUE(reopened.lookup(key(3, 3), text));
    EXPECT_EQ(text, "after damage");
    fs::remove(path);
}

TEST(ResultStore, DamagedCellTextIsAMissNotAHit)
{
    // One flipped digit inside a stored cell still parses, so only the
    // line's cell checksum can tell: loaded hot or re-read cold, the
    // damaged text must be a miss, and the recomputed cell re-appended.
    std::string path = tempPath("store_crc.jsonl");
    fs::remove(path);
    const std::string cell = "    {\n      \"critical_path\": 4042827\n    }";
    const std::string other = "    {\n      \"critical_path\": 17\n    }";
    {
        ResultStore store(path);
        store.insert(key(1, 1), cell);
    }
    patchInPlace(path, "4042827", "4042829");
    {
        ResultStore store(path); // the load path: warns, skips the line
        EXPECT_EQ(store.entries(), 0u);
        EXPECT_EQ(store.rejectedEntries(), 1u);
        std::string text;
        EXPECT_FALSE(store.lookup(key(1, 1), text));
        store.insert(key(1, 1), cell); // recomputed, appended again
        EXPECT_EQ(store.appends(), 1u);
    }
    {
        ResultStore store(path); // the newest line wins
        std::string text;
        ASSERT_TRUE(store.lookup(key(1, 1), text));
        EXPECT_EQ(text, cell);
        EXPECT_EQ(store.rejectedEntries(), 1u) << "the old line still fails";
    }
    fs::remove(path);

    // The cold path: damage lands after the entry was evicted to disk.
    ResultStore::Options opt;
    opt.memoryBudget = 1; // nothing stays hot
    {
        ResultStore store(path, opt);
        store.insert(key(1, 1), cell);
        store.insert(key(2, 2), other);
        EXPECT_EQ(store.hotBytes(), 0u);
        patchInPlace(path, "4042827", "4042829");
        std::string text;
        EXPECT_FALSE(store.lookup(key(1, 1), text));
        EXPECT_EQ(store.coldReads(), 1u);
        EXPECT_EQ(store.rejectedEntries(), 1u);
        EXPECT_EQ(store.entries(), 1u) << "the damaged entry is dropped";
        ASSERT_TRUE(store.lookup(key(2, 2), text));
        EXPECT_EQ(text, other);

        store.insert(key(1, 1), cell);
        EXPECT_EQ(store.appends(), 3u);
        ASSERT_TRUE(store.lookup(key(1, 1), text));
        EXPECT_EQ(text, cell);
    }

    // A line written before lines carried "cell_crc" still loads.
    appendRaw(path, "{\"trace_crc\": 5, \"config_key\": 6, \"profiles\": "
                    "true, \"cell\": \"legacy \\\"cell\\\"\"}\n");
    ResultStore reopened(path, opt);
    EXPECT_EQ(reopened.entries(), 3u);
    EXPECT_EQ(reopened.rejectedEntries(), 1u);
    std::string text;
    ASSERT_TRUE(reopened.lookup(key(5, 6), text));
    EXPECT_EQ(text, "legacy \"cell\"");
    ASSERT_TRUE(reopened.lookup(key(1, 1), text));
    EXPECT_EQ(text, cell);
    fs::remove(path);
}

TEST(ResultStore, BudgetKeepsTheMostRecentlyUsedHot)
{
    // Three equal entries under a budget of two: the one looked up last
    // stays hot, so the least recently used goes cold. Damaging both
    // lines on disk proves which is which: the hot text still serves, the
    // cold one is re-read, fails its checksum and misses.
    std::string path = tempPath("store_mru.jsonl");
    fs::remove(path);
    const std::string a = "cell alpha 1111";
    const std::string b = "cell bravo 2222";
    const std::string c = "cell charl 3333";
    ResultStore::Options opt;
    opt.memoryBudget = 2 * a.size();
    ResultStore store(path, opt);
    store.insert(key(1, 1), a);
    store.insert(key(2, 2), b);
    std::string text;
    ASSERT_TRUE(store.lookup(key(1, 1), text)); // a is now the newest use
    store.insert(key(3, 3), c);                 // evicts b, not a
    EXPECT_EQ(store.hotBytes(), 2 * a.size());
    EXPECT_EQ(store.coldReads(), 0u);

    patchInPlace(path, "1111", "1112");
    patchInPlace(path, "2222", "2223");
    ASSERT_TRUE(store.lookup(key(1, 1), text));
    EXPECT_EQ(text, a) << "a hot entry serves from memory";
    EXPECT_EQ(store.coldReads(), 0u);
    EXPECT_FALSE(store.lookup(key(2, 2), text))
        << "the evicted entry is re-read and rejected";
    EXPECT_EQ(store.coldReads(), 1u);
    EXPECT_EQ(store.rejectedEntries(), 1u);
    ASSERT_TRUE(store.lookup(key(3, 3), text));
    EXPECT_EQ(text, c);
    fs::remove(path);
}

TEST(ResultStore, NonCanonicalEscapesServeCanonicalBytes)
{
    // A hand-written line may escape what the writer leaves alone; the
    // store serves the bytes a fresh render would, checksummed as such.
    std::string path = tempPath("store_escapes.jsonl");
    fs::remove(path);
    { ResultStore store(path); }
    appendRaw(path, "{\"trace_crc\": 1, \"config_key\": 2, \"profiles\": "
                    "true, \"cell\": \"a\\/b \\u0041\\u0009\\\"\"}\n");
    ResultStore store(path);
    ResultStore::WireText wire = store.lookupWire(key(1, 2));
    ASSERT_TRUE(wire);
    EXPECT_EQ(*wire, "a/b A\\t\\\"");
    std::string text;
    ASSERT_TRUE(store.lookup(key(1, 2), text));
    EXPECT_EQ(text, "a/b A\t\"");

    // Compaction writes the canonical bytes, with their checksum.
    std::string error;
    ASSERT_TRUE(store.compact(error)) << error;
    EXPECT_NE(readFile(path).find("\"cell_crc\": "), std::string::npos);
    ResultStore reopened(path);
    EXPECT_EQ(reopened.rejectedEntries(), 0u);
    wire = reopened.lookupWire(key(1, 2));
    ASSERT_TRUE(wire);
    EXPECT_EQ(*wire, "a/b A\\t\\\"");
    fs::remove(path);
}

TEST(ResultStore, LookupsShareTheHotTextAndEvictionLeavesItToHolders)
{
    std::string path = tempPath("store_share.jsonl");
    fs::remove(path);
    ResultStore::Options opt;
    opt.memoryBudget = 40;
    ResultStore store(path, opt);
    const std::string first(30, 'x');
    store.insert(key(1, 1), first);
    ResultStore::WireText held = store.lookupWire(key(1, 1));
    ResultStore::WireText again = store.lookupWire(key(1, 1));
    ASSERT_TRUE(held);
    EXPECT_EQ(held.get(), again.get()) << "a hit copies nothing";

    store.insert(key(2, 2), std::string(30, 'y')); // evicts the first
    EXPECT_EQ(store.hotBytes(), 30u);
    EXPECT_EQ(*held, first) << "a holder keeps an evicted text";
    ResultStore::WireText reread = store.lookupWire(key(1, 1));
    ASSERT_TRUE(reread);
    EXPECT_NE(reread.get(), held.get());
    EXPECT_EQ(*reread, first);
    fs::remove(path);
}

TEST(ResultStore, TornFinalLineIsDroppedAndSealed)
{
    std::string path = tempPath("store_torn.jsonl");
    fs::remove(path);
    {
        ResultStore store(path);
        store.insert(key(1, 1), "whole");
    }
    // A crash mid-append: the last line has no terminating newline.
    appendRaw(path, "{\"trace_crc\": 7, \"config_key\": 8, \"profi");
    {
        ResultStore store(path);
        EXPECT_EQ(store.entries(), 1u); // the fragment is not indexed
        // New inserts must start a clean line, not extend the fragment.
        store.insert(key(2, 2), "post-crash");
    }
    ResultStore reopened(path);
    EXPECT_EQ(reopened.entries(), 2u);
    std::string text;
    ASSERT_TRUE(reopened.lookup(key(1, 1), text));
    EXPECT_EQ(text, "whole");
    ASSERT_TRUE(reopened.lookup(key(2, 2), text));
    EXPECT_EQ(text, "post-crash");
    fs::remove(path);
}

TEST(ResultStore, RejectsAForeignFile)
{
    std::string path = tempPath("store_foreign.jsonl");
    fs::remove(path);
    appendRaw(path, "{\"schema\": \"something-else\"}\n");
    EXPECT_THROW(ResultStore{path}, FatalError);
    fs::remove(path);
}

TEST(ResultStore, SyncPolicyControlsFsyncCadence)
{
    std::string path = tempPath("store_sync.jsonl");
    fs::remove(path);
    {
        ResultStore::Options opt;
        opt.syncPolicy = SyncPolicy::Cell;
        ResultStore store(path, opt);
        store.insert(key(1, 1), "a");
        store.insert(key(2, 2), "b");
        EXPECT_EQ(store.appends(), 2u);
        EXPECT_EQ(store.syncs(), 2u); // one fsync per acknowledged entry
    }
    fs::remove(path);
    {
        ResultStore::Options opt;
        opt.syncPolicy = SyncPolicy::Interval;
        opt.syncIntervalSeconds = 3600.0; // never inside this test
        ResultStore store(path, opt);
        store.insert(key(1, 1), "a");
        EXPECT_EQ(store.syncs(), 0u);
    }
    fs::remove(path);
}

TEST(ResultStore, CompactionDropsDamageAndKeepsEveryLiveEntry)
{
    std::string path = tempPath("store_compact.jsonl");
    fs::remove(path);
    {
        ResultStore store(path);
        store.insert(key(1, 1), "first");
        store.insert(key(2, 2), "second");
    }
    appendRaw(path, "damage that every future load would re-skip\n");
    appendRaw(path, "{\"trace_crc\": 9}\n");

    ResultStore store(path);
    ASSERT_EQ(store.entries(), 2u);
    long before = store.diskBytes();
    std::string error;
    ASSERT_TRUE(store.compact(error)) << error;
    EXPECT_EQ(store.compactions(), 1u);
    EXPECT_LT(store.diskBytes(), before) << "dead bytes must be gone";
    EXPECT_EQ(store.entries(), 2u);

    // Live entries survive in place and the store keeps appending.
    std::string text;
    ASSERT_TRUE(store.lookup(key(1, 1), text));
    EXPECT_EQ(text, "first");
    store.insert(key(3, 3), "post-compact");
    ASSERT_TRUE(store.lookup(key(3, 3), text));
    EXPECT_EQ(text, "post-compact");

    ResultStore reopened(path);
    EXPECT_EQ(reopened.entries(), 3u);
    ASSERT_TRUE(reopened.lookup(key(2, 2), text));
    EXPECT_EQ(text, "second");
    fs::remove(path);
}

TEST(ResultStore, CompactionRepairsAFailedAppend)
{
    std::string path = tempPath("store_repair.jsonl");
    fs::remove(path);
    failpoint::reset();
    ResultStore store(path);
    store.insert(key(1, 1), "good");

    // A torn append flips the store into its degraded no-caching mode...
    std::string error;
    ASSERT_TRUE(failpoint::configure("store.append.torn=once", error))
        << error;
    store.insert(key(2, 2), "torn");
    failpoint::reset();
    std::string text;
    EXPECT_FALSE(store.lookup(key(2, 2), text));
    store.insert(key(3, 3), "while degraded"); // dropped, not appended
    EXPECT_FALSE(store.lookup(key(3, 3), text));

    // ...and a successful compaction is the repair path: the fragment is
    // rewritten away and appends work again.
    ASSERT_TRUE(store.compact(error)) << error;
    store.insert(key(3, 3), "after repair");
    ASSERT_TRUE(store.lookup(key(3, 3), text));
    EXPECT_EQ(text, "after repair");
    ASSERT_TRUE(store.lookup(key(1, 1), text));
    EXPECT_EQ(text, "good");

    ResultStore reopened(path);
    EXPECT_EQ(reopened.entries(), 2u);
    fs::remove(path);
}

TEST(ResultStore, AutoCompactionTriggersOnTheConfiguredCadence)
{
    std::string path = tempPath("store_autocompact.jsonl");
    fs::remove(path);
    ResultStore::Options opt;
    opt.compactEveryAppends = 3;
    ResultStore store(path, opt);
    store.insert(key(1, 1), "a");
    store.insert(key(2, 2), "b");
    EXPECT_EQ(store.compactions(), 0u);
    store.insert(key(3, 3), "c");
    EXPECT_EQ(store.compactions(), 1u);
    EXPECT_EQ(store.entries(), 3u);
    std::string text;
    ASSERT_TRUE(store.lookup(key(2, 2), text));
    EXPECT_EQ(text, "b");
    fs::remove(path);
}

// --------------------------------------------------------------------------
// Protocol

TEST(ServeProtocol, SweepRequestRoundTrips)
{
    ServeRequest req = sweepRequest({"xlisp", "a b.ptrc"}, {16, 0});
    req.renames = {"none", "data"};
    req.syscalls = {"stall"};
    req.predictors = {"perfect", "wrong"};
    req.fus = {0, 2};
    req.maxInstructions = 1234;
    req.profiles = false;
    req.small = true;

    ServeRequest back;
    std::string error;
    ASSERT_TRUE(parseServeRequest(renderServeRequest(req), back, error))
        << error;
    EXPECT_EQ(back.op, ServeRequest::Op::Sweep);
    EXPECT_EQ(back.inputs, req.inputs);
    EXPECT_EQ(back.windows, req.windows);
    EXPECT_EQ(back.renames, req.renames);
    EXPECT_EQ(back.syscalls, req.syscalls);
    EXPECT_EQ(back.predictors, req.predictors);
    EXPECT_EQ(back.fus, req.fus);
    EXPECT_EQ(back.maxInstructions, 1234u);
    EXPECT_FALSE(back.profiles);
    EXPECT_TRUE(back.small);

    engine::SweepArgs args = toSweepArgs(back);
    EXPECT_EQ(args.inputs, req.inputs);
    EXPECT_FALSE(args.json.timing) << "served documents never carry timing";
}

TEST(ServeProtocol, RejectsBadRequests)
{
    ServeRequest req;
    std::string error;
    EXPECT_FALSE(parseServeRequest("not json", req, error));
    EXPECT_FALSE(parseServeRequest(
        "{\"schema\": \"wrong-schema\", \"op\": \"ping\"}", req, error));
    EXPECT_FALSE(parseServeRequest(
        "{\"schema\": \"paragraph-serve-v1\", \"op\": \"dance\"}", req,
        error));
    // A sweep with no inputs is refused at parse time.
    EXPECT_FALSE(parseServeRequest(
        "{\"schema\": \"paragraph-serve-v1\", \"op\": \"sweep\"}", req,
        error));
}

TEST(ServeProtocol, ResponsesRoundTrip)
{
    ServeResponse resp;
    std::string error;
    ASSERT_TRUE(parseServeResponse(
        renderSweepResponse(6, 1, 4, 1, "{\"cells\": []}"), resp, error))
        << error;
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.op, "sweep");
    EXPECT_EQ(resp.cellsTotal, 6u);
    EXPECT_EQ(resp.cellsFailed, 1u);
    EXPECT_EQ(resp.cellsCached, 4u);
    EXPECT_EQ(resp.cellsComputed, 1u);
    EXPECT_EQ(resp.document, "{\"cells\": []}");

    ASSERT_TRUE(parseServeResponse(renderAckResponse("ping"), resp, error));
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.op, "ping");

    ASSERT_TRUE(
        parseServeResponse(renderErrorResponse("bad \"axis\""), resp, error));
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error, "bad \"axis\"");
}

TEST(ServeProtocol, HealthAndBusyResponsesRoundTrip)
{
    ServeResponse health;
    health.status = "ok";
    health.op = "health";
    health.pendingCells = 3;
    health.activeSweeps = 1;
    health.workers = 4;
    health.storeEntries = 10;
    health.storeDiskBytes = 4096;
    health.storeAppends = 12;
    health.storeSyncs = 5;
    health.storeCompactions = 2;
    health.failpointsActive = 1;
    health.failpointFires = 7;
    health.storeSync = "interval";

    ServeResponse back;
    std::string error;
    ASSERT_TRUE(
        parseServeResponse(renderHealthResponse(health), back, error))
        << error;
    EXPECT_TRUE(back.ok());
    EXPECT_EQ(back.op, "health");
    EXPECT_EQ(back.pendingCells, 3u);
    EXPECT_EQ(back.activeSweeps, 1u);
    EXPECT_EQ(back.workers, 4u);
    EXPECT_EQ(back.storeEntries, 10u);
    EXPECT_EQ(back.storeDiskBytes, 4096u);
    EXPECT_EQ(back.storeAppends, 12u);
    EXPECT_EQ(back.storeSyncs, 5u);
    EXPECT_EQ(back.storeCompactions, 2u);
    EXPECT_EQ(back.failpointsActive, 1u);
    EXPECT_EQ(back.failpointFires, 7u);
    EXPECT_EQ(back.storeSync, "interval");

    ASSERT_TRUE(parseServeResponse(renderBusyResponse(250), back, error));
    EXPECT_FALSE(back.ok());
    EXPECT_TRUE(back.busy());
    EXPECT_EQ(back.retryAfterMs, 250u);

    // Failpoint request lines round-trip their spec and seed.
    ServeRequest arm;
    arm.op = ServeRequest::Op::Failpoint;
    arm.failpointSpec = "store.sync=prob:0.25;serve.read=once:2";
    arm.failpointSeed = 42;
    arm.hasFailpointSeed = true;
    ServeRequest parsed;
    ASSERT_TRUE(
        parseServeRequest(renderServeRequest(arm), parsed, error))
        << error;
    EXPECT_EQ(parsed.op, ServeRequest::Op::Failpoint);
    EXPECT_EQ(parsed.failpointSpec, arm.failpointSpec);
    EXPECT_TRUE(parsed.hasFailpointSeed);
    EXPECT_EQ(parsed.failpointSeed, 42u);
}

// --------------------------------------------------------------------------
// Daemon end-to-end (golden traces over a real socket)

TEST(ServeDaemon, AnswersPingAndStats)
{
    Daemon daemon("ping");
    ServeRequest ping;
    ping.op = ServeRequest::Op::Ping;
    EXPECT_TRUE(ask(daemon, ping).ok());

    ServeRequest stats;
    stats.op = ServeRequest::Op::Stats;
    ServeResponse resp = ask(daemon, stats);
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.op, "stats");
    EXPECT_GE(resp.requests, 2u);
}

TEST(ServeDaemon, MalformedLinesGetErrorResponsesNotDisconnects)
{
    Daemon daemon("badline");
    ServeClient client(daemon.socketPath);
    std::string error;
    ASSERT_TRUE(client.connect(error)) << error;
    std::string line;
    ASSERT_TRUE(client.roundTrip("definitely not json", line, error))
        << error;
    ServeResponse resp;
    ASSERT_TRUE(parseServeResponse(line, resp, error)) << error;
    EXPECT_FALSE(resp.ok());

    // The connection is still usable afterwards.
    ServeRequest ping;
    ping.op = ServeRequest::Op::Ping;
    ASSERT_TRUE(client.roundTrip(renderServeRequest(ping), line, error));
    ASSERT_TRUE(parseServeResponse(line, resp, error)) << error;
    EXPECT_TRUE(resp.ok());
}

TEST(ServeDaemon, WarmSweepIsFullyCachedAndByteIdentical)
{
    std::string store = tempPath("warm.store");
    fs::remove(store);
    ServeServer::Options opt;
    opt.storePath = store;
    Daemon daemon("warm", opt);

    ServeRequest req =
        sweepRequest({goldenTrace("xlisp-800.ptrc")}, {16, 64});
    ServeResponse cold = ask(daemon, req);
    ASSERT_TRUE(cold.ok()) << cold.error;
    EXPECT_EQ(cold.cellsTotal, 2u);
    EXPECT_EQ(cold.cellsComputed, 2u);
    EXPECT_EQ(cold.cellsCached, 0u);
    EXPECT_EQ(cold.cellsFailed, 0u);
    EXPECT_NE(cold.document.find("\"cells\""), std::string::npos);

    ServeResponse warm = ask(daemon, req);
    ASSERT_TRUE(warm.ok()) << warm.error;
    EXPECT_EQ(warm.cellsCached, 2u);
    EXPECT_EQ(warm.cellsComputed, 0u);
    EXPECT_EQ(warm.document, cold.document)
        << "cached cells must replay the original bytes";
    fs::remove(store);
}

TEST(ServeDaemon, OverlappingGridsReuseTheIntersection)
{
    std::string store = tempPath("overlap.store");
    fs::remove(store);
    ServeServer::Options opt;
    opt.storePath = store;
    Daemon daemon("overlap", opt);

    std::string input = goldenTrace("matrix300-600.ptrc");
    ASSERT_TRUE(ask(daemon, sweepRequest({input}, {16, 64})).ok());

    // A *different* request whose grid overlaps the first: the shared
    // cells come from the cache, only the new window is computed.
    ServeResponse resp = ask(daemon, sweepRequest({input}, {16, 64, 256}));
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.cellsTotal, 3u);
    EXPECT_EQ(resp.cellsCached, 2u);
    EXPECT_EQ(resp.cellsComputed, 1u);
    fs::remove(store);
}

TEST(ServeDaemon, ServesConcurrentClientsOverOneScheduler)
{
    std::string store = tempPath("concurrent.store");
    fs::remove(store);
    ServeServer::Options opt;
    opt.storePath = store;
    Daemon daemon("concurrent", opt);

    // Both clients sweep the same trace (different grids) at once; the
    // shared repository captures it once and both answers must be right.
    std::string input = goldenTrace("xlisp-800.ptrc");
    ServeResponse a, b;
    std::thread ta([&] { a = ask(daemon, sweepRequest({input}, {16, 64})); });
    std::thread tb(
        [&] { b = ask(daemon, sweepRequest({input}, {256, 0})); });
    ta.join();
    tb.join();
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_EQ(a.cellsFailed, 0u);
    EXPECT_EQ(b.cellsFailed, 0u);

    // Every computed cell is now addressable by any client.
    ServeResponse again =
        ask(daemon, sweepRequest({input}, {16, 64, 256, 0}));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.cellsCached, 4u);
    EXPECT_EQ(again.cellsComputed, 0u);
    fs::remove(store);
}

TEST(ServeDaemon, SmallConcurrentRequestsSpreadOverIdleWorkers)
{
    // Two clients each ask a --jobs=4 --group=4 daemon for 4 unseen cells
    // of one input. --group caps a pass instead of filling it: with at
    // most 8 cells queued, no pass takes more than ceil(8 / 4) = 2, so the
    // cells spread over at least 4 passes where a filling scheduler ran
    // two 4-engine passes on 2 of the 4 workers. Each document still
    // equals paragraph-sweep's.
    std::string store = tempPath("spread.store");
    fs::remove(store);
    ServeServer::Options opt;
    opt.storePath = store;
    opt.jobs = 4;
    opt.groupSize = 4;
    Daemon daemon("spread", opt);

    const std::string input = goldenTrace("xlisp-800.ptrc");
    ServeResponse a, b;
    std::thread ta(
        [&] { a = ask(daemon, sweepRequest({input}, {16, 64, 256, 0})); });
    std::thread tb([&] {
        b = ask(daemon, sweepRequest({input}, {32, 128, 512, 1024}));
    });
    ta.join();
    tb.join();
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_EQ(a.cellsComputed, 4u);
    EXPECT_EQ(b.cellsComputed, 4u);
    EXPECT_EQ(a.document, sweepCliDocument("--inputs=" + input +
                                           " --windows=16,64,256,0"));
    EXPECT_EQ(b.document, sweepCliDocument("--inputs=" + input +
                                           " --windows=32,128,512,1024"));

    ServeRequest stats;
    stats.op = ServeRequest::Op::Stats;
    ServeResponse resp = ask(daemon, stats);
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_GE(resp.fusedGroups, 4u);
    fs::remove(store);
}

TEST(ServeDaemon, SurvivesClientDisconnectMidJobAndKeepsTheCells)
{
    std::string store = tempPath("disconnect.store");
    fs::remove(store);
    ServeServer::Options opt;
    opt.storePath = store;
    Daemon daemon("disconnect", opt);

    ServeRequest req =
        sweepRequest({goldenTrace("matrix300-600.ptrc")}, {16, 64});
    {
        // Fire the sweep and vanish without reading the response.
        ServeClient client(daemon.socketPath);
        std::string error;
        ASSERT_TRUE(client.connect(error)) << error;
        ASSERT_TRUE(client.sendLine(renderServeRequest(req), error)) << error;
    }

    // The daemon must still be serving, and the abandoned job's completed
    // cells stay in the store: re-asking soon costs nothing new. (The first
    // re-ask may overlap the abandoned computation; the one after that must
    // be fully cached.)
    ServeRequest ping;
    ping.op = ServeRequest::Op::Ping;
    EXPECT_TRUE(ask(daemon, ping).ok());
    ServeResponse first = ask(daemon, req);
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_EQ(first.cellsFailed, 0u);
    ServeResponse second = ask(daemon, req);
    ASSERT_TRUE(second.ok()) << second.error;
    EXPECT_EQ(second.cellsCached, 2u);
    EXPECT_EQ(second.document, first.document);
    fs::remove(store);
}

TEST(ServeDaemon, RestartReServesEverythingFromTheStore)
{
    std::string store = tempPath("restart.store");
    fs::remove(store);
    ServeRequest req = sweepRequest(
        {goldenTrace("xlisp-800.ptrc"), goldenTrace("matrix300-600.ptrc")},
        {16, 64});

    std::string coldDocument;
    {
        ServeServer::Options opt;
        opt.storePath = store;
        Daemon daemon("restart1", opt);
        ServeResponse cold = ask(daemon, req);
        ASSERT_TRUE(cold.ok()) << cold.error;
        EXPECT_EQ(cold.cellsComputed, 4u);
        coldDocument = cold.document;
    } // daemon stops; only the store file survives

    ServeServer::Options opt;
    opt.storePath = store;
    Daemon daemon("restart2", opt);
    ServeResponse warm = ask(daemon, req);
    ASSERT_TRUE(warm.ok()) << warm.error;
    EXPECT_EQ(warm.cellsCached, 4u);
    EXPECT_EQ(warm.cellsComputed, 0u);
    EXPECT_EQ(warm.document, coldDocument);
    fs::remove(store);
}

TEST(ServeDaemon, ShutdownOpStopsTheDaemon)
{
    Daemon daemon("shutdown");
    ServeRequest req;
    req.op = ServeRequest::Op::Shutdown;
    ServeResponse resp = ask(daemon, req);
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.op, "shutdown");
    daemon.thread.join(); // run() must return on its own
    EXPECT_FALSE(fs::exists(daemon.socketPath));
}

TEST(ServeDaemon, WorksWithoutAPersistentStore)
{
    Daemon daemon("nostore"); // storePath empty: every cell recomputed
    ServeRequest req = sweepRequest({goldenTrace("xlisp-800.ptrc")}, {16});
    ServeResponse first = ask(daemon, req);
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_EQ(first.cellsComputed, 1u);
    ServeResponse second = ask(daemon, req);
    ASSERT_TRUE(second.ok()) << second.error;
    EXPECT_EQ(second.cellsCached, 0u);
    EXPECT_EQ(second.cellsComputed, 1u);
    EXPECT_EQ(second.document, first.document)
        << "determinism does not depend on the cache";
}

TEST(ServeDaemon, RejectsAScaleMismatch)
{
    ServeServer::Options opt;
    opt.small = true;
    Daemon daemon("scale", opt);
    ServeRequest req = sweepRequest({"xlisp"}, {16});
    req.small = false;
    ServeResponse resp = ask(daemon, req);
    EXPECT_FALSE(resp.ok());
    EXPECT_NE(resp.error.find("small"), std::string::npos);
}

TEST(ServeDaemon, HoldsNoTraceForSimulatedInputs)
{
    // Analogs are simulated per pass and keyed by a streaming checksum:
    // serving them leaves no capture resident, and a re-ask is all hits.
    std::string store = tempPath("simulated.store");
    fs::remove(store);
    ServeServer::Options opt;
    opt.small = true;
    opt.storePath = store;
    Daemon daemon("simulated", opt);
    ServeRequest req = sweepRequest({"xlisp", "cc1"}, {16, 64});
    req.small = true;
    ServeResponse first = ask(daemon, req);
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_EQ(first.cellsComputed, 4u);

    ServeRequest stats;
    stats.op = ServeRequest::Op::Stats;
    ServeResponse resp = ask(daemon, stats);
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.traceCachedInputs, 0u);
    EXPECT_EQ(resp.traceCachedBytes, 0u);

    ServeResponse again = ask(daemon, req);
    ASSERT_TRUE(again.ok()) << again.error;
    EXPECT_EQ(again.cellsCached, 4u);
    EXPECT_EQ(again.document, first.document);
    fs::remove(store);
}

TEST(ServeDaemon, CachedCellsRebindGridCoordinates)
{
    // A store entry is shared by content address across *different* grids,
    // where the same cell can sit at different input/config coordinates.
    // The spliced fragment must carry the requesting grid's indices, not
    // the indices of whichever sweep computed it first (regression: the
    // chaos harness caught cache hits leaking foreign input_index /
    // config_index values into otherwise clean documents).
    std::string store = tempPath("rebind.store");
    fs::remove(store);
    ServeServer::Options opt;
    opt.storePath = store;
    Daemon daemon("rebind", opt);

    std::string xlisp = goldenTrace("xlisp-800.ptrc");
    std::string matrix = goldenTrace("matrix300-600.ptrc");

    // Populate the store from a grid where matrix/window=64 sits at
    // input_index 1, config_index 1.
    ASSERT_TRUE(ask(daemon, sweepRequest({xlisp, matrix}, {16, 64})).ok());

    // The same cell served at coordinates (0, 0) must be byte-identical
    // to a cache-less computation of that one-cell grid.
    Daemon fresh("rebind.fresh"); // no store: computes from scratch
    ServeResponse want = ask(fresh, sweepRequest({matrix}, {64}));
    ASSERT_TRUE(want.ok()) << want.error;

    ServeResponse got = ask(daemon, sweepRequest({matrix}, {64}));
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.cellsCached, 1u);
    EXPECT_EQ(got.document, want.document)
        << "cache hits must rebind input_index/config_index to the "
           "requesting grid";

    // The same records under another input name: the xlisp analog and a
    // `.ptrc` of its small run share a content key, so the file's cells
    // hit the analog's entries and must still name the file.
    std::string smallStore = tempPath("rebind_small.store");
    fs::remove(smallStore);
    ServeServer::Options smallOpt;
    smallOpt.small = true;
    Daemon smallFresh("rebind.small.fresh", smallOpt);
    smallOpt.storePath = smallStore;
    Daemon smallDaemon("rebind.small", smallOpt);
    std::string xlispFile = tempPath("rebind_xlisp") + ".ptrc";
    {
        engine::TraceRepository::Options ro;
        ro.scale = workloads::Scale::Small;
        engine::TraceRepository repo(ro);
        trace::TraceFileWriter writer(xlispFile);
        for (const trace::TraceRecord &rec : repo.get("xlisp")->records())
            writer.write(rec);
        writer.close();
    }
    ServeRequest named = sweepRequest({"xlisp", xlisp, xlispFile}, {16, 64});
    named.small = true;
    ASSERT_TRUE(ask(smallDaemon, named).ok());
    ServeResponse namedWant = ask(smallFresh, named);
    ASSERT_TRUE(namedWant.ok()) << namedWant.error;
    ServeResponse namedGot = ask(smallDaemon, named);
    ASSERT_TRUE(namedGot.ok()) << namedGot.error;
    EXPECT_EQ(namedGot.cellsCached, 6u);
    EXPECT_EQ(namedGot.cellsFailed, 0u);
    EXPECT_EQ(namedGot.document, namedWant.document)
        << "cache hits must name the requesting grid's input";

    // The same config under another label: with one syscalls value the
    // axis drops out of the label, though the config (and its key) is the
    // one the two-valued grid stored first.
    ServeRequest labelled = sweepRequest({"xlisp"}, {32});
    labelled.small = true;
    labelled.syscalls = {"stall", "ignore"};
    ASSERT_TRUE(ask(smallDaemon, labelled).ok());
    labelled.syscalls.clear();
    ServeResponse labelWant = ask(smallFresh, labelled);
    ASSERT_TRUE(labelWant.ok()) << labelWant.error;
    ServeResponse labelGot = ask(smallDaemon, labelled);
    ASSERT_TRUE(labelGot.ok()) << labelGot.error;
    EXPECT_EQ(labelGot.cellsCached, 1u);
    EXPECT_EQ(labelGot.document, labelWant.document)
        << "cache hits must carry the requesting grid's config label";
    smallDaemon.stop();
    fs::remove(xlispFile);
    fs::remove(smallStore);
    fs::remove(store);
}

TEST(ServeDaemon, WireSpliceKeepsOddInputNamesByteIdentical)
{
    // An input path holding a quote, a backslash and a tab is escaped once
    // in the document and again in the response: the cold response (fresh
    // cells escaped), the warm one (heads escaped, stored tails spliced
    // verbatim) and the CLI's document escaped whole must all agree.
    std::string odd =
        (fs::temp_directory_path() /
         ("ps_odd \"q\\uote\ttab_" + std::to_string(::getpid()) + ".ptrc"))
            .string();
    fs::copy_file(goldenTrace("xlisp-800.ptrc"), odd,
                  fs::copy_options::overwrite_existing);
    std::string store = tempPath("odd.store");
    fs::remove(store);
    ServeServer::Options opt;
    opt.storePath = store;
    Daemon daemon("odd", opt);

    ServeRequest req = sweepRequest({odd}, {16, 64});
    const std::string cliDoc =
        sweepCliDocument("'--inputs=" + odd + "' --windows=16,64");
    ASSERT_NE(cliDoc.find("\\\"q\\\\uote\\ttab"), std::string::npos)
        << cliDoc;
    EXPECT_EQ(askRaw(daemon, req), renderSweepResponse(2, 0, 0, 2, cliDoc));
    EXPECT_EQ(askRaw(daemon, req), renderSweepResponse(2, 0, 2, 0, cliDoc));
    fs::remove(odd);
    fs::remove(store);
}

TEST(ServeDaemon, ExploreReServedFromTheStoreEqualsAStorelessDaemon)
{
    std::string store = tempPath("explore.store");
    fs::remove(store);
    ServeServer::Options opt;
    opt.storePath = store;
    Daemon daemon("explore", opt);
    Daemon fresh("explore.fresh");

    ServeRequest req = sweepRequest(
        {goldenTrace("xlisp-800.ptrc"), goldenTrace("matrix300-600.ptrc")},
        {4, 16, 64, 0});
    req.op = ServeRequest::Op::Explore;
    req.renames = {"none", "data"};
    ServeResponse want = ask(fresh, req);
    ASSERT_TRUE(want.ok()) << want.error;
    ServeResponse cold = ask(daemon, req);
    ASSERT_TRUE(cold.ok()) << cold.error;
    ServeResponse warm = ask(daemon, req);
    ASSERT_TRUE(warm.ok()) << warm.error;
    EXPECT_GT(warm.cellsExecuted, 0u);
    EXPECT_EQ(warm.cellsCached, warm.cellsExecuted)
        << "every measured cell re-serves from the store";
    EXPECT_EQ(warm.cellsComputed, 0u);
    EXPECT_EQ(cold.document, want.document);
    EXPECT_EQ(warm.document, want.document);
    fs::remove(store);
}

TEST(ServeDaemon, HandEditedStoreEscapesServeCanonicalBytes)
{
    std::string store = tempPath("escapes.store");
    fs::remove(store);
    ServeRequest req = sweepRequest({goldenTrace("xlisp-800.ptrc")}, {16, 64});
    std::string coldDocument;
    {
        ServeServer::Options opt;
        opt.storePath = store;
        Daemon daemon("escapes1", opt);
        ServeResponse cold = ask(daemon, req);
        ASSERT_TRUE(cold.ok()) << cold.error;
        coldDocument = cold.document;
    }
    // Escape what the writer leaves alone, as a hand edit might: every
    // '/' of the input path and one letter of each status field.
    std::string text = readFile(store);
    std::string edited = replaceAll(replaceAll(text, "/", "\\/"),
                                    "\\\"status\\\"",
                                    "\\\"st\\u0061tus\\\"");
    ASSERT_NE(edited, text);
    writeFile(store, edited);

    // Compared raw: a parsed response would decode a verbatim `\/` too.
    ServeServer::Options opt;
    opt.storePath = store;
    Daemon daemon("escapes2", opt);
    EXPECT_EQ(askRaw(daemon, req),
              renderSweepResponse(2, 0, 2, 0, coldDocument));
    ServeRequest probe;
    probe.op = ServeRequest::Op::Health;
    EXPECT_EQ(ask(daemon, probe).storeRejectedEntries, 0u);
    fs::remove(store);
}

TEST(ServeDaemon, EvictionUnderAlternatingClientsKeepsResponsesByteIdentical)
{
    // A store budget of about one entry: while one client's response
    // still holds stored texts, the other client's lookups evict them
    // from the store and re-read others. Every response must still equal
    // a storeless daemon's.
    std::string xlisp = goldenTrace("xlisp-800.ptrc");
    std::string matrix = goldenTrace("matrix300-600.ptrc");
    ServeRequest gridA = sweepRequest({xlisp, matrix}, {16, 64});
    ServeRequest gridB = sweepRequest({matrix}, {4, 256, 0});
    gridB.renames = {"none", "data"};
    std::string docA, docB;
    {
        Daemon fresh("evict.fresh");
        docA = ask(fresh, gridA).document;
        docB = ask(fresh, gridB).document;
    }
    ASSERT_FALSE(docA.empty());
    ASSERT_FALSE(docB.empty());

    std::string store = tempPath("evict.store");
    fs::remove(store);
    uint64_t entryBytes = 0;
    {
        ServeServer::Options opt;
        opt.storePath = store;
        Daemon warmup("evict.warmup", opt);
        ASSERT_TRUE(ask(warmup, gridA).ok());
        ASSERT_TRUE(ask(warmup, gridB).ok());
        ServeRequest stats;
        stats.op = ServeRequest::Op::Stats;
        ServeResponse resp = ask(warmup, stats);
        ASSERT_EQ(resp.storeEntries, 10u);
        entryBytes = resp.storeHotBytes / resp.storeEntries;
    }

    ServeServer::Options opt;
    opt.storePath = store;
    opt.storeMemoryBudget = entryBytes;
    Daemon daemon("evict", opt);
    const std::string lineA = renderSweepResponse(4, 0, 4, 0, docA);
    const std::string lineB = renderSweepResponse(6, 0, 6, 0, docB);
    constexpr int kRounds = 6;
    std::vector<std::string> mismatches;
    std::mutex mismatchMutex;
    auto client = [&](int first) {
        for (int round = 0; round < kRounds; ++round) {
            const bool a = (round + first) % 2 == 0;
            const std::string line = askRaw(daemon, a ? gridA : gridB);
            if (line != (a ? lineA : lineB)) {
                std::lock_guard<std::mutex> lock(mismatchMutex);
                mismatches.push_back(std::string(a ? "A" : "B") +
                                     " round " + std::to_string(round) +
                                     ": " + line.substr(0, 200));
            }
        }
    };
    std::thread one(client, 0);
    std::thread two(client, 1);
    one.join();
    two.join();
    EXPECT_TRUE(mismatches.empty()) << mismatches.front();

    ServeRequest probe;
    probe.op = ServeRequest::Op::Health;
    ServeResponse health = ask(daemon, probe);
    EXPECT_GT(health.storeColdReads, 0u) << "the budget forced re-reads";
    EXPECT_EQ(health.storeRejectedEntries, 0u);
    fs::remove(store);
}

namespace {
void
onAlarmTick(int)
{
    // Nothing: the point is the EINTR the delivery inflicts on whatever
    // syscall the serve stack is blocked in.
}
} // namespace

TEST(ServeDaemon, SurvivesAnEintrStorm)
{
    // A 5ms SIGALRM ticker (installed *without* SA_RESTART) peppers every
    // blocking syscall on both sides of the socket with EINTR for the
    // whole round trip; the client retries, the server's poll loop
    // retries, and the sweep must come back clean and byte-identical to
    // an undisturbed run.
    Daemon daemon("eintr");
    ServeRequest req = sweepRequest({goldenTrace("xlisp-800.ptrc")}, {16});
    ServeResponse calm = ask(daemon, req);
    ASSERT_TRUE(calm.ok()) << calm.error;

    struct sigaction sa, oldsa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onAlarmTick;
    sa.sa_flags = 0; // no SA_RESTART: every delivery is a real EINTR
    ASSERT_EQ(::sigaction(SIGALRM, &sa, &oldsa), 0);
    itimerval ticker = {};
    ticker.it_interval.tv_usec = 5000;
    ticker.it_value.tv_usec = 5000;
    ASSERT_EQ(::setitimer(ITIMER_REAL, &ticker, nullptr), 0);

    ServeResponse stormy = ask(daemon, req);

    itimerval off = {};
    ::setitimer(ITIMER_REAL, &off, nullptr);
    ::sigaction(SIGALRM, &oldsa, nullptr);

    ASSERT_TRUE(stormy.ok()) << stormy.error;
    EXPECT_EQ(stormy.cellsFailed, 0u);
    EXPECT_EQ(stormy.document, calm.document);
}

TEST(ServeDaemon, HealthReportsDurabilityAndLoadCounters)
{
    std::string store = tempPath("health.store");
    fs::remove(store);
    ServeServer::Options opt;
    opt.storePath = store;
    opt.storeSyncPolicy = SyncPolicy::Cell;
    Daemon daemon("health", opt);

    ASSERT_TRUE(
        ask(daemon, sweepRequest({goldenTrace("xlisp-800.ptrc")}, {16}))
            .ok());

    ServeRequest probe;
    probe.op = ServeRequest::Op::Health;
    ServeResponse health = ask(daemon, probe);
    ASSERT_TRUE(health.ok()) << health.error;
    EXPECT_EQ(health.op, "health");
    EXPECT_EQ(health.workers, 2u);
    EXPECT_EQ(health.activeSweeps, 0u);
    EXPECT_EQ(health.storeEntries, 1u);
    EXPECT_EQ(health.storeAppends, 1u);
    EXPECT_EQ(health.storeSyncs, 1u) << "Cell policy fsyncs per append";
    EXPECT_GT(health.storeDiskBytes, 0u);
    EXPECT_EQ(health.storeSync, "cell");
    EXPECT_EQ(health.storeColdReads, 0u) << "an unbudgeted store stays hot";
    EXPECT_EQ(health.storeRejectedEntries, 0u);
    fs::remove(store);
}

TEST(ServeDaemon, FailpointOpIsGatedAndResets)
{
    failpoint::reset();
    {
        Daemon locked("fp.locked"); // allowFailpoints defaults to off
        ServeRequest arm;
        arm.op = ServeRequest::Op::Failpoint;
        arm.failpointSpec = "serve.read=once";
        ServeResponse resp = ask(locked, arm);
        EXPECT_FALSE(resp.ok());
        EXPECT_NE(resp.error.find("failpoint"), std::string::npos);
        EXPECT_EQ(failpoint::activeSites(), 0u);
    }
    {
        ServeServer::Options opt;
        opt.allowFailpoints = true;
        Daemon open("fp.open", opt);
        ServeRequest arm;
        arm.op = ServeRequest::Op::Failpoint;
        arm.failpointSpec = "store.sync=after:1000000";
        ASSERT_TRUE(ask(open, arm).ok());
        EXPECT_EQ(failpoint::activeSites(), 1u);

        arm.failpointSpec.clear(); // empty spec = reset every site
        ASSERT_TRUE(ask(open, arm).ok());
        EXPECT_EQ(failpoint::activeSites(), 0u);

        arm.failpointSpec = "no.such.site=nonsense-policy";
        EXPECT_FALSE(ask(open, arm).ok());
    }
    failpoint::reset();
}

TEST(ServeDaemon, ShedsClientsPastTheConnectionCap)
{
    ServeServer::Options opt;
    opt.maxClients = 1;
    Daemon daemon("shed", opt);

    // First client occupies the only slot...
    ServeClient holder(daemon.socketPath);
    std::string error;
    ASSERT_TRUE(holder.connect(error)) << error;
    ServeRequest ping;
    std::string line;
    ASSERT_TRUE(
        holder.roundTrip(renderServeRequest(ping), line, error))
        << error;

    // ...so the second is turned away at accept with a retry hint.
    ServeResponse shed = ask(daemon, ping);
    EXPECT_TRUE(shed.busy());
    EXPECT_GT(shed.retryAfterMs, 0u);

    // Once the slot frees, service resumes.
    holder.close();
    for (int i = 0; i < 100; ++i) {
        ServeResponse again = ask(daemon, ping);
        if (again.ok())
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "daemon never recovered after the held connection closed";
}

TEST(ServeDaemon, RefusesOversizedRequestLines)
{
    ServeServer::Options opt;
    opt.maxRequestBytes = 256;
    Daemon daemon("cap", opt);

    ServeClient client(daemon.socketPath);
    std::string error;
    ASSERT_TRUE(client.connect(error)) << error;
    std::string huge(4096, 'x');
    std::string line;
    ASSERT_TRUE(client.roundTrip(huge, line, error)) << error;
    ServeResponse resp;
    ASSERT_TRUE(parseServeResponse(line, resp, error)) << error;
    EXPECT_FALSE(resp.ok());
    EXPECT_NE(resp.error.find("request"), std::string::npos);

    // A well-formed request on a fresh connection still serves.
    ServeRequest ping;
    EXPECT_TRUE(ask(daemon, ping).ok());
}

TEST(ServeDaemon, ReusedResponseBuffersLeakNoStaleBytes)
{
    // Store hits render into response buffers the daemon keeps between
    // requests. On one connection: a 32-cell hit, a 1-cell hit that reuses
    // its buffer, a hit whose render throws once the document is escaped
    // in, a malformed request and the 32-cell hit again. Each reply must
    // equal a fresh render of the same result.
    std::string store = tempPath("reuse.store");
    fs::remove(store);
    ServeServer::Options opt;
    opt.storePath = store;
    Daemon daemon("reuse", opt);
    Daemon fresh("reuse.fresh"); // no store: every document from scratch

    std::string xlisp = goldenTrace("xlisp-800.ptrc");
    std::string matrix = goldenTrace("matrix300-600.ptrc");
    ServeRequest big = sweepRequest({xlisp, matrix}, {4, 16, 64, 0});
    big.renames = {"none", "regs", "stack", "data"};
    ServeRequest small = sweepRequest({matrix}, {16});
    small.renames = {"none"};
    ServeResponse bigFresh = ask(fresh, big);
    ServeResponse smallFresh = ask(fresh, small);
    ASSERT_TRUE(bigFresh.ok()) << bigFresh.error;
    ASSERT_TRUE(smallFresh.ok()) << smallFresh.error;
    ASSERT_EQ(bigFresh.cellsTotal, 32u);
    ASSERT_TRUE(ask(daemon, big).ok()); // warm the store

    ServeClient client(daemon.socketPath);
    std::string error;
    std::string line;
    ASSERT_TRUE(client.connect(error)) << error;
    const std::string bigLine =
        renderSweepResponse(32, 0, 32, 0, bigFresh.document);

    ASSERT_TRUE(client.roundTrip(renderServeRequest(big), line, error))
        << error;
    EXPECT_EQ(line, bigLine);

    ASSERT_TRUE(client.roundTrip(renderServeRequest(small), line, error))
        << error;
    EXPECT_EQ(line, renderSweepResponse(1, 0, 1, 0, smallFresh.document));

    ASSERT_TRUE(failpoint::configure("serve.render=once", error)) << error;
    bool sent = client.roundTrip(renderServeRequest(big), line, error);
    failpoint::reset();
    ASSERT_TRUE(sent) << error;
    EXPECT_EQ(line, renderErrorResponse("std::bad_alloc"));

    ASSERT_TRUE(client.roundTrip("{\"schema\": ", line, error)) << error;
    EXPECT_EQ(line, renderErrorResponse("malformed request line"));

    ASSERT_TRUE(client.roundTrip(renderServeRequest(big), line, error))
        << error;
    EXPECT_EQ(line, bigLine);
    fs::remove(store);
}

TEST(ServeDaemon, AnswersCoalescedAndMultiMegabyteRequestLines)
{
    Daemon daemon("lines");
    ServeClient client(daemon.socketPath);
    std::string error;
    std::string line;
    ASSERT_TRUE(client.connect(error)) << error;
    ServeRequest ping;
    ping.op = ServeRequest::Op::Ping;
    ServeRequest stats;
    stats.op = ServeRequest::Op::Stats;

    // Two request lines in one write are answered in order. The daemon
    // skips empty lines, so an empty round trip just reads the next reply.
    ASSERT_TRUE(client.sendLine(renderServeRequest(ping) + "\n" +
                                    renderServeRequest(stats),
                                error))
        << error;
    ASSERT_TRUE(client.roundTrip("", line, error)) << error;
    EXPECT_EQ(line, renderAckResponse("ping"));
    ASSERT_TRUE(client.roundTrip("", line, error)) << error;
    ServeResponse resp;
    ASSERT_TRUE(parseServeResponse(line, resp, error)) << error;
    EXPECT_EQ(resp.op, "stats");

    // One 3 MB line arrives across hundreds of reads.
    std::string pingLine = renderServeRequest(ping);
    ASSERT_EQ(pingLine.back(), '}');
    pingLine.insert(pingLine.size() - 1, std::string(3 << 20, ' '));
    ASSERT_TRUE(client.roundTrip(pingLine, line, error)) << error;
    EXPECT_EQ(line, renderAckResponse("ping"));
}

TEST(ServeClient, ReassemblesCoalescedAndSplitResponseLines)
{
    // A scripted peer: two whole lines in one write, then, once the third
    // request is in, one multi-MB line in 1000-byte writes. Each round trip
    // must return its line intact, the second from bytes the first read
    // already buffered.
    std::string sock = tempPath("peer.sock");
    fs::remove(sock);
    int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listenFd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(sock.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
    ASSERT_EQ(::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listenFd, 1), 0);

    std::string bigLine(3 << 20, '\0');
    for (size_t i = 0; i < bigLine.size(); ++i)
        bigLine[i] = static_cast<char>('a' + i % 26);
    std::thread peer([&] {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            return;
        const char both[] = "first\nsecond\n";
        ::send(fd, both, sizeof(both) - 1, MSG_NOSIGNAL);
        int requests = 0;
        char c;
        while (requests < 3 && ::recv(fd, &c, 1, 0) == 1)
            requests += c == '\n';
        const std::string wire = bigLine + '\n';
        for (size_t at = 0; at < wire.size(); at += 1000) {
            size_t n = std::min<size_t>(1000, wire.size() - at);
            if (::send(fd, wire.data() + at, n, MSG_NOSIGNAL) !=
                static_cast<ssize_t>(n))
                break;
        }
        ::close(fd);
    });

    ServeClient client(sock);
    std::string error;
    std::string first, second, third;
    bool ok = client.connect(error) &&
              client.roundTrip("a", first, error) &&
              client.roundTrip("b", second, error) &&
              client.roundTrip("c", third, error);
    if (!client.connected())
        ::shutdown(listenFd, SHUT_RDWR); // never accepted: unblock the peer
    client.close();
    peer.join();
    ::close(listenFd);
    fs::remove(sock);
    ASSERT_TRUE(ok) << error;
    EXPECT_EQ(first, "first");
    EXPECT_EQ(second, "second");
    EXPECT_EQ(third.size(), bigLine.size());
    EXPECT_TRUE(third == bigLine);
}
