// paragraph-serve — a sweep daemon with a content-addressed result cache.
//
// Daemon mode (default) listens on an AF_UNIX socket, runs every client's
// grid cells through one shared trace-major scheduler (cells from
// different clients fuse when they share a trace), and remembers every
// completed cell in an append-only JSONL result store keyed by content:
// (trace CRC-32, canonical-config CRC-32, profiles flag). Any cell ever
// computed — by any client, before any restart — is served back
// byte-identically without re-analysis. Trace files stream into each pass
// as in paragraph-sweep, and no trace is copied into memory: a .ptrc stays
// mapped while it is unchanged on disk, a .ptrz is decoded by each pass.
// Each trace file is stat()ed per request and per pass, so one replaced,
// rewritten, truncated or deleted on disk is keyed and mapped again, and
// never answered from cells of its old content; its old mapping is
// dropped when the daemon next runs a pass or keys a trace file.
//
// Daemon usage:
//   paragraph-serve --socket=PATH [options]
//     --store=FILE           persistent result store (strongly recommended;
//                            omitting it caches nothing across requests)
//     --jobs=N               analysis worker threads (default: hardware)
//     --group=N              most configs fused into one pass (default:
//                            8); each pass takes a worker's share of the
//                            queued cells, so a small request spreads
//                            over idle workers and a deep queue from many
//                            clients still fuses up to N
//     --retries=N            extra attempts for ordinarily-failed cells
//     --deadline=SECONDS     per-attempt cell deadline
//     --small                serve workload inputs at reduced scale
//     --store-budget=BYTES   byte budget for hot result text, counted as
//                            stored: escaped, ~9% more than the cell text
//                            (the on-disk store itself is unbounded; cold
//                            entries are re-read on demand, and each line's
//                            "cell_crc" is checked on every load and
//                            re-read)
//     --store-sync=POLICY    none (default) | interval | cell: when store
//                            appends are fsynced to the device (every
//                            policy still flushes per entry, so a daemon
//                            crash loses nothing; the policy bounds what a
//                            machine crash can take)
//     --store-sync-interval=SECONDS
//                            minimum seconds between fsyncs under
//                            --store-sync=interval (default: 5)
//     --store-compact-every=N
//                            rewrite the store (dropping superseded and
//                            damaged lines) after every N appends, via
//                            tmp file + fsync + atomic rename
//     --io-timeout=SECONDS   per-connection read/write deadline; a client
//                            that stalls mid-line is disconnected
//     --max-request=BYTES    reject request lines larger than this
//     --max-pending=N        sweeps admitted concurrently; one more gets
//                            a "busy" response with a retry_after_ms hint
//     --max-clients=N        concurrent connections; one more is turned
//                            away at accept with a "busy" line
//     --allow-failpoints     honor failpoint-control requests (chaos
//                            tests only; never on a shared daemon)
//     --quiet                suppress per-request stderr lines
//   SIGINT/SIGTERM shut the daemon down gracefully: queued cells fail
//   fast, in-flight analyses stop at their next checkpoint, and the store
//   (flushed per completed cell) loses nothing. Exit status is 0.
//
// Client mode sends one request and prints the response:
//   paragraph-serve --client --socket=PATH --inputs=A,B --windows=16,64 ...
//     sweep axes as in paragraph-sweep: --inputs/--windows/--rename/
//     --syscalls/--predictors/--fus/--max/--small/--no-profiles
//     --explore              adaptive exploration instead of the full
//                            grid (engine::Explorer): the daemon measures
//                            only the cells the frontier needs, re-serving
//                            previously computed ones from the result
//                            store, and returns a "paragraph-explore-v1"
//                            document with dominance certificates
//     --knee-tol=T           explore knee tolerance (0 = exact frontier)
//     --out=FILE             write the sweep JSON document to FILE
//                            (default: stdout)
//     --ping | --stats | --health | --shutdown
//                            liveness / counters (cells cached and
//                            computed, fused_groups: passes run) /
//                            queue+store+failpoint probe / graceful stop
//     --failpoint=SPEC       arm "site=policy;..." failpoints in the
//                            daemon (empty SPEC resets); needs a daemon
//                            started with --allow-failpoints
//     --timeout=SECONDS      client-side socket deadline; a wedged daemon
//                            fails the request instead of hanging forever
//     --raw=LINE             send LINE verbatim, print the raw response
//     --quiet                suppress the stderr summary line
//   A "busy" response (daemon over --max-pending/--max-clients) prints
//   the daemon's retry hint and exits 3.
//
// Example (cold, then warm — the second run answers from the cache):
//   paragraph-serve --socket=/tmp/para.sock --store=/tmp/para-store.jsonl &
//   paragraph-serve --client --socket=/tmp/para.sock --inputs=xlisp
//       --windows=16,64 --max=200000 --out=cold.json
//   paragraph-serve --client --socket=/tmp/para.sock --inputs=xlisp
//       --windows=16,64 --max=200000 --out=warm.json
//   cmp cold.json warm.json   # byte-identical; warm run computed 0 cells
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/output_file.hpp"
#include "support/panic.hpp"
#include "support/string_utils.hpp"

using namespace paragraph;

namespace {

serve::ServeServer *g_server = nullptr;
volatile std::sig_atomic_t g_signal = 0;

void
onSignal(int sig)
{
    g_signal = sig;
    if (g_server)
        g_server->requestStop(); // async-signal-safe: atomic stores only
}

void
installSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: poll() must wake on the signal
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: paragraph-serve --socket=PATH [daemon options]\n"
        "       paragraph-serve --client --socket=PATH [request options]\n"
        "  daemon: --store=FILE  --jobs=N  --group=N (most per pass)\n"
        "          --retries=N\n"
        "          --deadline=SECONDS  --small\n"
        "          --store-budget=BYTES  --store-sync=none|interval|cell\n"
        "          --store-sync-interval=SECONDS  --store-compact-every=N\n"
        "          --io-timeout=SECONDS  --max-request=BYTES\n"
        "          --max-pending=N  --max-clients=N  --allow-failpoints\n"
        "          --quiet\n"
        "  client: sweep axes as paragraph-sweep (--inputs/--windows/\n"
        "          --rename/--syscalls/--predictors/--fus/--max/--small/\n"
        "          --no-profiles), --explore, --knee-tol=T,\n"
        "          --out=FILE, --timeout=SECONDS,\n"
        "          or one of --ping --stats --health --shutdown\n"
        "          --failpoint=SPEC --raw=LINE\n");
    std::exit(2);
}

struct ServeCliArgs
{
    bool client = false;
    std::string socketPath;
    std::string rawLine;
    std::string outPath;
    bool ping = false;
    bool stats = false;
    bool health = false;
    bool shutdown = false;
    bool quiet = false;
    bool explore = false;
    bool hasFailpointSpec = false;
    std::string failpointSpec;
    double clientTimeout = 0.0;
    serve::ServeRequest request;       // client sweep axes
    serve::ServeServer::Options server; // daemon options
};

bool
parseBytes(const std::string &value, size_t &out)
{
    int64_t n = 0;
    if (!parseInt(value, n) || n < 0)
        return false;
    out = static_cast<size_t>(n);
    return true;
}

bool
parseSeconds(const std::string &value, double &out)
{
    char *end = nullptr;
    out = std::strtod(value.c_str(), &end);
    return end && *end == '\0' && !value.empty() && out >= 0.0;
}

ServeCliArgs
parseArgs(int argc, char **argv)
{
    ServeCliArgs opt;
    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        int64_t n = 0;
        if (arg == "--client") {
            opt.client = true;
        } else if (startsWith(arg, "--socket=")) {
            opt.socketPath = arg.substr(9);
        } else if (startsWith(arg, "--store=")) {
            opt.server.storePath = arg.substr(8);
        } else if (startsWith(arg, "--jobs=") &&
                   parseInt(arg.substr(7), n) && n > 0) {
            opt.server.jobs = static_cast<unsigned>(n);
        } else if (startsWith(arg, "--group=") &&
                   parseInt(arg.substr(8), n) && n > 0) {
            opt.server.groupSize = static_cast<unsigned>(n);
        } else if (startsWith(arg, "--retries=") &&
                   parseInt(arg.substr(10), n) && n >= 0) {
            opt.server.maxRetries = static_cast<unsigned>(n);
        } else if (startsWith(arg, "--deadline=")) {
            char *end = nullptr;
            opt.server.cellDeadlineSeconds =
                std::strtod(arg.c_str() + 11, &end);
            if (!end || *end != '\0' ||
                opt.server.cellDeadlineSeconds < 0.0) {
                std::fprintf(stderr,
                             "paragraph-serve: bad --deadline value\n");
                usage();
            }
        } else if (startsWith(arg, "--store-budget=")) {
            if (!parseBytes(arg.substr(15), opt.server.storeMemoryBudget)) {
                std::fprintf(stderr,
                             "paragraph-serve: bad --store-budget value\n");
                usage();
            }
        } else if (startsWith(arg, "--store-sync-interval=")) {
            if (!parseSeconds(arg.substr(22),
                              opt.server.storeSyncIntervalSeconds)) {
                std::fprintf(
                    stderr,
                    "paragraph-serve: bad --store-sync-interval value\n");
                usage();
            }
        } else if (startsWith(arg, "--store-sync=")) {
            std::string policy = arg.substr(13);
            if (policy == "none") {
                opt.server.storeSyncPolicy = serve::SyncPolicy::None;
            } else if (policy == "interval") {
                opt.server.storeSyncPolicy = serve::SyncPolicy::Interval;
            } else if (policy == "cell") {
                opt.server.storeSyncPolicy = serve::SyncPolicy::Cell;
            } else {
                std::fprintf(stderr,
                             "paragraph-serve: bad --store-sync value "
                             "'%s' (none|interval|cell)\n",
                             policy.c_str());
                usage();
            }
        } else if (startsWith(arg, "--store-compact-every=")) {
            if (!parseBytes(arg.substr(22), opt.server.storeCompactEvery)) {
                std::fprintf(
                    stderr,
                    "paragraph-serve: bad --store-compact-every value\n");
                usage();
            }
        } else if (startsWith(arg, "--io-timeout=")) {
            if (!parseSeconds(arg.substr(13),
                              opt.server.ioTimeoutSeconds)) {
                std::fprintf(stderr,
                             "paragraph-serve: bad --io-timeout value\n");
                usage();
            }
        } else if (startsWith(arg, "--max-request=")) {
            if (!parseBytes(arg.substr(14), opt.server.maxRequestBytes)) {
                std::fprintf(stderr,
                             "paragraph-serve: bad --max-request value\n");
                usage();
            }
        } else if (startsWith(arg, "--max-pending=") &&
                   parseInt(arg.substr(14), n) && n >= 0) {
            opt.server.maxPendingSweeps = static_cast<unsigned>(n);
        } else if (startsWith(arg, "--max-clients=") &&
                   parseInt(arg.substr(14), n) && n >= 0) {
            opt.server.maxClients = static_cast<unsigned>(n);
        } else if (arg == "--allow-failpoints") {
            opt.server.allowFailpoints = true;
        } else if (startsWith(arg, "--timeout=")) {
            if (!parseSeconds(arg.substr(10), opt.clientTimeout)) {
                std::fprintf(stderr,
                             "paragraph-serve: bad --timeout value\n");
                usage();
            }
        } else if (arg == "--small") {
            opt.server.small = true;
            opt.request.small = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
            opt.server.quiet = true;
        } else if (arg == "--ping") {
            opt.ping = true;
        } else if (arg == "--stats") {
            opt.stats = true;
        } else if (arg == "--health") {
            opt.health = true;
        } else if (arg == "--shutdown") {
            opt.shutdown = true;
        } else if (startsWith(arg, "--failpoint=")) {
            opt.hasFailpointSpec = true;
            opt.failpointSpec = arg.substr(12);
        } else if (startsWith(arg, "--raw=")) {
            opt.rawLine = arg.substr(6);
        } else if (startsWith(arg, "--out=")) {
            opt.outPath = arg.substr(6);
        } else if (startsWith(arg, "--inputs=")) {
            for (const std::string &s : splitAndTrim(arg.substr(9), ','))
                if (!s.empty())
                    opt.request.inputs.push_back(s);
        } else if (startsWith(arg, "--windows=")) {
            for (const std::string &s : splitAndTrim(arg.substr(10), ',')) {
                if (!parseInt(s, n) || n < 0) {
                    std::fprintf(stderr,
                                 "paragraph-serve: bad --windows value "
                                 "'%s'\n",
                                 s.c_str());
                    usage();
                }
                opt.request.windows.push_back(static_cast<uint64_t>(n));
            }
        } else if (startsWith(arg, "--rename=")) {
            opt.request.renames = splitAndTrim(arg.substr(9), ',');
        } else if (startsWith(arg, "--syscalls=")) {
            opt.request.syscalls = splitAndTrim(arg.substr(11), ',');
        } else if (startsWith(arg, "--predictors=")) {
            opt.request.predictors = splitAndTrim(arg.substr(13), ',');
        } else if (startsWith(arg, "--fus=")) {
            for (const std::string &s : splitAndTrim(arg.substr(6), ',')) {
                if (!parseInt(s, n) || n < 0) {
                    std::fprintf(stderr,
                                 "paragraph-serve: bad --fus value '%s'\n",
                                 s.c_str());
                    usage();
                }
                opt.request.fus.push_back(static_cast<uint64_t>(n));
            }
        } else if (startsWith(arg, "--max=") && parseInt(arg.substr(6), n) &&
                   n >= 0) {
            opt.request.maxInstructions = static_cast<uint64_t>(n);
        } else if (arg == "--explore") {
            opt.explore = true;
        } else if (startsWith(arg, "--knee-tol=")) {
            char *end = nullptr;
            double v = std::strtod(arg.c_str() + 11, &end);
            if (!end || *end != '\0' || v < 0.0 || v != v) {
                std::fprintf(stderr,
                             "paragraph-serve: bad --knee-tol value\n");
                usage();
            }
            opt.request.kneeTol = v;
        } else if (arg == "--no-profiles") {
            opt.request.profiles = false;
        } else if (!startsWith(arg, "--")) {
            opt.request.inputs.push_back(arg);
        } else {
            std::fprintf(stderr, "paragraph-serve: bad argument '%s'\n",
                         arg.c_str());
            usage();
        }
    }
    if (opt.socketPath.empty()) {
        std::fprintf(stderr, "paragraph-serve: --socket=PATH is required\n");
        usage();
    }
    opt.server.socketPath = opt.socketPath;
    return opt;
}

int
runDaemon(const ServeCliArgs &opt)
{
    serve::ServeServer server(opt.server);
    // Handlers go in before the socket appears, so a client that sees it
    // can always stop the daemon cleanly with a signal.
    g_server = &server;
    installSignalHandlers();
    std::string error;
    if (!server.start(error)) {
        g_server = nullptr;
        std::fprintf(stderr, "paragraph-serve: %s\n", error.c_str());
        return 1;
    }
    if (!opt.quiet) {
        std::fprintf(stderr, "paragraph-serve: listening on %s%s%s\n",
                     opt.socketPath.c_str(),
                     opt.server.storePath.empty() ? ""
                                                  : ", result store ",
                     opt.server.storePath.c_str());
    }
    server.run();
    g_server = nullptr;
    if (!opt.quiet) {
        std::fprintf(stderr, "paragraph-serve: %s\n",
                     g_signal ? "shut down on signal" : "shut down");
    }
    return 0; // a graceful shutdown — signalled or client-requested — is ok
}

/** Print @p line and a newline on stdout, checked like a document. */
void
printLine(const std::string &line)
{
    writeOutputFile("", [&](const OutputWriter &write) {
        return write(line) && write("\n");
    });
}

int
runClient(const ServeCliArgs &opt)
{
    serve::ServeClient client(opt.socketPath);
    client.setTimeout(opt.clientTimeout);
    std::string error;
    if (!client.connect(error)) {
        std::fprintf(stderr, "paragraph-serve: %s\n", error.c_str());
        return 1;
    }

    std::string requestLine;
    if (!opt.rawLine.empty()) {
        requestLine = opt.rawLine;
    } else {
        serve::ServeRequest req = opt.request;
        if (opt.ping)
            req.op = serve::ServeRequest::Op::Ping;
        else if (opt.stats)
            req.op = serve::ServeRequest::Op::Stats;
        else if (opt.health)
            req.op = serve::ServeRequest::Op::Health;
        else if (opt.hasFailpointSpec) {
            req.op = serve::ServeRequest::Op::Failpoint;
            req.failpointSpec = opt.failpointSpec;
        } else if (opt.shutdown)
            req.op = serve::ServeRequest::Op::Shutdown;
        else if (!req.inputs.empty())
            req.op = opt.explore ? serve::ServeRequest::Op::Explore
                                 : serve::ServeRequest::Op::Sweep;
        else {
            std::fprintf(stderr,
                         "paragraph-serve: nothing to request (give inputs "
                         "or one of --ping --stats --health --shutdown "
                         "--failpoint --raw)\n");
            usage();
        }
        requestLine = serve::renderServeRequest(req);
    }

    std::string responseLine;
    if (!client.roundTrip(requestLine, responseLine, error)) {
        std::fprintf(stderr, "paragraph-serve: %s\n", error.c_str());
        return 1;
    }

    if (!opt.rawLine.empty()) {
        printLine(responseLine);
        return 0;
    }

    serve::ServeResponse response;
    if (!serve::parseServeResponse(responseLine, response, error)) {
        std::fprintf(stderr, "paragraph-serve: %s\n", error.c_str());
        return 1;
    }
    if (response.busy()) {
        std::fprintf(stderr,
                     "paragraph-serve: daemon busy, retry in ~%llums\n",
                     static_cast<unsigned long long>(
                         response.retryAfterMs));
        return 3;
    }
    if (!response.ok()) {
        std::fprintf(stderr, "paragraph-serve: daemon error: %s\n",
                     response.error.c_str());
        return 1;
    }

    if (response.op == "sweep" || response.op == "explore") {
        writeOutputFile(opt.outPath, [&](const OutputWriter &write) {
            return write(response.document);
        });
        if (!opt.quiet && response.op == "explore") {
            std::fprintf(stderr,
                         "serve: explore %llu/%llu cells (%llu cached, "
                         "%llu computed, %llu pruned, %llu failed)\n",
                         static_cast<unsigned long long>(
                             response.cellsExecuted),
                         static_cast<unsigned long long>(
                             response.cellsTotal),
                         static_cast<unsigned long long>(
                             response.cellsCached),
                         static_cast<unsigned long long>(
                             response.cellsComputed),
                         static_cast<unsigned long long>(
                             response.cellsPruned),
                         static_cast<unsigned long long>(
                             response.cellsFailed));
        } else if (!opt.quiet) {
            std::fprintf(stderr,
                         "serve: %llu cells (%llu cached, %llu computed, "
                         "%llu failed)\n",
                         static_cast<unsigned long long>(
                             response.cellsTotal),
                         static_cast<unsigned long long>(
                             response.cellsCached),
                         static_cast<unsigned long long>(
                             response.cellsComputed),
                         static_cast<unsigned long long>(
                             response.cellsFailed));
        }
    } else {
        printLine(responseLine);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        ServeCliArgs opt = parseArgs(argc, argv);
        return opt.client ? runClient(opt) : runDaemon(opt);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "paragraph-serve: %s\n", e.what());
        return 1;
    }
}
