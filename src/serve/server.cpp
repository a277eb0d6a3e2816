#include "serve/server.hpp"

#include <cerrno>
#include <cstring>
#include <map>
#include <new>
#include <optional>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "engine/config_key.hpp"
#include "engine/explorer.hpp"
#include "engine/sweep_json.hpp"
#include "support/failpoint.hpp"
#include "support/panic.hpp"
#include "support/test_seed.hpp"

namespace paragraph {
namespace serve {

namespace {

engine::TraceRepository::Options
repoOptions(const ServeServer::Options &opt)
{
    engine::TraceRepository::Options ro;
    ro.scale = opt.small ? workloads::Scale::Small : workloads::Scale::Full;
    ro.memoryBudget = opt.traceMemoryBudget;
    // maxRecords stays 0: the daemon keys and captures whole traces, and
    // per-request instruction caps live in each cell's config (covered by
    // its key); a simulated pass stops at its largest cap.
    return ro;
}

/** Wait for @p events on @p fd; 0 on deadline expiry, <0 on error. */
int
pollFor(int fd, short events, double timeoutSeconds)
{
    pollfd pfd{fd, events, 0};
    int timeoutMs = timeoutSeconds > 0
                        ? static_cast<int>(timeoutSeconds * 1000.0)
                        : -1;
    int n;
    do {
        n = ::poll(&pfd, 1, timeoutMs);
    } while (n < 0 && errno == EINTR);
    return n;
}

/**
 * Send all of @p data, giving the peer at most @p timeoutSeconds (0 =
 * forever) to drain each burst. A stalled reader fails the send instead of
 * wedging the handler thread.
 */
bool
sendAll(int fd, const std::string &data, double timeoutSeconds)
{
    size_t sent = 0;
    while (sent < data.size()) {
        if (timeoutSeconds > 0 &&
            pollFor(fd, POLLOUT, timeoutSeconds) <= 0)
            return false;
        ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
        if (PARA_FAILPOINT("serve.write") && n > 0)
            n = -1; // simulated peer reset mid-response
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

const char *
syncPolicyName(SyncPolicy policy)
{
    switch (policy) {
      case SyncPolicy::None:
        return "none";
      case SyncPolicy::Interval:
        return "interval";
      case SyncPolicy::Cell:
        return "cell";
    }
    return "none";
}

/** Response buffers smaller than this are not kept as spares: below
 *  glibc's default mmap threshold, allocating one is a cheap heap carve. */
constexpr size_t kSpareMinBytes = size_t{128} << 10;

/**
 * Response bytes @p cells take beyond the envelope when served from the
 * store: their stored wire bytes go into the response as they are, and
 * each cell's head, rendered again for the requesting grid, differs from
 * its stored one only by that grid's input name, indices and label. A
 * hit's response reserved for this renders in place, without doubling
 * copies or twice the capacity.
 */
size_t
splicedResponseBytes(const std::vector<engine::SweepCell> &cells)
{
    size_t bytes = engine::splicedBytes(cells);
    for (const engine::SweepCell &cell : cells)
        bytes += cell.job.input.size() + cell.job.configLabel.size() + 256;
    return bytes;
}

/** Envelope and document header allowance of a response. */
constexpr size_t kEnvelopeBytes = 4096;

} // namespace

ServeServer::ServeServer(Options opt) : opt_(std::move(opt)), repo_(repoOptions(opt_))
{
    engine::SweepScheduler::Options so;
    so.jobs = opt_.jobs;
    so.groupSize = opt_.groupSize;
    so.maxRetries = opt_.maxRetries;
    so.cellDeadlineSeconds = opt_.cellDeadlineSeconds;
    scheduler_ = std::make_unique<engine::SweepScheduler>(repo_, so);
    if (!opt_.storePath.empty()) {
        ResultStore::Options ro;
        ro.memoryBudget = opt_.storeMemoryBudget;
        ro.syncPolicy = opt_.storeSyncPolicy;
        ro.syncIntervalSeconds = opt_.storeSyncIntervalSeconds;
        ro.compactEveryAppends = opt_.storeCompactEvery;
        store_ = std::make_unique<ResultStore>(opt_.storePath, ro);
    }
    cancel_.setReason("daemon shutting down");
}

ServeServer::~ServeServer()
{
    requestStop();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(opt_.socketPath.c_str());
    }
    if (scheduler_)
        scheduler_->stop();
    closeAllClients();
    for (std::thread &t : clientThreads_)
        t.join();
    clientThreads_.clear();
}

bool
ServeServer::start(std::string &error)
{
    // The socket is bound under a temporary name and linked to its real
    // path only once it listens: a client that waits for the path to
    // appear never meets a socket that refuses connections, and an
    // existing path still fails the start rather than being replaced.
    const std::string tmpPath =
        opt_.socketPath + "." + std::to_string(::getpid());
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (opt_.socketPath.empty() || tmpPath.size() >= sizeof(addr.sun_path)) {
        error = "socket path empty or too long for AF_UNIX";
        return false;
    }
    std::memcpy(addr.sun_path, tmpPath.c_str(), tmpPath.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    ::unlink(tmpPath.c_str()); // left by a killed daemon with this pid
    auto fail = [&](int err) {
        error = opt_.socketPath + ": " + std::strerror(err);
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(tmpPath.c_str());
        return false;
    };
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail(errno);
    if (::listen(listenFd_, 16) != 0)
        return fail(errno);
    if (::link(tmpPath.c_str(), opt_.socketPath.c_str()) != 0)
        return fail(errno == EEXIST ? EADDRINUSE : errno);
    ::unlink(tmpPath.c_str());
    return true;
}

void
ServeServer::run()
{
    PARA_ASSERT(listenFd_ >= 0,
                "ServeServer::run() before a successful start()");
    while (!stop_.load(std::memory_order_acquire)) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int n = ::poll(&pfd, 1, 200 /* ms: bounded stop latency */);
        if (n < 0) {
            if (errno == EINTR)
                continue; // a signal arrived; re-check stop_
            PARA_WARN("serve: poll failed (%s)", std::strerror(errno));
            break;
        }
        if (n == 0 || !(pfd.revents & POLLIN))
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (PARA_FAILPOINT("serve.accept") && fd >= 0) {
            // Simulated fd exhaustion: surrender the descriptor and take
            // the same branch a real EMFILE would.
            ::close(fd);
            fd = -1;
            errno = EMFILE;
        }
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            PARA_WARN("serve: accept failed (%s)", std::strerror(errno));
            continue;
        }
        size_t clients;
        {
            std::lock_guard<std::mutex> lock(clientMutex_);
            clients = clientFds_.size();
        }
        if (opt_.maxClients != 0 && clients >= opt_.maxClients) {
            // Turn the connection away at the door with a retry hint —
            // a full house must degrade to a polite "busy", never to an
            // unbounded connection backlog.
            rejectedBusy_.fetch_add(1, std::memory_order_relaxed);
            sendAll(fd, renderBusyResponse(busyRetryHintMs()) + "\n",
                    opt_.ioTimeoutSeconds);
            ::close(fd);
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(clientMutex_);
            clientFds_.insert(fd);
            clientThreads_.emplace_back(
                [this, fd] { handleClient(fd); });
        }
    }

    // Wind down: stop accepting, cut queued/in-flight analysis short, and
    // unblock any handler stuck in a read.
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(opt_.socketPath.c_str());
    scheduler_->stop();
    closeAllClients();
    for (std::thread &t : clientThreads_)
        t.join();
    clientThreads_.clear();
}

void
ServeServer::requestStop()
{
    cancel_.cancelFromSignal();
    stop_.store(true, std::memory_order_release);
}

void
ServeServer::closeAllClients()
{
    std::lock_guard<std::mutex> lock(clientMutex_);
    for (int fd : clientFds_)
        ::shutdown(fd, SHUT_RDWR);
}

void
ServeServer::handleClient(int fd)
{
    std::string buffer;
    size_t scanned = 0; // bytes of buffer already searched for a newline
    char chunk[4096];
    bool shutdownRequested = false;
    while (!shutdownRequested) {
        if (opt_.ioTimeoutSeconds > 0 &&
            pollFor(fd, POLLIN, opt_.ioTimeoutSeconds) <= 0) {
            // Idle past the deadline (or poll error): a stalled client
            // must not pin a handler thread forever.
            break;
        }
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (PARA_FAILPOINT("serve.read") && n > 0)
            n = 0; // simulated peer hangup mid-request
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break; // client closed; any partial line is abandoned
        buffer.append(chunk, static_cast<size_t>(n));
        size_t start = 0; // first byte of the next unanswered line
        while (!shutdownRequested) {
            size_t nl = buffer.find('\n', scanned);
            if (nl == std::string::npos) {
                scanned = buffer.size();
                break;
            }
            std::string line(buffer, start, nl - start);
            start = scanned = nl + 1;
            if (line.empty())
                continue;
            std::string response;
            if (opt_.maxRequestBytes != 0 &&
                line.size() > opt_.maxRequestBytes) {
                response = renderErrorResponse(
                    "request exceeds the daemon's max request size");
            } else {
                response = handleRequestLine(line, shutdownRequested);
            }
            response += '\n';
            bool sent = sendAll(fd, response, opt_.ioTimeoutSeconds);
            returnResponseBuffer(std::move(response));
            if (!sent) {
                // Client went away mid-response. Completed cells are
                // already in the store; nothing to unwind.
                break;
            }
        }
        buffer.erase(0, start);
        scanned -= start;
        if (opt_.maxRequestBytes != 0 && scanned == buffer.size() &&
            buffer.size() > opt_.maxRequestBytes) {
            // An unterminated line past the cap would otherwise grow
            // without bound on daemon memory.
            sendAll(fd,
                    renderErrorResponse("request exceeds the daemon's "
                                        "max request size") +
                        "\n",
                    opt_.ioTimeoutSeconds);
            break;
        }
    }
    ::close(fd);
    {
        std::lock_guard<std::mutex> lock(clientMutex_);
        clientFds_.erase(fd);
    }
    if (shutdownRequested)
        requestStop();
}

std::string
ServeServer::takeResponseBuffer()
{
    std::lock_guard<std::mutex> lock(spareMutex_);
    if (spareResponses_.empty())
        return {};
    std::string buffer = std::move(spareResponses_.back());
    spareResponses_.pop_back();
    return buffer;
}

void
ServeServer::returnResponseBuffer(std::string buffer)
{
    // Keeping only big buffers also bounds the spares by the sweeps once
    // rendered at the same time.
    if (buffer.capacity() < kSpareMinBytes)
        return;
    buffer.clear();
    std::lock_guard<std::mutex> lock(spareMutex_);
    spareResponses_.push_back(std::move(buffer));
}

void
ServeServer::releaseSpareResponses()
{
    std::vector<std::string> spares;
    {
        std::lock_guard<std::mutex> lock(spareMutex_);
        spares.swap(spareResponses_);
    }
}

std::string
ServeServer::handleRequestLine(const std::string &line, bool &shutdown)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    ServeRequest req;
    std::string error;
    if (!parseServeRequest(line, req, error))
        return renderErrorResponse(error);
    if (stop_.load(std::memory_order_acquire))
        return renderErrorResponse("daemon is shutting down");

    switch (req.op) {
      case ServeRequest::Op::Ping:
        return renderAckResponse("ping");
      case ServeRequest::Op::Stats:
        return statsLine();
      case ServeRequest::Op::Health:
        return healthLine();
      case ServeRequest::Op::Failpoint:
        return failpointLine(req);
      case ServeRequest::Op::Shutdown:
        shutdown = true;
        if (!opt_.quiet)
            PARA_WARN("serve: shutdown requested by client");
        return renderAckResponse("shutdown");
      case ServeRequest::Op::Sweep:
      case ServeRequest::Op::Explore:
        break;
    }

    if (req.small != opt_.small) {
        return renderErrorResponse(
            opt_.small ? "daemon serves --small workloads; request full "
                         "scale from a full-scale daemon"
                       : "daemon serves full-scale workloads; drop "
                         "\"small\" or restart the daemon with --small");
    }

    // Admission control: past the cap a sweep is refused with a retry
    // hint, so overload sheds load at the edge instead of growing the
    // scheduler queue without bound.
    unsigned active = activeSweeps_.load(std::memory_order_relaxed);
    for (;;) {
        if (opt_.maxPendingSweeps != 0 && active >= opt_.maxPendingSweeps) {
            rejectedBusy_.fetch_add(1, std::memory_order_relaxed);
            return renderBusyResponse(busyRetryHintMs());
        }
        if (activeSweeps_.compare_exchange_weak(active, active + 1,
                                                std::memory_order_relaxed))
            break;
    }
    try {
        std::string response = req.op == ServeRequest::Op::Explore
                                   ? handleExplore(req)
                                   : handleSweep(req);
        // Growing a multi-MB response can fail to allocate; the site fires
        // once the document is rendered into the response, whose partial
        // line the error reply below must replace.
        if (PARA_FAILPOINT("serve.render"))
            throw std::bad_alloc();
        activeSweeps_.fetch_sub(1, std::memory_order_relaxed);
        return response;
    } catch (const std::exception &e) {
        activeSweeps_.fetch_sub(1, std::memory_order_relaxed);
        return renderErrorResponse(e.what());
    } catch (...) {
        activeSweeps_.fetch_sub(1, std::memory_order_relaxed);
        throw;
    }
}

void
ServeServer::resolveCells(std::vector<engine::SweepJob> &jobs, bool profiles,
                          std::vector<engine::SweepCell> &cells,
                          uint64_t &cached)
{
    engine::SweepJsonOptions jsonOpt;
    jsonOpt.timing = false;
    jsonOpt.profiles = profiles;

    cells.resize(jobs.size());
    std::vector<engine::SweepJob> misses;
    std::vector<size_t> missAt;             // job position per miss
    std::map<size_t, ResultKey> keyAt;      // job position -> content address
    std::map<std::string, std::optional<uint32_t>> traceCrcs;
    for (size_t k = 0; k < jobs.size(); ++k) {
        engine::SweepJob &job = jobs[k];
        job.config.cancel = &cancel_;
        auto [crc, fresh] = traceCrcs.try_emplace(job.input);
        if (fresh) {
            // No spares are held across a new input's first touch. The
            // daemon's memory peaks while it captures a new trace file,
            // which outlasts re-faulting a response buffer many times
            // over; a simulated input is keyed in O(block) memory, but
            // holding the spares across its first touch too measured
            // slower hits afterwards (DESIGN.md §7).
            if (!repo_.hasTraceCrc(job.input))
                releaseSpareResponses();
            try {
                crc->second = repo_.traceCrc(job.input);
            } catch (const std::exception &) {
                // Unknown/broken input: uncacheable — the scheduler's
                // per-cell attempts loop will attribute the error per cell.
            }
        }
        if (crc->second) {
            // The key is the *analysis* config's fingerprint — the cancel
            // pointer is excluded from the canonical text.
            ResultKey &key = keyAt[k];
            key = ResultKey{*crc->second, engine::configKey(job.config),
                            profiles};
            ResultStore::WireText wire;
            if (store_ && (wire = store_->lookupWire(key))) {
                // The fragment is shared across grids by content address;
                // its head (input, indices, config label) is rendered from
                // this job when the document is written, and the rest is
                // spliced from the store's own bytes.
                cells[k].job = std::move(job);
                cells[k].status = engine::SweepCell::Status::Skipped;
                cells[k].wireText = std::move(wire);
                ++cached;
                continue;
            }
        }
        missAt.push_back(k);
        misses.push_back(std::move(job));
    }

    if (!misses.empty()) {
        // Store each Ok cell the moment it is final: a client that
        // disconnects (or a daemon killed later) never loses cells that
        // completed. The callback runs on worker threads; ResultStore
        // serializes internally.
        auto batch = scheduler_->submit(
            std::move(misses), [&](size_t m, engine::SweepCell &cell) {
                auto key = keyAt.find(missAt[m]);
                if (cell.status == engine::SweepCell::Status::Ok && store_ &&
                    key != keyAt.end())
                    store_->insert(key->second, cellToJson(cell, jsonOpt));
            });
        batch->wait();
        for (size_t m = 0; m < missAt.size(); ++m)
            cells[missAt[m]] = std::move(batch->cells()[m]);
    }
}

std::string
ServeServer::handleSweep(const ServeRequest &req)
{
    engine::SweepArgs args = toSweepArgs(req);
    std::vector<core::AnalysisConfig> configs;
    std::vector<std::string> labels;
    std::string error;
    if (!engine::buildSweepConfigAxis(args, configs, labels, error))
        return renderErrorResponse(error);

    // Lay out the grid exactly as SweepEngine::run does.
    std::vector<engine::SweepJob> jobs =
        engine::sweepGrid(req.inputs, configs, labels);
    engine::SweepResult sweep;
    sweep.jobs = scheduler_->workers();
    uint64_t cached = 0;
    resolveCells(jobs, req.profiles, sweep.cells, cached);
    sweep.cellsSkipped = cached;

    uint64_t failed = 0;
    for (const engine::SweepCell &cell : sweep.cells) {
        if (cell.status == engine::SweepCell::Status::Failed)
            ++failed;
    }
    sweep.cellsFailed = failed;

    uint64_t computed = sweep.cells.size() - cached;
    cellsCached_.fetch_add(cached, std::memory_order_relaxed);
    cellsComputed_.fetch_add(computed, std::memory_order_relaxed);
    if (!opt_.quiet) {
        PARA_WARN("serve: sweep %zu cells (%llu cached, %llu computed, "
                  "%llu failed)",
                  sweep.cells.size(),
                  static_cast<unsigned long long>(cached),
                  static_cast<unsigned long long>(computed),
                  static_cast<unsigned long long>(failed));
    }

    engine::SweepJsonOptions jsonOpt;
    jsonOpt.timing = false;
    jsonOpt.profiles = req.profiles;
    std::string response = takeResponseBuffer();
    response.reserve(splicedResponseBytes(sweep.cells) + kEnvelopeBytes);
    appendSweepResponse(response, sweep.cells.size(), failed, cached,
                        computed, [&](std::string &body) {
                            engine::appendSweepJson(
                                body, sweep, jsonOpt,
                                engine::JsonForm::StringBody);
                        });
    return response;
}

std::string
ServeServer::handleExplore(const ServeRequest &req)
{
    engine::SweepArgs args = toSweepArgs(req);
    std::vector<core::AnalysisConfig> configs;
    std::vector<std::string> labels;
    std::string error;
    if (!engine::buildSweepConfigAxis(args, configs, labels, error))
        return renderErrorResponse(error);

    engine::SweepJsonOptions jsonOpt;
    jsonOpt.timing = false;
    jsonOpt.profiles = req.profiles;

    // The explorer drives measurement round by round; each round resolves
    // against the content-addressed store first (previous sweeps *and*
    // previous explores of overlapping grids serve their cells for free)
    // and submits only the misses through the standing scheduler.
    uint64_t cached = 0;
    uint64_t computed = 0;
    auto runner = [&](std::vector<engine::SweepJob> jobs) {
        uint64_t hits = 0;
        std::vector<engine::SweepCell> cells;
        resolveCells(jobs, req.profiles, cells, hits);
        cached += hits;
        computed += jobs.size() - hits;
        return cells;
    };

    engine::Explorer::Options exOpt;
    exOpt.kneeTol = req.kneeTol;
    exOpt.seed = testSeed(exOpt.seed);
    engine::Explorer explorer(exOpt);
    engine::SweepAxes axes = engine::defaultedSweepAxes(args);
    engine::ExploreResult explored =
        explorer.explore(req.inputs, axes, configs, labels, runner);
    explored.jobs = scheduler_->workers();

    cellsCached_.fetch_add(cached, std::memory_order_relaxed);
    cellsComputed_.fetch_add(computed, std::memory_order_relaxed);
    if (!opt_.quiet) {
        PARA_WARN("serve: explore %zu/%zu cells (%llu cached, %llu "
                  "computed, %zu pruned, %zu failed)",
                  explored.cellsExecuted, explored.cellsTotal,
                  static_cast<unsigned long long>(cached),
                  static_cast<unsigned long long>(computed),
                  explored.cellsPruned, explored.cellsFailed);
    }

    size_t spliced = 0;
    for (const engine::ExploreTrace &trace : explored.traces)
        spliced += splicedResponseBytes(trace.cells);
    std::string response = takeResponseBuffer();
    response.reserve(spliced + kEnvelopeBytes);
    appendExploreResponse(response, explored.cellsTotal,
                          explored.cellsExecuted, explored.cellsPruned,
                          explored.cellsFailed, cached, computed,
                          [&](std::string &body) {
                              engine::appendExploreJson(
                                  body, explored, jsonOpt,
                                  engine::JsonForm::StringBody);
                          });
    return response;
}

std::string
ServeServer::statsLine()
{
    ServeResponse stats;
    stats.requests = requests_.load(std::memory_order_relaxed);
    stats.storeEntries = store_ ? store_->entries() : 0;
    stats.storeHotBytes = store_ ? store_->hotBytes() : 0;
    stats.traceCachedInputs = repo_.cachedInputs();
    stats.traceCachedBytes = repo_.cachedBytes();
    stats.totalCellsCached = cellsCached_.load(std::memory_order_relaxed);
    stats.totalCellsComputed =
        cellsComputed_.load(std::memory_order_relaxed);
    stats.fusedGroups = scheduler_->fusedGroups();
    return renderStatsResponse(stats);
}

std::string
ServeServer::healthLine()
{
    ServeResponse health;
    health.pendingCells = scheduler_->pendingCells();
    health.activeSweeps = activeSweeps_.load(std::memory_order_relaxed);
    health.workers = scheduler_->workers();
    health.storeEntries = store_ ? store_->entries() : 0;
    long disk = store_ ? store_->diskBytes() : 0;
    health.storeDiskBytes = disk > 0 ? static_cast<uint64_t>(disk) : 0;
    health.storeAppends = store_ ? store_->appends() : 0;
    health.storeSyncs = store_ ? store_->syncs() : 0;
    health.storeCompactions = store_ ? store_->compactions() : 0;
    health.storeColdReads = store_ ? store_->coldReads() : 0;
    health.storeRejectedEntries = store_ ? store_->rejectedEntries() : 0;
    health.storeSync = syncPolicyName(opt_.storeSyncPolicy);
    health.failpointsActive = failpoint::activeSites();
    health.failpointFires = failpoint::totalFires();
    return renderHealthResponse(health);
}

std::string
ServeServer::failpointLine(const ServeRequest &req)
{
    if (!opt_.allowFailpoints) {
        return renderErrorResponse(
            "failpoint control is disabled (start the daemon with "
            "--allow-failpoints)");
    }
    if (req.hasFailpointSeed)
        failpoint::setSeed(req.failpointSeed);
    if (req.failpointSpec.empty()) {
        failpoint::reset();
    } else {
        std::string error;
        if (!failpoint::configureList(req.failpointSpec, error))
            return renderErrorResponse("bad failpoint spec: " + error);
    }
    if (!opt_.quiet)
        PARA_WARN("serve: failpoints now [%s]",
                  failpoint::describe().c_str());
    return renderAckResponse("failpoint");
}

uint64_t
ServeServer::busyRetryHintMs()
{
    // Rough hint scaled to the backlog: an empty queue suggests a quick
    // retry, a deep one pushes clients further out. Clamped so a client
    // never waits more than a few seconds before re-probing.
    uint64_t pending = scheduler_->pendingCells();
    uint64_t hint = 100 + 50 * pending;
    return hint > 5000 ? 5000 : hint;
}

} // namespace serve
} // namespace paragraph
