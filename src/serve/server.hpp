/**
 * @file
 * ServeServer: the paragraph-serve daemon core.
 *
 * One process owns three shared layers — a TraceRepository (compiled
 * programs of simulated inputs, which each pass re-simulates, and the
 * mappings and content keys of trace files, which each pass streams), a
 * SweepScheduler (standing worker pool with trace-major fusion across
 * *all* clients' cells), and a ResultStore (the persistent
 * content-addressed cell cache). Clients connect over an AF_UNIX socket
 * and exchange one newline-delimited JSON request/response pair per
 * operation (serve/protocol.hpp); each connection gets a handler thread,
 * but all actual analysis flows through the one scheduler, so two clients
 * sweeping the same trace fuse into shared passes.
 *
 * A sweep request is resolved cell by cell: compute the content address
 * (trace CRC + config key + profiles flag), serve store hits as journal-
 * style splices, submit only the misses, store every newly-Ok cell as it
 * completes (so a client that disconnects mid-job still leaves its
 * finished cells behind for the next asker), and render the document with
 * the same writer paragraph-sweep uses. A trace file's key is tagged with
 * the file it was taken from, and a cell is stored only if its input is
 * still that file when the cell completes: a file replaced mid-request is
 * computed and answered, but never stored under the old file's key.
 * Shutdown (client op, SIGINT, or SIGTERM) is graceful: in-flight analyses
 * are cancelled at their next checkpoint, queued cells fail fast, and the
 * store's append-per-cell discipline means a restart re-serves everything
 * that ever finished.
 */

#ifndef PARAGRAPH_SERVE_SERVER_HPP
#define PARAGRAPH_SERVE_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel_token.hpp"
#include "engine/scheduler.hpp"
#include "engine/trace_repository.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"

namespace paragraph {
namespace serve {

class ServeServer
{
  public:
    struct Options
    {
        /** AF_UNIX socket path to listen on (created; must not exist). */
        std::string socketPath;

        /** Result store JSONL path; empty = serve without persistence
         *  (every cell recomputed, useful only for tests). */
        std::string storePath;

        /** Hot-text byte budget for the result store; 0 = unlimited. */
        size_t storeMemoryBudget = 0;

        /** Analysis worker threads; 0 = hardware concurrency. */
        unsigned jobs = 0;

        /** Cells fused per pass (engine::SweepScheduler::Options). */
        unsigned groupSize = 8;

        /** Retries for ordinarily-failed cells. */
        unsigned maxRetries = 0;

        /** Per-attempt cell deadline in seconds; 0 = none. */
        double cellDeadlineSeconds = 0.0;

        /** Serve workload inputs at reduced scale (must match what
         *  clients ask for; a mismatched request is rejected). */
        bool small = false;

        /** Suppress per-request log lines on stderr. */
        bool quiet = false;

        /** Device-durability policy for the result store. */
        SyncPolicy storeSyncPolicy = SyncPolicy::None;

        /** Minimum seconds between store fsyncs under Interval. */
        double storeSyncIntervalSeconds = 5.0;

        /** Compact the store after this many appends; 0 = never. */
        size_t storeCompactEvery = 0;

        /** Per-connection I/O deadline in seconds; 0 = none. A client
         *  that stalls mid-request or mid-response is disconnected. */
        double ioTimeoutSeconds = 0.0;

        /** Largest accepted request line in bytes; 0 = unlimited. */
        size_t maxRequestBytes = 0;

        /** Sweeps admitted concurrently; one more gets a "busy" line
         *  with a retry hint instead of queueing. 0 = unlimited. */
        unsigned maxPendingSweeps = 0;

        /** Concurrent client connections; one more is turned away at
         *  accept with a "busy" line. 0 = unlimited. */
        unsigned maxClients = 0;

        /** Honor failpoint-control requests from clients (chaos tests
         *  only; never enable on a shared daemon). */
        bool allowFailpoints = false;
    };

    explicit ServeServer(Options opt);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /** Bind + listen on Options::socketPath. False with @p error set on
     *  failure (socket in use, path too long, ...). */
    bool start(std::string &error);

    /**
     * Accept and serve clients until requestStop() (or a client shutdown
     * op). Returns after every handler thread has been joined and the
     * socket unlinked.
     */
    void run();

    /** Ask run() to wind down. Async-signal-safe: flips atomics only. */
    void requestStop();

    /** The token every analysis runs under; requestStop() cancels it. */
    core::CancelToken &cancelToken() { return cancel_; }

  private:
    void handleClient(int fd);

    /** A spare response buffer (empty if there is none) for a sweep or
     *  explore to render into; handleClient hands every response line's
     *  buffer back once it is sent, and big ones are kept. */
    std::string takeResponseBuffer();
    void returnResponseBuffer(std::string buffer);

    std::string handleRequestLine(const std::string &line, bool &shutdown);

    /** Render the response line into a spare buffer (no newline). */
    std::string handleSweep(const ServeRequest &req);
    std::string handleExplore(const ServeRequest &req);

    /**
     * Resolve @p jobs cell by cell into @p cells (job order): key each by
     * content address (trace CRC + config key + @p profiles), serve store
     * hits as Skipped cells holding a reference to the store's wire text
     * (no copy, and no analysis result; the head is rendered from the
     * job's grid coordinates), submit only the misses to the scheduler,
     * and store every miss the moment it finishes Ok, if its input is
     * still the file it was keyed on. Sweeps and explore rounds both
     * resolve here. The jobs are moved from. @p cached counts the hits.
     */
    void resolveCells(std::vector<engine::SweepJob> &jobs, bool profiles,
                      std::vector<engine::SweepCell> &cells,
                      uint64_t &cached);
    std::string statsLine();
    std::string healthLine();
    std::string failpointLine(const ServeRequest &req);
    uint64_t busyRetryHintMs();
    /** Clients holding a --max-clients slot: the handled fds, less those
     *  whose peer has hung up when the count reaches the cap. */
    size_t connectedClients();
    void closeAllClients();

    Options opt_;
    engine::TraceRepository repo_;
    std::unique_ptr<engine::SweepScheduler> scheduler_;
    std::unique_ptr<ResultStore> store_;
    core::CancelToken cancel_;

    int listenFd_ = -1;
    std::atomic<bool> stop_{false};

    /** Multi-MB response buffers between requests (DESIGN.md §7). A store
     *  hit renders its line into one of these instead of allocating,
     *  freeing and re-faulting it; there are never more than the sweeps
     *  once rendered at the same time. */
    std::mutex spareMutex_;
    std::vector<std::string> spareResponses_;

    std::mutex clientMutex_;
    std::set<int> clientFds_;
    std::vector<std::thread> clientThreads_;

    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> cellsCached_{0};
    std::atomic<uint64_t> cellsComputed_{0};
    std::atomic<unsigned> activeSweeps_{0};
    std::atomic<uint64_t> rejectedBusy_{0};
};

} // namespace serve
} // namespace paragraph

#endif // PARAGRAPH_SERVE_SERVER_HPP
