/**
 * @file
 * The paragraph-serve wire protocol: newline-delimited JSON, one request
 * line in, one response line out, schema "paragraph-serve-v1".
 *
 * A sweep request carries the same axes as the paragraph-sweep command line
 * (inputs, windows, rename, syscalls, predictors, fus, max, profiles) and
 * is expanded through the *same* engine::buildSweepConfigAxis cross
 * product, so a daemon-served grid is cell-for-cell the grid the CLI would
 * run. The response envelope carries cache accounting (cells_cached /
 * cells_computed) plus the full sweep JSON document as an escaped string —
 * the document itself is byte-identical to `paragraph-sweep --no-timing`
 * output for the same grid, which is what the cache-proof tests diff.
 *
 * Everything here is pure parse/render (no sockets), so the protocol is
 * unit-testable and fuzzable in isolation.
 */

#ifndef PARAGRAPH_SERVE_PROTOCOL_HPP
#define PARAGRAPH_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/sweep_args.hpp"
#include "engine/sweep_json.hpp"

namespace paragraph {
namespace serve {

constexpr const char *protocolSchema = "paragraph-serve-v1";

/** One parsed client request. */
struct ServeRequest
{
    enum class Op { Sweep, Explore, Ping, Stats, Health, Failpoint, Shutdown };

    Op op = Op::Ping;

    /** Sweep axes (Op::Sweep only); reuses the CLI's grid expansion. */
    std::vector<std::string> inputs;
    std::vector<uint64_t> windows;
    std::vector<std::string> renames;
    std::vector<std::string> syscalls;
    std::vector<std::string> predictors;
    std::vector<uint64_t> fus;
    uint64_t maxInstructions = 0;
    bool profiles = true;
    bool small = false;

    /** Knee tolerance for Op::Explore (0 = exact frontier). Carried on the
     *  wire as a string rendered by jsonDouble, so the daemon explores with
     *  bit-for-bit the tolerance the client asked for. */
    double kneeTol = 0.0;

    /** Failpoint control (Op::Failpoint only, daemon must allow it):
     *  spec is "site=policy;..." as in PARAGRAPH_FAILPOINTS; empty spec
     *  resets every site. seed reseeds the schedule when hasSeed. */
    std::string failpointSpec;
    uint64_t failpointSeed = 0;
    bool hasFailpointSeed = false;
};

/**
 * Parse one request line. @return false with @p error set on a malformed
 * line, wrong schema, or unknown op (the server turns that into an error
 * response, never a dropped connection).
 */
bool parseServeRequest(const std::string &line, ServeRequest &out,
                       std::string &error);

/** Render @p req as a single request line (no trailing newline). */
std::string renderServeRequest(const ServeRequest &req);

/** Map the request's sweep axes onto the CLI argument struct, ready for
 *  engine::buildSweepConfigAxis. */
engine::SweepArgs toSweepArgs(const ServeRequest &req);

/** One parsed server response. */
struct ServeResponse
{
    std::string status; ///< "ok", "error", or "busy"
    std::string op;     ///< echo of the request op
    std::string error;  ///< status == "error" only

    /** Overload hint (status == "busy" only): wait roughly this long
     *  before retrying. */
    uint64_t retryAfterMs = 0;

    /** Sweep accounting (op == "sweep" / "explore"). */
    uint64_t cellsTotal = 0;
    uint64_t cellsFailed = 0;
    uint64_t cellsCached = 0;
    uint64_t cellsComputed = 0;

    /** Explore accounting (op == "explore" only): cells_executed counts
     *  measured cells (cached + computed), cells_pruned the certificate-
     *  skipped remainder of the grid. */
    uint64_t cellsExecuted = 0;
    uint64_t cellsPruned = 0;

    /** The full sweep/explore JSON document (op == "sweep" / "explore"). */
    std::string document;

    /** Daemon counters (op == "stats" only). */
    uint64_t requests = 0;
    uint64_t storeEntries = 0;
    uint64_t storeHotBytes = 0;
    uint64_t traceCachedInputs = 0;
    uint64_t traceCachedBytes = 0;
    uint64_t totalCellsCached = 0;
    uint64_t totalCellsComputed = 0;
    uint64_t fusedGroups = 0; ///< passes the scheduler has run, cumulative

    /** Health probe (op == "health" only). */
    uint64_t pendingCells = 0;
    uint64_t activeSweeps = 0;
    uint64_t workers = 0;
    uint64_t storeDiskBytes = 0;
    uint64_t storeAppends = 0;
    uint64_t storeSyncs = 0;
    uint64_t storeCompactions = 0;
    uint64_t storeColdReads = 0;         ///< entries re-read from disk
    uint64_t storeRejectedEntries = 0;   ///< lines failing parse or CRC
    uint64_t failpointsActive = 0;
    uint64_t failpointFires = 0;
    std::string storeSync; ///< daemon's fsync policy name

    bool ok() const { return status == "ok"; }
    bool busy() const { return status == "busy"; }
};

/** Parse one response line; false with @p error on malformed input. */
bool parseServeResponse(const std::string &line, ServeResponse &out,
                        std::string &error);

/** Appends a response's document to the string it is given, escaped as
 *  the body of a JSON string literal (engine::appendSweepJson,
 *  engine::appendExploreJson in engine::JsonForm::StringBody). */
using DocumentRender = std::function<void(std::string &body)>;

/** Append a sweep response line (no trailing newline) to @p out. The
 *  document is rendered by @p render straight into @p out, so it is never
 *  held whole, and a store hit's cells are copied in their stored escaped
 *  form. */
void appendSweepResponse(std::string &out, uint64_t cellsTotal,
                         uint64_t cellsFailed, uint64_t cellsCached,
                         uint64_t cellsComputed,
                         const DocumentRender &render);

/** appendSweepResponse of @p document into a fresh string. */
std::string renderSweepResponse(uint64_t cellsTotal, uint64_t cellsFailed,
                                uint64_t cellsCached, uint64_t cellsComputed,
                                const std::string &document);

/** Append an explore response line (no trailing newline) to @p out, as
 *  appendSweepResponse does. */
void appendExploreResponse(std::string &out, uint64_t cellsTotal,
                           uint64_t cellsExecuted, uint64_t cellsPruned,
                           uint64_t cellsFailed, uint64_t cellsCached,
                           uint64_t cellsComputed,
                           const DocumentRender &render);

/** appendExploreResponse of @p document into a fresh string. */
std::string renderExploreResponse(uint64_t cellsTotal, uint64_t cellsExecuted,
                                  uint64_t cellsPruned, uint64_t cellsFailed,
                                  uint64_t cellsCached,
                                  uint64_t cellsComputed,
                                  const std::string &document);

/** Render a ping/shutdown acknowledgement line. */
std::string renderAckResponse(const char *op);

/** Render a stats response line from the daemon counters. */
std::string renderStatsResponse(const ServeResponse &stats);

/** Render a health response line from the daemon probe fields. */
std::string renderHealthResponse(const ServeResponse &health);

/** Render an overload rejection line with a retry hint. */
std::string renderBusyResponse(uint64_t retryAfterMs);

/** Render an error response line. */
std::string renderErrorResponse(const std::string &message);

} // namespace serve
} // namespace paragraph

#endif // PARAGRAPH_SERVE_PROTOCOL_HPP
