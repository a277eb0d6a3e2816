#include "serve/protocol.hpp"

#include <cstdlib>

#include "engine/sweep_json.hpp"
#include "support/json_line.hpp"
#include "support/string_utils.hpp"

namespace paragraph {
namespace serve {

namespace {

const char *
opName(ServeRequest::Op op)
{
    switch (op) {
      case ServeRequest::Op::Sweep:
        return "sweep";
      case ServeRequest::Op::Explore:
        return "explore";
      case ServeRequest::Op::Ping:
        return "ping";
      case ServeRequest::Op::Stats:
        return "stats";
      case ServeRequest::Op::Health:
        return "health";
      case ServeRequest::Op::Failpoint:
        return "failpoint";
      case ServeRequest::Op::Shutdown:
        return "shutdown";
    }
    return "ping";
}

void
appendStrList(std::string &s, const char *key,
              const std::vector<std::string> &items)
{
    if (items.empty())
        return;
    s += ", \"";
    s += key;
    s += "\": [";
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            s += ", ";
        engine::appendJsonString(s, items[i]);
    }
    s += ']';
}

void
appendNumList(std::string &s, const char *key,
              const std::vector<uint64_t> &items)
{
    if (items.empty())
        return;
    s += ", \"";
    s += key;
    s += "\": [";
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            s += ", ";
        s += std::to_string(items[i]);
    }
    s += ']';
}

/** Close the response header @p os has begun: the document @p render
 *  appends as the "document" string, then the closing brace. */
void
appendDocument(engine::JsonOut &os, const DocumentRender &render)
{
    os << ", \"document\": \"";
    render(os.buffer());
    os << "\"}";
}

} // namespace

bool
parseServeRequest(const std::string &line, ServeRequest &out,
                  std::string &error)
{
    JsonLineParser p(line);
    if (!p.parse()) {
        error = "malformed request line";
        return false;
    }
    const std::string *schema = p.str("schema");
    if (!schema || *schema != protocolSchema) {
        error = strFormat("expected schema \"%s\"", protocolSchema);
        return false;
    }
    const std::string *op = p.str("op");
    if (!op) {
        error = "request has no op";
        return false;
    }
    if (*op == "sweep")
        out.op = ServeRequest::Op::Sweep;
    else if (*op == "explore")
        out.op = ServeRequest::Op::Explore;
    else if (*op == "ping")
        out.op = ServeRequest::Op::Ping;
    else if (*op == "stats")
        out.op = ServeRequest::Op::Stats;
    else if (*op == "health")
        out.op = ServeRequest::Op::Health;
    else if (*op == "failpoint")
        out.op = ServeRequest::Op::Failpoint;
    else if (*op == "shutdown")
        out.op = ServeRequest::Op::Shutdown;
    else {
        error = strFormat("unknown op '%s'", op->c_str());
        return false;
    }

    if (const std::vector<std::string> *v = p.strList("inputs"))
        out.inputs = *v;
    if (const std::vector<uint64_t> *v = p.numList("windows"))
        out.windows = *v;
    if (const std::vector<std::string> *v = p.strList("rename"))
        out.renames = *v;
    if (const std::vector<std::string> *v = p.strList("syscalls"))
        out.syscalls = *v;
    if (const std::vector<std::string> *v = p.strList("predictors"))
        out.predictors = *v;
    if (const std::vector<uint64_t> *v = p.numList("fus"))
        out.fus = *v;
    p.num("max", out.maxInstructions);
    p.boolean("profiles", out.profiles);
    p.boolean("small", out.small);
    if (const std::string *spec = p.str("spec"))
        out.failpointSpec = *spec;
    out.hasFailpointSeed = p.num("seed", out.failpointSeed);
    if (const std::string *tol = p.str("knee_tol")) {
        char *end = nullptr;
        double v = std::strtod(tol->c_str(), &end);
        if (!end || *end != '\0' || v < 0.0 || v != v) {
            error = strFormat("bad knee_tol value '%s'", tol->c_str());
            return false;
        }
        out.kneeTol = v;
    }

    if ((out.op == ServeRequest::Op::Sweep ||
         out.op == ServeRequest::Op::Explore) &&
        out.inputs.empty()) {
        error = strFormat("%s request has no inputs", opName(out.op));
        return false;
    }
    return true;
}

std::string
renderServeRequest(const ServeRequest &req)
{
    std::string s = std::string("{\"schema\": \"") + protocolSchema +
                    "\", \"op\": \"" + opName(req.op) + '"';
    appendStrList(s, "inputs", req.inputs);
    appendNumList(s, "windows", req.windows);
    appendStrList(s, "rename", req.renames);
    appendStrList(s, "syscalls", req.syscalls);
    appendStrList(s, "predictors", req.predictors);
    appendNumList(s, "fus", req.fus);
    if (req.maxInstructions)
        s += ", \"max\": " + std::to_string(req.maxInstructions);
    if (!req.profiles)
        s += ", \"profiles\": false";
    if (req.small)
        s += ", \"small\": true";
    if (req.op == ServeRequest::Op::Explore && req.kneeTol != 0.0)
        s += ", \"knee_tol\": \"" + engine::jsonDouble(req.kneeTol) + '"';
    if (req.op == ServeRequest::Op::Failpoint) {
        s += ", \"spec\": " + engine::jsonString(req.failpointSpec);
        if (req.hasFailpointSeed)
            s += ", \"seed\": " + std::to_string(req.failpointSeed);
    }
    s += '}';
    return s;
}

engine::SweepArgs
toSweepArgs(const ServeRequest &req)
{
    engine::SweepArgs args;
    args.inputs = req.inputs;
    args.windows = req.windows;
    args.renames = req.renames;
    args.syscalls = req.syscalls;
    args.predictors = req.predictors;
    for (uint64_t fu : req.fus)
        args.fus.push_back(static_cast<uint32_t>(fu));
    args.maxInstructions = req.maxInstructions;
    args.small = req.small;
    args.explore = req.op == ServeRequest::Op::Explore;
    args.kneeTol = req.kneeTol;
    args.json.timing = false; // served documents are always deterministic
    args.json.profiles = req.profiles;
    return args;
}

bool
parseServeResponse(const std::string &line, ServeResponse &out,
                   std::string &error)
{
    JsonLineParser p(line);
    if (!p.parse()) {
        error = "malformed response line";
        return false;
    }
    const std::string *schema = p.str("schema");
    if (!schema || *schema != protocolSchema) {
        error = strFormat("expected schema \"%s\"", protocolSchema);
        return false;
    }
    const std::string *status = p.str("status");
    if (!status) {
        error = "response has no status";
        return false;
    }
    out.status = *status;
    if (const std::string *op = p.str("op"))
        out.op = *op;
    if (const std::string *err = p.str("error"))
        out.error = *err;
    if (const std::string *doc = p.str("document"))
        out.document = *doc;
    p.num("cells_total", out.cellsTotal);
    p.num("cells_failed", out.cellsFailed);
    p.num("cells_cached", out.cellsCached);
    p.num("cells_computed", out.cellsComputed);
    p.num("cells_executed", out.cellsExecuted);
    p.num("cells_pruned", out.cellsPruned);
    p.num("requests", out.requests);
    p.num("store_entries", out.storeEntries);
    p.num("store_hot_bytes", out.storeHotBytes);
    p.num("trace_cached_inputs", out.traceCachedInputs);
    p.num("trace_cached_bytes", out.traceCachedBytes);
    p.num("total_cells_cached", out.totalCellsCached);
    p.num("total_cells_computed", out.totalCellsComputed);
    p.num("retry_after_ms", out.retryAfterMs);
    p.num("pending_cells", out.pendingCells);
    p.num("active_sweeps", out.activeSweeps);
    p.num("workers", out.workers);
    p.num("store_disk_bytes", out.storeDiskBytes);
    p.num("store_appends", out.storeAppends);
    p.num("store_syncs", out.storeSyncs);
    p.num("store_compactions", out.storeCompactions);
    p.num("store_cold_reads", out.storeColdReads);
    p.num("store_rejected_entries", out.storeRejectedEntries);
    p.num("failpoints_active", out.failpointsActive);
    p.num("failpoint_fires", out.failpointFires);
    if (const std::string *sync = p.str("store_sync"))
        out.storeSync = *sync;
    return true;
}

void
appendSweepResponse(std::string &out, uint64_t cellsTotal,
                    uint64_t cellsFailed, uint64_t cellsCached,
                    uint64_t cellsComputed, const DocumentRender &render)
{
    engine::JsonOut os(out);
    os << "{\"schema\": \"" << protocolSchema
       << "\", \"status\": \"ok\", \"op\": \"sweep\", \"cells_total\": "
       << cellsTotal << ", \"cells_failed\": " << cellsFailed
       << ", \"cells_cached\": " << cellsCached
       << ", \"cells_computed\": " << cellsComputed;
    appendDocument(os, render);
}

std::string
renderSweepResponse(uint64_t cellsTotal, uint64_t cellsFailed,
                    uint64_t cellsCached, uint64_t cellsComputed,
                    const std::string &document)
{
    std::string out;
    appendSweepResponse(out, cellsTotal, cellsFailed, cellsCached,
                        cellsComputed, [&](std::string &body) {
                            engine::appendJsonEscaped(body, document);
                        });
    return out;
}

void
appendExploreResponse(std::string &out, uint64_t cellsTotal,
                      uint64_t cellsExecuted, uint64_t cellsPruned,
                      uint64_t cellsFailed, uint64_t cellsCached,
                      uint64_t cellsComputed, const DocumentRender &render)
{
    engine::JsonOut os(out);
    os << "{\"schema\": \"" << protocolSchema
       << "\", \"status\": \"ok\", \"op\": \"explore\", \"cells_total\": "
       << cellsTotal << ", \"cells_executed\": " << cellsExecuted
       << ", \"cells_pruned\": " << cellsPruned
       << ", \"cells_failed\": " << cellsFailed
       << ", \"cells_cached\": " << cellsCached
       << ", \"cells_computed\": " << cellsComputed;
    appendDocument(os, render);
}

std::string
renderExploreResponse(uint64_t cellsTotal, uint64_t cellsExecuted,
                      uint64_t cellsPruned, uint64_t cellsFailed,
                      uint64_t cellsCached, uint64_t cellsComputed,
                      const std::string &document)
{
    std::string out;
    appendExploreResponse(out, cellsTotal, cellsExecuted, cellsPruned,
                          cellsFailed, cellsCached, cellsComputed,
                          [&](std::string &body) {
                              engine::appendJsonEscaped(body, document);
                          });
    return out;
}

std::string
renderAckResponse(const char *op)
{
    return std::string("{\"schema\": \"") + protocolSchema +
           "\", \"status\": \"ok\", \"op\": \"" + op + "\"}";
}

std::string
renderStatsResponse(const ServeResponse &stats)
{
    return std::string("{\"schema\": \"") + protocolSchema +
           "\", \"status\": \"ok\", \"op\": \"stats\", \"requests\": " +
           std::to_string(stats.requests) +
           ", \"store_entries\": " + std::to_string(stats.storeEntries) +
           ", \"store_hot_bytes\": " + std::to_string(stats.storeHotBytes) +
           ", \"trace_cached_inputs\": " +
           std::to_string(stats.traceCachedInputs) +
           ", \"trace_cached_bytes\": " +
           std::to_string(stats.traceCachedBytes) +
           ", \"total_cells_cached\": " +
           std::to_string(stats.totalCellsCached) +
           ", \"total_cells_computed\": " +
           std::to_string(stats.totalCellsComputed) + '}';
}

std::string
renderHealthResponse(const ServeResponse &health)
{
    return std::string("{\"schema\": \"") + protocolSchema +
           "\", \"status\": \"ok\", \"op\": \"health\", " +
           "\"pending_cells\": " + std::to_string(health.pendingCells) +
           ", \"active_sweeps\": " + std::to_string(health.activeSweeps) +
           ", \"workers\": " + std::to_string(health.workers) +
           ", \"store_entries\": " + std::to_string(health.storeEntries) +
           ", \"store_disk_bytes\": " +
           std::to_string(health.storeDiskBytes) +
           ", \"store_appends\": " + std::to_string(health.storeAppends) +
           ", \"store_syncs\": " + std::to_string(health.storeSyncs) +
           ", \"store_compactions\": " +
           std::to_string(health.storeCompactions) +
           ", \"store_cold_reads\": " +
           std::to_string(health.storeColdReads) +
           ", \"store_rejected_entries\": " +
           std::to_string(health.storeRejectedEntries) +
           ", \"store_sync\": " + engine::jsonString(health.storeSync) +
           ", \"failpoints_active\": " +
           std::to_string(health.failpointsActive) +
           ", \"failpoint_fires\": " +
           std::to_string(health.failpointFires) + '}';
}

std::string
renderBusyResponse(uint64_t retryAfterMs)
{
    return std::string("{\"schema\": \"") + protocolSchema +
           "\", \"status\": \"busy\", \"error\": \"server overloaded\", "
           "\"retry_after_ms\": " +
           std::to_string(retryAfterMs) + '}';
}

std::string
renderErrorResponse(const std::string &message)
{
    return std::string("{\"schema\": \"") + protocolSchema +
           "\", \"status\": \"error\", \"error\": " +
           engine::jsonString(message) + '}';
}

} // namespace serve
} // namespace paragraph
