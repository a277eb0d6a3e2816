// perfbench-probe — the traced half of perfbench/run.py.
//
// Repeats a few benchmark ops in-process by calling each layer's public
// entry points in turn (sim, trace, core, engine, serve), wrapping every
// call in a span. Spans stay in memory and are written to one JSON file at
// the end; the per-layer metrics and one summary per op go to stdout as a
// single JSON object.
//
// Usage:
//   perfbench-probe MODE --spans=FILE --prefix=PATH [--layer-cap=N]
//                   [paragraph-sweep grid options] INPUT...
//
// MODE is the workload shape:
//   sim    each input is a workload analog, simulated and captured
//   file   each input is a .ptrc or .ptrz file, streamed
//   long   one .ptrc file, one config, split into --shard=N segments
//   serve  each input is a workload analog served as a warm grid request,
//          a hit request and a miss request against a fresh ResultStore
//
// Every op's root span is named "op"; its direct children are the layer
// calls the CLI (or daemon) makes for that op, so run.py can compare their
// sum with the untraced op wall. Spans without a parent that are not "op"
// are measurements of a lower layer made beside the op. Layers the mode's
// ops bypass are then timed on the first input's analog, capped at
// --layer-cap records, so every layer metric is a measurement. Documents,
// trace files and stores are written to paths starting with PATH.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/multi.hpp"
#include "core/paragraph.hpp"
#include "core/shard.hpp"
#include "engine/config_key.hpp"
#include "engine/scheduler.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_args.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "sim/machine.hpp"
#include "trace/compressed_io.hpp"
#include "trace/mmap_io.hpp"
#include "trace/shared_decode.hpp"
#include "workloads/workload.hpp"

using namespace paragraph;

namespace {

using Clock = std::chrono::steady_clock;
constexpr double kMB = 1024.0 * 1024.0;

struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int op = -1;
};

/** In-memory span log; thread-safe so worker threads can record too. */
class Tracer
{
  public:
    int
    begin(const std::string &name, int parent, int op)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, now(), 0.0, parent, op});
        return static_cast<int>(spans_.size()) - 1;
    }

    double
    end(int id)
    {
        double t = now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[id].end = t;
        return t - spans_[id].start;
    }

    /** Run @p fn inside a span; @return its wall seconds. */
    double
    time(const std::string &name, int parent, int op,
         const std::function<void()> &fn)
    {
        int id = begin(name, parent, op);
        fn();
        return end(id);
    }

    /** Sum of the durations of @p root's direct children. */
    double
    childSeconds(int root) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        double sum = 0.0;
        for (const Span &s : spans_) {
            if (s.parent == root)
                sum += s.end - s.start;
        }
        return sum;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            throw std::runtime_error("cannot write " + path);
        std::lock_guard<std::mutex> lock(mutex_);
        out << "[\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "  {\"id\": " << i << ", \"name\": "
                << engine::jsonString(s.name)
                << ", \"start\": " << engine::jsonDouble(s.start)
                << ", \"end\": " << engine::jsonDouble(s.end)
                << ", \"parent\": " << s.parent << ", \"op\": " << s.op
                << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_).count();
    }

    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Per-layer metrics, each the mean over the ops that produced it. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value)
    {
        sums_[name] += value;
        counts_[name] += 1;
    }

    bool has(const std::string &name) const { return sums_.count(name); }

    /** Take over @p other's metrics that this one lacks. */
    void
    fillFrom(const Metrics &other)
    {
        for (const auto &[name, sum] : other.sums_) {
            if (!has(name))
                add(name, sum / other.counts_.at(name));
        }
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (const auto &[name, sum] : sums_) {
            if (s.size() > 1)
                s += ", ";
            s += engine::jsonString(name) + ": " +
                 engine::jsonDouble(sum / counts_.at(name));
        }
        return s + "}";
    }

  private:
    std::map<std::string, double> sums_;
    std::map<std::string, int> counts_;
};

struct OpSummary
{
    std::string kind;
    std::string input;
    double wall = 0.0;
    double attributed = 0.0;
    std::string doc;
};

struct Probe
{
    std::string mode;
    std::string spansPath;
    std::string prefix; ///< path prefix for documents, traces and stores
    uint64_t layerCap = 1000000;
    engine::SweepArgs args;
    std::vector<core::AnalysisConfig> configs;
    std::vector<std::string> labels;
    Tracer tracer;
    Metrics metrics;
    std::vector<OpSummary> ops;

    unsigned jobs() const { return args.jobs ? args.jobs : 4; }

    workloads::Scale
    scale() const
    {
        return args.small ? workloads::Scale::Small : workloads::Scale::Full;
    }

    std::string
    docPath() const
    {
        return prefix + "doc-" + std::to_string(ops.size()) + ".json";
    }

    /** Close op root @p root and record its summary. */
    void
    finishOp(int root, const std::string &kind, const std::string &input,
             const std::string &doc)
    {
        OpSummary s;
        s.kind = kind;
        s.input = input;
        s.wall = tracer.end(root);
        s.attributed = tracer.childSeconds(root);
        s.doc = doc;
        ops.push_back(std::move(s));
    }
};

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/** The engine-level op every CLI mode shares: SweepEngine::run, render,
 *  write (the work between argument parsing and exit in paragraph-sweep). */
engine::SweepResult
sweepOp(Probe &p, engine::TraceRepository &repo, const std::string &input,
        int root, int op, const std::string &docPath)
{
    engine::SweepEngine::Options eo;
    eo.jobs = p.jobs();
    eo.groupSize = p.args.group;
    eo.shards = p.args.shards;
    engine::SweepEngine sweeper(eo);
    engine::SweepResult result;
    double sweepS = p.tracer.time("engine.sweep", root, op, [&] {
        result = sweeper.run(repo, {input}, p.configs, p.labels);
    });
    std::string doc;
    double jsonS = p.tracer.time("engine.json", root, op, [&] {
        doc = engine::sweepToJson(result, p.args.json);
    });
    p.tracer.time("engine.write", root, op, [&] { writeFile(docPath, doc); });

    double busy = 0.0;
    for (const engine::SweepCell &c : result.cells)
        busy += c.wallSeconds;
    p.metrics.add("engine.sweep_s", sweepS);
    p.metrics.add("engine.fused_groups",
                  static_cast<double>(result.fusedGroups));
    if (result.wallSeconds > 0)
        p.metrics.add("engine.worker_busy",
                      busy / (sweeper.jobs() * result.wallSeconds));
    p.metrics.add("engine.json_s", jsonS);
    p.metrics.add("engine.json_mb", doc.size() / kMB);
    return result;
}

/** Split the configs into one fused group per worker, as auto grouping
 *  does for a one-input grid. */
std::vector<std::vector<core::AnalysisConfig>>
workerGroups(const Probe &p)
{
    size_t groups = std::min<size_t>(p.jobs(), p.configs.size());
    std::vector<std::vector<core::AnalysisConfig>> out(groups);
    for (size_t i = 0; i < p.configs.size(); ++i)
        out[i * groups / p.configs.size()].push_back(p.configs[i]);
    return out;
}

/** A decode pool over @p file that skips the payload CRC (timed apart). */
std::shared_ptr<trace::SharedDecodePool>
unverifiedPool(const std::shared_ptr<trace::MmapTraceFile> &file)
{
    trace::SharedDecodePool::Options po;
    po.verifyPayload = false;
    return std::make_shared<trace::SharedDecodePool>(file, po);
}

/** Run @p fn(i) for i < n on n threads; rethrow the first failure. */
void
parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    std::vector<std::exception_ptr> errors(n);
    {
        // jthreads join when destroyed, also if a later spawn throws.
        std::vector<std::jthread> threads;
        for (size_t i = 0; i < n; ++i) {
            threads.emplace_back([&, i] {
                try {
                    fn(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
    }
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

/** core.fused_s / engine_s / ns_per_cell_record for one fused pass per
 *  worker thread, plus core.decode_wait_s when @p decodes (the source is
 *  a decode cursor, not a capture); @p analyze runs one group's pass. */
void
fusedPass(Probe &p, int op, uint64_t records, bool decodes,
          const std::function<std::vector<core::MultiOutcome>(
              const std::vector<core::AnalysisConfig> &)> &analyze)
{
    auto groups = workerGroups(p);
    std::vector<std::vector<core::MultiOutcome>> outcomes(groups.size());
    int span = p.tracer.begin("core.fused", -1, op);
    parallelFor(groups.size(),
                [&](size_t g) { outcomes[g] = analyze(groups[g]); });
    double wall = p.tracer.end(span);
    double engineS = 0.0, decodeS = 0.0;
    for (const auto &group : outcomes) {
        for (const core::MultiOutcome &o : group) {
            if (o.error)
                std::rethrow_exception(o.error);
            engineS += o.engineSeconds;
        }
        if (!group.empty())
            decodeS += group.front().decodeSeconds;
    }
    p.metrics.add("core.fused_s", wall);
    p.metrics.add("core.engine_s", engineS);
    if (decodes)
        p.metrics.add("core.decode_wait_s", decodeS);
    p.metrics.add("core.ns_per_cell_record",
                  engineS * 1e9 /
                      (static_cast<double>(records) * p.configs.size()));
}

/** sim.busy_s / sim.minstr_s: drain a fresh simulation of @p analog up
 *  to @p cap records without capturing them; @return the seconds. */
double
simDrain(Probe &p, const std::string &analog, uint64_t cap, int op)
{
    auto &suite = workloads::WorkloadSuite::instance();
    uint64_t n = 0;
    double simS = p.tracer.time("sim.drain", -1, op, [&] {
        auto src = suite.makeSource(suite.find(analog), p.scale());
        std::vector<trace::TraceRecord> batch(65536);
        while (!cap || n < cap) {
            size_t want = batch.size();
            if (cap)
                want = static_cast<size_t>(std::min<uint64_t>(want, cap - n));
            size_t got = src->nextBatch(batch.data(), want);
            if (got == 0)
                break;
            n += got;
        }
    });
    p.metrics.add("sim.busy_s", simS);
    p.metrics.add("sim.minstr_s", n / simS / 1e6);
    return simS;
}

/** engine.capture_s / capture_mb: TraceRepository::get of @p analog
 *  capped at @p cap records, minus the simulation alone. */
std::shared_ptr<const trace::TraceBuffer>
capture(Probe &p, engine::TraceRepository &repo, const std::string &analog,
        uint64_t cap, int parent, int op)
{
    std::shared_ptr<const trace::TraceBuffer> buffer;
    double getS = p.tracer.time("engine.capture", parent, op,
                                [&] { buffer = repo.get(analog); });
    p.metrics.add("engine.capture_mb", repo.cachedBytes() / kMB);
    p.metrics.add("engine.capture_s", getS - simDrain(p, analog, cap, op));
    return buffer;
}

void
runSim(Probe &p)
{
    for (const std::string &input : p.args.inputs) {
        int op = static_cast<int>(p.ops.size());
        std::string doc = p.docPath();
        int root = p.tracer.begin("op", -1, op);
        engine::TraceRepository::Options ro;
        ro.scale = p.scale();
        ro.maxRecords = p.args.maxInstructions;
        engine::TraceRepository repo(ro);
        std::shared_ptr<const trace::TraceBuffer> buffer;
        double getS = p.tracer.time("engine.capture", root, op,
                                    [&] { buffer = repo.get(input); });
        p.metrics.add("engine.capture_mb", repo.cachedBytes() / kMB);
        sweepOp(p, repo, input, root, op, doc);
        p.finishOp(root, "sweep", input, doc);

        fusedPass(p, op, buffer->size(), false,
                  [&](const std::vector<core::AnalysisConfig> &cfgs) {
                      return core::analyzeManyGuarded(*buffer, cfgs);
                  });
        // Simulation alone: the capture minus copying into the buffer.
        double simS = simDrain(p, input, p.args.maxInstructions, op);
        p.metrics.add("engine.capture_s", getS - simS);
    }
}

/** trace.open / verify / decode on a .ptrc; @return the open file. */
std::shared_ptr<trace::MmapTraceFile>
traceLayers(Probe &p, const std::string &path, int op)
{
    std::shared_ptr<trace::MmapTraceFile> file;
    double openS = p.tracer.time("trace.open", -1, op, [&] {
        file = std::make_shared<trace::MmapTraceFile>(path);
    });
    double verifyS = p.tracer.time("trace.verify", -1, op,
                                   [&] { file->verifyPayload(); });
    auto pool = unverifiedPool(file);
    const size_t cursors = p.jobs();
    double decodeS = p.tracer.time("trace.decode", -1, op, [&] {
        parallelFor(cursors, [&](size_t) {
            trace::SharedDecodeCursor cursor(pool);
            const trace::TraceRecord *recs = nullptr;
            while (cursor.next(&recs) > 0) {
            }
        });
    });
    const double bytes = static_cast<double>(file->recordCount()) *
                         sizeof(trace::PackedRecord);
    p.metrics.add("trace.open_s", openS);
    p.metrics.add("trace.verify_s", verifyS);
    p.metrics.add("trace.verify_mb_s", bytes / kMB / verifyS);
    p.metrics.add("trace.decode_s", decodeS);
    p.metrics.add("trace.blocks_decoded",
                  static_cast<double>(pool->blocksDecoded()));
    p.metrics.add("trace.decode_ratio",
                  static_cast<double>(pool->blocksDecoded()) /
                      static_cast<double>(pool->blockCount()));
    return file;
}

/** core.fused_s and core.decode_wait_s of one fused pass per worker, each
 *  reading the file through its own cursor on one shared decode pool. */
void
pooledFusedPass(Probe &p, const std::shared_ptr<trace::MmapTraceFile> &file,
                int op)
{
    auto pool = unverifiedPool(file);
    fusedPass(p, op, file->recordCount(), true,
              [&](const std::vector<core::AnalysisConfig> &cfgs) {
                  trace::SharedDecodeCursor cursor(pool);
                  return core::analyzeManyGuarded(cursor, cfgs);
              });
}

/** trace.ptrz_decode_s: drain a .ptrz through trace::openTraceFile. */
void
ptrzDrain(Probe &p, const std::string &path, int op)
{
    double s = p.tracer.time("trace.ptrz_decode", -1, op, [&] {
        auto src = trace::openTraceFile(path);
        std::vector<trace::TraceRecord> batch(65536);
        while (src->nextBatch(batch.data(), batch.size()) > 0) {
        }
    });
    p.metrics.add("trace.ptrz_decode_s", s);
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void
runFile(Probe &p)
{
    for (const std::string &input : p.args.inputs) {
        int op = static_cast<int>(p.ops.size());
        std::string doc = p.docPath();
        int root = p.tracer.begin("op", -1, op);
        engine::TraceRepository::Options ro;
        ro.streamFiles = true;
        engine::TraceRepository repo(ro);
        sweepOp(p, repo, input, root, op, doc);
        p.finishOp(root, "sweep", input, doc);

        if (endsWith(input, ".ptrz"))
            ptrzDrain(p, input, op);
        else
            pooledFusedPass(p, traceLayers(p, input, op), op);
    }
}

/** core.solo_s and the split-and-patch layers (plan, segments on
 *  @p shards threads, patch) on contiguous records, checking that the
 *  patched result equals the solo one. */
void
shardLayers(Probe &p, const trace::TraceBuffer &buffer,
            const core::AnalysisConfig &cfg, unsigned shards, int op)
{
    core::AnalysisResult solo;
    double soloS = p.tracer.time("core.solo", -1, op, [&] {
        solo = core::Paragraph(cfg).analyze(buffer);
    });
    const trace::TraceRecord *records = buffer.records().data();
    const size_t n = buffer.size();
    const bool modeled = cfg.branchPredictor != core::PredictorKind::Perfect;
    core::PatchPlan plan;
    double planS = p.tracer.time("core.plan", -1, op, [&] {
        plan = core::planPatchPlan(cfg, records, n, shards);
    });
    std::vector<size_t> bounds{0};
    bounds.insert(bounds.end(), plan.cuts.begin(), plan.cuts.end());
    bounds.push_back(n);
    const size_t nSeg = bounds.size() - 1;
    std::vector<core::SegmentRun> segments(nSeg);
    std::vector<double> segS(nSeg, 0.0);
    int segsSpan = p.tracer.begin("core.segments", -1, op);
    parallelFor(nSeg, [&](size_t s) {
        segS[s] = p.tracer.time("core.segment", segsSpan, op, [&] {
            core::runSegment(cfg, records + bounds[s],
                             bounds[s + 1] - bounds[s], segments[s],
                             modeled ? &plan.bits : nullptr,
                             modeled ? plan.branchBase[s] : 0);
        });
    });
    p.tracer.end(segsSpan);
    core::PatchOutcome outcome;
    core::AnalysisResult patched;
    double patchS = p.tracer.time("core.patch", -1, op, [&] {
        auto replay = [&](core::Paragraph &engine, size_t s) {
            engine.processAll(records + bounds[s], bounds[s + 1] - bounds[s]);
        };
        patched = core::patchSegments(
            cfg, segments, replay, modeled ? &plan.bits : nullptr,
            modeled ? &plan.branchBase : nullptr, &outcome);
    });
    std::string diff;
    if (!core::shardedResultsEqual(solo, patched, &diff))
        throw std::runtime_error("patched result differs from solo: " + diff);
    double sum = 0.0;
    for (double s : segS)
        sum += s;
    p.metrics.add("core.solo_s", soloS);
    p.metrics.add("core.plan_s", planS);
    p.metrics.add("core.segment_max_s",
                  *std::max_element(segS.begin(), segS.end()));
    p.metrics.add("core.segment_sum_s", sum);
    p.metrics.add("core.patch_s", patchS);
    p.metrics.add("core.splice_ratio",
                  static_cast<double>(outcome.spliced) / nSeg);
}

void
runLong(Probe &p)
{
    if (p.args.inputs.size() != 1 || p.configs.size() != 1)
        throw std::runtime_error("long mode takes one file and one config");
    const std::string &input = p.args.inputs.front();
    int op = 0;
    std::string doc = p.docPath();
    int root = p.tracer.begin("op", -1, op);
    {
        engine::TraceRepository::Options ro;
        ro.streamFiles = true;
        engine::TraceRepository repo(ro);
        sweepOp(p, repo, input, root, op, doc);
    }
    p.finishOp(root, "sweep", input, doc);

    auto file = traceLayers(p, input, op);
    // The split-and-patch entry points take contiguous records.
    const size_t n = static_cast<size_t>(file->recordCount());
    std::vector<trace::TraceRecord> records(n);
    p.tracer.time("probe.gather", -1, op,
                  [&] { file->decode(0, n, records.data()); });
    shardLayers(p, trace::TraceBuffer(std::move(records)), p.configs.front(),
                std::max(2u, p.args.shards), op);
}

/** One daemon-style sweep request served in-process, calling the layers
 *  paragraph-serve's handleSweep calls, in turn. @return cells served
 *  from the store. */
uint64_t
serveRequest(Probe &p, engine::TraceRepository &repo,
             engine::SweepScheduler &sched, serve::ResultStore &store,
             const std::string &input, const std::string &kind,
             const std::vector<core::AnalysisConfig> &configs,
             const std::vector<std::string> &labels, bool writeDoc)
{
    int op = static_cast<int>(p.ops.size());
    std::string docPath = writeDoc ? p.docPath() : std::string();
    int root = p.tracer.begin("op", -1, op);
    engine::SweepJsonOptions jsonOpt;
    jsonOpt.timing = false;
    jsonOpt.profiles = p.args.json.profiles;
    const uint32_t crc = repo.traceCrc(input); // cached after first touch

    engine::SweepResult sweep;
    sweep.jobs = sched.workers();
    sweep.cells.resize(configs.size());
    std::vector<engine::SweepJob> misses;
    std::vector<size_t> missSlot;
    std::vector<serve::ResultKey> keys(configs.size());
    uint64_t cached = 0;
    double lookupS = p.tracer.time("serve.lookup", root, op, [&] {
        for (size_t j = 0; j < configs.size(); ++j) {
            engine::SweepJob job;
            job.input = input;
            job.config = configs[j];
            job.configLabel = labels[j];
            job.configIndex = j;
            keys[j] = {crc, engine::configKey(job.config),
                       jsonOpt.profiles};
            std::string cellJson;
            if (store.lookup(keys[j], cellJson)) {
                engine::SweepCell &cell = sweep.cells[j];
                cell.job = std::move(job);
                cell.status = engine::SweepCell::Status::Skipped;
                cell.journalText = std::move(cellJson);
                ++cached;
                continue;
            }
            missSlot.push_back(j);
            misses.push_back(std::move(job));
        }
    });
    sweep.cellsSkipped = cached;
    if (!misses.empty()) {
        double schedS = p.tracer.time("serve.schedule", root, op, [&] {
            auto batch = sched.submit(std::move(misses));
            batch->wait();
            std::vector<engine::SweepCell> &done = batch->cells();
            for (size_t k = 0; k < done.size(); ++k)
                sweep.cells[missSlot[k]] = std::move(done[k]);
        });
        double insertS = p.tracer.time("serve.insert", root, op, [&] {
            for (size_t j : missSlot) {
                const engine::SweepCell &cell = sweep.cells[j];
                if (cell.status != engine::SweepCell::Status::Ok)
                    throw std::runtime_error("cell failed: " +
                                             cell.errorMessage);
                store.insert(keys[j], engine::cellToJson(cell, jsonOpt));
            }
        });
        if (kind == "miss") {
            p.metrics.add("serve.schedule_s", schedS);
            p.metrics.add("serve.insert_s", insertS);
        }
    }
    std::string doc;
    double jsonS = p.tracer.time("engine.json", root, op, [&] {
        doc = engine::sweepToJson(sweep, jsonOpt);
    });
    std::string line;
    double renderS = p.tracer.time("serve.render", root, op, [&] {
        line = serve::renderSweepResponse(sweep.cells.size(), 0, cached,
                                          sweep.cells.size() - cached, doc);
    });
    if (writeDoc)
        writeFile(docPath, doc);
    p.finishOp(root, kind, input, docPath);
    if (kind == "hit") {
        if (cached != configs.size())
            throw std::runtime_error("hit request computed cells");
        p.metrics.add("serve.lookup_s", lookupS);
        p.metrics.add("serve.render_s", renderS);
        p.metrics.add("serve.response_mb", line.size() / kMB);
        p.metrics.add("engine.json_s", jsonS);
        p.metrics.add("engine.json_mb", doc.size() / kMB);
    }
    return cached;
}

/** First touch (engine.trace_crc_s), then a warm, a hit and a miss request
 *  of 4 never-seen windows for each input, against one store; the hit
 *  ratio counts cells over those requests. */
void
serveLayers(Probe &p, engine::TraceRepository &repo,
            const std::vector<std::string> &inputs, const std::string &store,
            bool writeDocs)
{
    serve::ResultStore results(store);
    engine::SweepScheduler::Options so;
    so.jobs = p.jobs();
    engine::SweepScheduler sched(repo, so);

    // Miss cells: window sizes no warm grid or earlier miss used.
    engine::SweepArgs missArgs = p.args;
    missArgs.renames = {"data"};
    missArgs.syscalls = {"stall"};
    uint64_t nextWindow = 101;
    uint64_t cells = 0, cached = 0;
    for (const std::string &input : inputs) {
        double crcS = p.tracer.time("engine.trace_crc", -1,
                                    static_cast<int>(p.ops.size()),
                                    [&] { repo.traceCrc(input); });
        p.metrics.add("engine.trace_crc_s", crcS);
        cached += serveRequest(p, repo, sched, results, input, "warm",
                               p.configs, p.labels, writeDocs);
        cached += serveRequest(p, repo, sched, results, input, "hit",
                               p.configs, p.labels, writeDocs);
        missArgs.windows.clear();
        for (int k = 0; k < 4; ++k)
            missArgs.windows.push_back(nextWindow++);
        std::vector<core::AnalysisConfig> cfgs;
        std::vector<std::string> labels;
        std::string error;
        if (!engine::buildSweepConfigAxis(missArgs, cfgs, labels, error))
            throw std::runtime_error(error);
        cached += serveRequest(p, repo, sched, results, input, "miss", cfgs,
                               labels, false);
        cells += 2 * p.configs.size() + cfgs.size();
    }
    sched.stop();
    p.metrics.add("serve.hit_ratio", static_cast<double>(cached) / cells);
    p.metrics.add("serve.busy_replies", 0.0); // in-process: nothing refused
    p.metrics.add("serve.trace_cached_mb", repo.cachedBytes() / kMB);
}

void
runServe(Probe &p)
{
    engine::TraceRepository::Options ro;
    ro.scale = p.scale(); // whole traces, as the daemon captures them
    engine::TraceRepository repo(ro);
    serveLayers(p, repo, p.args.inputs, p.prefix + "store.jsonl", true);
}

/**
 * Time, on @p analog capped at @p cap records, every layer whose metrics
 * the workload's own ops left unset, so a layer the ops bypass still
 * reports its measured cost on this workload's input. Spans get op -1.
 */
void
bypassedLayers(Probe &p, const Metrics &own, const std::string &analog,
               uint64_t cap)
{
    const int op = -1;
    engine::TraceRepository::Options ro;
    ro.scale = p.scale();
    ro.maxRecords = cap;
    engine::TraceRepository repo(ro);
    auto buffer = capture(p, repo, analog, cap, -1, op);
    if (!own.has("engine.sweep_s")) {
        int root = p.tracer.begin("layers", -1, op);
        sweepOp(p, repo, analog, root, op, p.prefix + "layers.json");
        p.tracer.end(root);
    }
    if (!own.has("trace.verify_s") || !own.has("core.decode_wait_s") ||
        !own.has("trace.ptrz_decode_s")) {
        const std::string ptrc = p.prefix + "layers.ptrc";
        const std::string ptrz = p.prefix + "layers.ptrz";
        double writeS = p.tracer.time("trace.write", -1, op, [&] {
            trace::BufferSource src(*buffer);
            trace::TraceFileWriter plain(ptrc);
            plain.writeAll(src);
            plain.close();
            src.reset();
            trace::CompressedTraceWriter packed(ptrz);
            packed.writeAll(src);
            packed.close();
        });
        p.metrics.add("trace.write_s", writeS);
        pooledFusedPass(p, traceLayers(p, ptrc, op), op);
        ptrzDrain(p, ptrz, op);
    }
    if (!own.has("core.plan_s"))
        shardLayers(p, *buffer, p.configs.front(),
                    std::max(2u, p.args.shards), op);
    if (!own.has("serve.lookup_s"))
        serveLayers(p, repo, {analog}, p.prefix + "layers-store.jsonl",
                    false);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            throw std::runtime_error(
                "usage: perfbench-probe sim|file|long|serve --spans=FILE "
                "--prefix=PATH [--layer-cap=N] [sweep options] INPUT...");
        Probe p;
        p.mode = argv[1];
        std::vector<std::string> rest;
        for (int i = 2; i < argc; ++i) {
            std::string a = argv[i];
            if (a.rfind("--spans=", 0) == 0)
                p.spansPath = a.substr(8);
            else if (a.rfind("--prefix=", 0) == 0)
                p.prefix = a.substr(9);
            else if (a.rfind("--layer-cap=", 0) == 0)
                p.layerCap = std::stoull(a.substr(12));
            else
                rest.push_back(a);
        }
        std::string error;
        if (!engine::parseSweepArgs(rest, p.args, error) ||
            !engine::buildSweepConfigAxis(p.args, p.configs, p.labels,
                                          error))
            throw std::runtime_error(error);
        if (p.spansPath.empty() || p.prefix.empty() || p.args.inputs.empty())
            throw std::runtime_error("--spans, --prefix and an input are "
                                     "required");

        if (p.mode == "sim")
            runSim(p);
        else if (p.mode == "file")
            runFile(p);
        else if (p.mode == "long")
            runLong(p);
        else if (p.mode == "serve")
            runServe(p);
        else
            throw std::runtime_error("unknown mode: " + p.mode);

        // The analog behind the first input ("dir/cc1.ptrc" -> "cc1").
        std::string analog = p.args.inputs.front();
        analog = analog.substr(analog.find_last_of('/') + 1);
        analog = analog.substr(0, analog.find('.'));
        Metrics own = std::move(p.metrics);
        p.metrics = Metrics();
        bypassedLayers(p, own, analog, p.layerCap);
        own.fillFrom(p.metrics);
        p.metrics = std::move(own);

        p.tracer.write(p.spansPath);
        std::ostringstream out;
        out << "{\"metrics\": " << p.metrics.json() << ", \"ops\": [";
        for (size_t i = 0; i < p.ops.size(); ++i) {
            const OpSummary &s = p.ops[i];
            out << (i ? ", " : "") << "{\"kind\": "
                << engine::jsonString(s.kind)
                << ", \"input\": " << engine::jsonString(s.input)
                << ", \"wall\": " << engine::jsonDouble(s.wall)
                << ", \"attributed\": " << engine::jsonDouble(s.attributed)
                << ", \"doc\": " << engine::jsonString(s.doc) << "}";
        }
        out << "]}";
        std::cout << out.str() << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench-probe: %s\n", e.what());
        return 1;
    }
}
