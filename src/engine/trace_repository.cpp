#include "engine/trace_repository.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "casm/assembler.hpp"
#include "minic/compiler.hpp"
#include "sim/machine.hpp"
#include "support/panic.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"

namespace paragraph {
namespace engine {

namespace {

bool
hasSuffix(const std::string &s, const char *suffix)
{
    std::string_view suf(suffix);
    return s.size() >= suf.size() &&
           s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        PARA_FATAL("cannot open %s", path.c_str());
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

bool
isTraceFile(const std::string &spec)
{
    return hasSuffix(spec, ".ptrc") || hasSuffix(spec, ".ptrz");
}

/** An assembly or MiniC program file (simulated, not a bundled analog). */
bool
isProgramFile(const std::string &spec)
{
    return hasSuffix(spec, ".s") || hasSuffix(spec, ".mc") ||
           hasSuffix(spec, ".c");
}

} // namespace

void
TracePin::release()
{
    if (repo_) {
        repo_->unpin(spec_);
        repo_ = nullptr;
    }
    buffer_.reset();
}

TraceRepository::Entry &
TraceRepository::fetch(const std::string &spec)
{
    auto it = cache_.find(spec);
    if (it == cache_.end()) {
        auto buffer = std::make_shared<trace::TraceBuffer>();
        buffer->capture(*produce(spec));
        Entry entry;
        entry.buffer = std::move(buffer);
        entry.bytes =
            entry.buffer->size() * sizeof(trace::TraceRecord);
        it = cache_.emplace(spec, std::move(entry)).first;
        cachedBytes_ += it->second.bytes;
        it->second.lastUse = ++useCounter_;
        // Hold the new entry through its own eviction pass: a capture
        // larger than the whole budget overshoots instead of being evicted
        // out from under the caller (the reference below must stay valid).
        ++it->second.pins;
        enforceBudget();
        --it->second.pins;
    } else {
        it->second.lastUse = ++useCounter_;
    }
    return it->second;
}

void
TraceRepository::enforceBudget()
{
    if (opt_.memoryBudget == 0)
        return;
    while (cachedBytes_ > opt_.memoryBudget) {
        // Drop the least-recently-used unpinned capture. In-flight
        // analyses are unaffected: they co-own the buffer via shared_ptr.
        auto victim = cache_.end();
        for (auto it = cache_.begin(); it != cache_.end(); ++it) {
            if (it->second.pins > 0)
                continue;
            if (victim == cache_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == cache_.end())
            return; // everything left is pinned; allow the overshoot
        cachedBytes_ -= victim->second.bytes;
        cache_.erase(victim);
    }
}

std::shared_ptr<const trace::TraceBuffer>
TraceRepository::get(const std::string &spec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fetch(spec).buffer;
}

TracePin
TraceRepository::pin(const std::string &spec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &entry = fetch(spec);
    ++entry.pins;
    return TracePin(this, spec, entry.buffer);
}

void
TraceRepository::unpin(const std::string &spec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(spec);
    if (it == cache_.end() || it->second.pins == 0)
        return;
    if (--it->second.pins == 0)
        enforceBudget(); // pins may have been holding the budget open
}

std::unique_ptr<trace::TraceSource>
TraceRepository::makeSource(const std::string &spec)
{
    if (capturedInput(spec))
        return std::make_unique<trace::SharedBufferSource>(get(spec), spec);
    return produce(spec);
}

bool
TraceRepository::simulatedInput(const std::string &spec) const
{
    return !isTraceFile(spec);
}

bool
TraceRepository::streamingInput(const std::string &spec) const
{
    return opt_.streamFiles && isTraceFile(spec);
}

bool
TraceRepository::capturedInput(const std::string &spec) const
{
    return !opt_.streamFiles && isTraceFile(spec);
}

std::shared_ptr<const casm::Program>
TraceRepository::program(const std::string &spec)
{
    std::lock_guard<std::mutex> lock(programsMutex_);
    std::shared_ptr<const casm::Program> &slot = programs_[spec];
    if (slot)
        return slot;
    if (hasSuffix(spec, ".s")) {
        slot = std::make_shared<const casm::Program>(
            casm::assemble(readFile(spec)));
    } else if (isProgramFile(spec)) {
        slot = std::make_shared<const casm::Program>(
            minic::compile(readFile(spec)));
    } else {
        // The suite keeps an analog's program for the whole process: hand
        // it out without an owner.
        auto &suite = workloads::WorkloadSuite::instance();
        slot = std::shared_ptr<const casm::Program>(
            std::shared_ptr<const casm::Program>(),
            &suite.program(suite.find(spec)));
    }
    ++programsBuilt_;
    return slot;
}

size_t
TraceRepository::programsBuilt() const
{
    std::lock_guard<std::mutex> lock(programsMutex_);
    return programsBuilt_;
}

std::shared_ptr<trace::SharedDecodePool>
TraceRepository::decodePool(const std::string &spec)
{
    // Only uncompressed `.ptrc` files support random block access; `.ptrz`
    // decode is stateful (delta-coded), so each pass decodes it inline.
    if (!streamingInput(spec) || !hasSuffix(spec, ".ptrc"))
        return nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = pools_.find(spec);
        if (it != pools_.end())
            return it->second;
    }
    // Map and validate outside the lock: the eager payload-CRC pass over a
    // multi-GB trace must not stall every other worker.
    std::shared_ptr<trace::MmapTraceFile> file =
        trace::MmapTraceFile::tryOpen(spec);
    if (!file)
        return nullptr;
    trace::SharedDecodePool::Options popt;
    popt.maxRecords = opt_.maxRecords;
    // A capped read never reaches the final records, so (like the
    // sequential reader, whose CRC check fires only at end-of-stream) a
    // capped pool skips whole-payload verification.
    popt.verifyPayload =
        opt_.maxRecords == 0 || opt_.maxRecords >= file->recordCount();
    auto pool =
        std::make_shared<trace::SharedDecodePool>(std::move(file), popt);
    std::lock_guard<std::mutex> lock(mutex_);
    return pools_.emplace(spec, std::move(pool)).first->second;
}

uint32_t
TraceRepository::traceCrc(const std::string &spec)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = crcs_.find(spec);
        if (it != crcs_.end())
            return it->second;
    }
    // Compute outside the lock: the CRC pass over a large input must not
    // stall every other worker's get(). An input that is not captured is
    // never resident, so it is checksummed as it streams by.
    uint32_t crc = capturedInput(spec)
                       ? trace::traceBufferCrc(*get(spec))
                       : trace::traceSourceCrc(*produce(spec));
    std::lock_guard<std::mutex> lock(mutex_);
    crcs_.emplace(spec, crc);
    return crc;
}

bool
TraceRepository::hasTraceCrc(const std::string &spec) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return crcs_.count(spec) != 0;
}

void
TraceRepository::release(const std::string &spec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(spec);
    if (it == cache_.end() || it->second.pins > 0)
        return;
    cachedBytes_ -= it->second.bytes;
    cache_.erase(it);
}

void
TraceRepository::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = cache_.begin(); it != cache_.end();) {
        if (it->second.pins > 0) {
            ++it;
        } else {
            cachedBytes_ -= it->second.bytes;
            it = cache_.erase(it);
        }
    }
}

size_t
TraceRepository::cachedInputs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

size_t
TraceRepository::cachedBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cachedBytes_;
}

std::unique_ptr<trace::TraceSource>
TraceRepository::produce(const std::string &spec)
{
    std::unique_ptr<trace::TraceSource> src;
    if (isTraceFile(spec)) {
        src = trace::openTraceFile(spec);
    } else {
        std::vector<int32_t> input;
        if (!isProgramFile(spec)) {
            const workloads::Workload &w =
                workloads::WorkloadSuite::instance().find(spec);
            input = opt_.scale == workloads::Scale::Full ? w.input
                                                         : w.smallInput;
        }
        src = std::make_unique<sim::MachineTraceSource>(
            program(spec), std::move(input), std::vector<double>{}, spec);
    }
    if (opt_.maxRecords == 0)
        return src;
    return std::make_unique<trace::LimitedSource>(std::move(src),
                                                  opt_.maxRecords);
}

} // namespace engine
} // namespace paragraph
