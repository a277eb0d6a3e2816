#include "engine/trace_repository.hpp"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

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

/** Any input read from a file: everything but a bundled analog. */
bool
isFileInput(const std::string &spec)
{
    return isTraceFile(spec) || isProgramFile(spec);
}

} // namespace

std::shared_ptr<const trace::TraceBuffer>
TraceRepository::get(const std::string &spec)
{
    std::lock_guard<std::mutex> lock(capturesMutex_);
    auto it = captures_.find(spec);
    if (it == captures_.end()) {
        auto buffer = std::make_shared<trace::TraceBuffer>();
        buffer->capture(*makeSource(spec));
        capturedBytes_ += buffer->size() * sizeof(trace::TraceRecord);
        it = captures_.emplace(spec, std::move(buffer)).first;
    }
    return it->second;
}

bool
TraceRepository::simulatedInput(const std::string &spec) const
{
    return !isTraceFile(spec);
}

std::shared_ptr<const casm::Program>
TraceRepository::program(const std::string &spec)
{
    // Stat before reading: a program is never tagged with the identity of
    // an edit made after it was read.
    const std::optional<trace::FileIdentity> file = fileIdentity(spec);
    std::lock_guard<std::mutex> lock(programsMutex_);
    CompiledProgram &slot = programs_[spec];
    if (slot.program && slot.file == file)
        return slot.program;
    if (hasSuffix(spec, ".s")) {
        slot.program = std::make_shared<const casm::Program>(
            casm::assemble(readFile(spec)));
    } else if (isProgramFile(spec)) {
        slot.program = std::make_shared<const casm::Program>(
            minic::compile(readFile(spec)));
    } else {
        // The suite keeps an analog's program for the whole process: hand
        // it out without an owner.
        auto &suite = workloads::WorkloadSuite::instance();
        slot.program = std::shared_ptr<const casm::Program>(
            std::shared_ptr<const casm::Program>(),
            &suite.program(suite.find(spec)));
    }
    slot.file = file;
    ++programsBuilt_;
    return slot.program;
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
    {
        // Drop every held pool whose file changed or is gone, whichever
        // input is asked for, so no deleted or replaced file stays mapped
        // for the repository's lifetime. Passes still reading an old
        // mapping hold it until they finish; the rest are unmapped once
        // the lock is released (`released` outlives `lock`).
        std::vector<std::shared_ptr<trace::SharedDecodePool>> released;
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = pools_.begin(); it != pools_.end();) {
            if (fileIdentity(it->first) == it->second->file().identity()) {
                ++it;
            } else {
                released.push_back(std::move(it->second));
                it = pools_.erase(it);
            }
        }
        // Only uncompressed `.ptrc` files support random block access;
        // `.ptrz` decode is stateful (delta-coded), so each pass decodes
        // it inline.
        if (!hasSuffix(spec, ".ptrc"))
            return nullptr;
        auto it = pools_.find(spec);
        if (it != pools_.end())
            return it->second;
    }
    // Map and validate outside the lock: the payload-CRC pass over a
    // multi-GB trace must not stall every other worker.
    trace::SharedDecodePool::Options popt;
    popt.maxRecords = opt_.maxRecords;
    auto pool = std::make_shared<trace::SharedDecodePool>(
        std::make_shared<trace::MmapTraceFile>(spec), popt);
    // Two callers that mapped the same file share the first pool.
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<trace::SharedDecodePool> &slot = pools_[spec];
    if (!slot || slot->file().identity() != pool->file().identity())
        slot = std::move(pool);
    return slot;
}

TraceRepository::TraceKey
TraceRepository::traceKey(const std::string &spec)
{
    TraceKey key;
    key.file = fileIdentity(spec);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = keys_.find(spec);
        if (it != keys_.end() && it->second.file == key.file)
            return it->second;
    }
    // Compute outside the lock: a checksum pass over a large input must
    // not stall every other worker.
    // Opening an uncapped v2 pool verified the header's payload CRC and
    // range-checked every block: unless a block failed, that CRC is the
    // key.
    std::shared_ptr<trace::SharedDecodePool> pool = decodePool(spec);
    if (pool && pool->payloadVerified() &&
        pool->blocksDecoded() == pool->blockCount()) {
        key.crc = pool->file().storedPayloadCrc();
        key.file = pool->file().identity();
    } else {
        // Any other input is checksummed as it streams by; a damaged
        // record throws its located error, so it gets no key.
        key.crc = trace::traceSourceCrc(*makeSource(spec));
        // A file that could not be stat()ed has nothing to tag its key
        // with: hand it out, but do not remember it.
        if (!key.file && isFileInput(spec))
            return key;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    keys_[spec] = key;
    return key;
}

std::optional<trace::FileIdentity>
TraceRepository::fileIdentity(const std::string &spec) const
{
    if (!isFileInput(spec))
        return std::nullopt;
    return trace::fileIdentity(spec);
}

size_t
TraceRepository::cachedInputs() const
{
    std::lock_guard<std::mutex> lock(capturesMutex_);
    return captures_.size();
}

size_t
TraceRepository::cachedBytes() const
{
    std::lock_guard<std::mutex> lock(capturesMutex_);
    return capturedBytes_;
}

std::unique_ptr<trace::TraceSource>
TraceRepository::makeSource(const std::string &spec)
{
    // A `.ptrc` reads the shared pool, which serves at most maxRecords.
    if (hasSuffix(spec, ".ptrc"))
        return std::make_unique<trace::SharedDecodeSource>(decodePool(spec));
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
