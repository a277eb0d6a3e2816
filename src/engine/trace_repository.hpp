/**
 * @file
 * TraceRepository: where every sweep input's records come from.
 *
 * A (trace × config) sweep re-analyzes the same trace many times. How an
 * input is produced decides how it is shared:
 *
 *  - A *simulated* input (a bundled workload analog, a `.s` assembly file
 *    or a `.mc`/`.c` MiniC program) is never stored. The repository caches
 *    its compiled casm::Program and hands each pass a fresh simulator that
 *    steps the machine straight into the pass's block; the simulator is
 *    deterministic, so every pass sees the identical records. One pass
 *    over 1M records costs less than one config's analysis, which a fused
 *    pass pays once for all its configs.
 *  - A *streamed* trace file (Options::streamFiles) is re-read per pass:
 *    a `.ptrc` in place from its mapping, through a shared decode pool.
 *  - Any other trace file, and any input get() is asked for directly, is
 *    *captured* once into an immutable, shared in-memory
 *    trace::TraceBuffer. Workers replay a capture through
 *    trace::SharedBufferSource cursors, concurrently and without
 *    synchronization.
 *
 * Long-running holders (the paragraph-serve daemon keeps one repository
 * alive across every client's sweeps) bound the resident set with
 * Options::memoryBudget: least-recently-used captures are dropped from the
 * cache when a new capture would exceed the budget. Eviction is always
 * safe mid-analysis — get() hands out shared_ptrs, so an in-flight
 * analysis keeps its capture alive even after the cache lets go — and
 * entries pinned through pin() (held for the duration of a fused group
 * over a captured input) are never evicted, so a group's trace cannot be
 * captured twice by the same request. traceCrc() exposes each input's
 * content identity (CRC-32 of the packed records, the value a trace-file
 * header would carry), the trace half of the serve result cache's content
 * address.
 */

#ifndef PARAGRAPH_ENGINE_TRACE_REPOSITORY_HPP
#define PARAGRAPH_ENGINE_TRACE_REPOSITORY_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "casm/program.hpp"
#include "trace/buffer.hpp"
#include "trace/shared_decode.hpp"
#include "trace/source.hpp"
#include "workloads/workload.hpp"

namespace paragraph {
namespace engine {

class TraceRepository;

/**
 * RAII pin on one cached capture: while alive, the entry cannot be
 * LRU-evicted (and the shared buffer is referenced regardless). Returned
 * by TraceRepository::pin(); release order does not matter.
 */
class TracePin
{
  public:
    TracePin() = default;
    TracePin(TracePin &&other) noexcept { *this = std::move(other); }
    TracePin &
    operator=(TracePin &&other) noexcept
    {
        release();
        repo_ = other.repo_;
        spec_ = std::move(other.spec_);
        buffer_ = std::move(other.buffer_);
        other.repo_ = nullptr;
        return *this;
    }
    TracePin(const TracePin &) = delete;
    TracePin &operator=(const TracePin &) = delete;
    ~TracePin() { release(); }

    /** The pinned capture (null for a default-constructed pin). */
    const std::shared_ptr<const trace::TraceBuffer> &buffer() const
    {
        return buffer_;
    }

    void release();

  private:
    friend class TraceRepository;
    TracePin(TraceRepository *repo, std::string spec,
             std::shared_ptr<const trace::TraceBuffer> buffer)
        : repo_(repo), spec_(std::move(spec)), buffer_(std::move(buffer)) {}

    TraceRepository *repo_ = nullptr;
    std::string spec_;
    std::shared_ptr<const trace::TraceBuffer> buffer_;
};

class TraceRepository
{
  public:
    struct Options
    {
        /** Scale used when an input names a bundled workload. */
        workloads::Scale scale = workloads::Scale::Full;

        /** Produce at most this many records per input — per capture,
         *  per streamed pass, per simulation; 0 = whole trace. Set this to
         *  the sweep's maxInstructions so no pass produces records that
         *  no analysis will consume. */
        uint64_t maxRecords = 0;

        /** Stream `.ptrc`/`.ptrz` trace-file inputs instead of capturing
         *  them: makeSource() re-opens the file per request (capped at
         *  maxRecords). Trades the one-time capture's memory footprint
         *  for a decode per analysis pass — the trace-major sweep
         *  scheduler amortizes that decode across every config fused
         *  into the pass. Simulated inputs always stream, and get()
         *  still captures any input if asked directly. */
        bool streamFiles = false;

        /** Byte budget for cached captures (48 B per record); 0 =
         *  unlimited (the one-shot sweep CLI default). Decode pools hold
         *  no bytes (their records stay in the mapped file), so streamed
         *  inputs never count. When a new capture
         *  would exceed it, the least-recently-used unpinned captures are
         *  dropped first. A single capture larger than the budget, or a
         *  budget fully occupied by pins, is allowed to overshoot —
         *  eviction never blocks and never touches pinned entries. */
        size_t memoryBudget = 0;
    };

    TraceRepository() = default;
    explicit TraceRepository(Options opt) : opt_(opt) {}

    TraceRepository(const TraceRepository &) = delete;
    TraceRepository &operator=(const TraceRepository &) = delete;

    /**
     * The shared capture for @p spec, producing it on first request —
     * for any input, simulated ones included (tests, the two-pass
     * trace::LastUseAnnotator). The sweep paths never call it for an
     * input that is not capturedInput().
     *
     * @p spec is resolved exactly like the `paragraph` CLI input argument:
     * `.ptrc`/`.ptrz` trace files are read back, `.s` assembly and
     * `.mc`/`.c` MiniC programs are simulated for their trace, and anything
     * else names a bundled workload analog. Thread-safe; throws FatalError
     * for unknown inputs.
     */
    std::shared_ptr<const trace::TraceBuffer> get(const std::string &spec);

    /** get() plus an eviction pin: the cache entry survives any budget
     *  pressure until the returned pin is released. */
    TracePin pin(const std::string &spec);

    /** A fresh replayable source for @p spec, capped at maxRecords: a
     *  simulator for a simulated input, a re-opened trace file for a
     *  streamed one, or a cursor over the shared capture. */
    std::unique_ptr<trace::TraceSource> makeSource(const std::string &spec);

    /** True when @p spec is simulated: a bundled workload analog, a `.s`
     *  or a `.mc`/`.c` input, streamed from the simulator per pass. */
    bool simulatedInput(const std::string &spec) const;

    /** True when @p spec is served by streaming a trace file
     *  (Options::streamFiles and the spec names a `.ptrc`/`.ptrz`). */
    bool streamingInput(const std::string &spec) const;

    /** True when the sweep paths read @p spec from a capture: a trace
     *  file that is not streamed. */
    bool capturedInput(const std::string &spec) const;

    /**
     * The compiled program of simulated input @p spec: a bundled analog's
     * comes from the workload suite, a `.s`/`.mc` file is assembled or
     * compiled on first request (once, however many threads ask at once)
     * and cached for the repository's lifetime. Sources made from it
     * co-own it. Thread-safe; throws FatalError for an unknown analog or
     * an unreadable or invalid program.
     */
    std::shared_ptr<const casm::Program> program(const std::string &spec);

    /** Programs program() has resolved: each `.s`/`.mc` compile, and each
     *  analog taken from the suite, counts once. */
    size_t programsBuilt() const;

    /**
     * The shared decode pool for a streamed `.ptrc` input: every consumer
     * (fused group, solo cell, shard segment, serve client) of the same
     * input reads its records in place from one mapping, and each block
     * is checked once between them. Returns nullptr when @p spec is not a
     * streamed `.ptrc` (or cannot be mapped) — callers then fall back to
     * makeSource(). Thread-safe; the pool is cached for the repository's
     * lifetime.
     */
    std::shared_ptr<trace::SharedDecodePool>
    decodePool(const std::string &spec);

    /** CRC-32 of @p spec's records in packed on-disk form: equal to
     *  trace::traceBufferCrc of its capture. A captured input is captured
     *  (if it is not yet) and checksummed; any other input is checksummed
     *  in one streaming pass in O(block) memory, capturing nothing.
     *  Remembered per spec, even after a capture is evicted. */
    uint32_t traceCrc(const std::string &spec);

    /** True once traceCrc(@p spec) is known, so asking for it produces no
     *  records. */
    bool hasTraceCrc(const std::string &spec) const;

    /** Drop the cached capture for @p spec (in-flight sources keep theirs;
     *  pinned entries are not droppable until unpinned). */
    void release(const std::string &spec);

    /** Drop every unpinned cached capture. */
    void clear();

    /** Number of inputs currently cached. */
    size_t cachedInputs() const;

    /** Bytes of trace records currently cached. */
    size_t cachedBytes() const;

  private:
    friend class TracePin;

    struct Entry
    {
        std::shared_ptr<const trace::TraceBuffer> buffer;
        size_t bytes = 0;
        uint64_t lastUse = 0;
        unsigned pins = 0;
    };

    Options opt_;
    mutable std::mutex mutex_;
    std::map<std::string, Entry> cache_;
    std::map<std::string, std::shared_ptr<trace::SharedDecodePool>> pools_;
    std::map<std::string, uint32_t> crcs_;
    uint64_t useCounter_ = 0;
    size_t cachedBytes_ = 0;

    /** Compiled programs of simulated inputs. Their own lock, so a capture
     *  (which runs under mutex_) can resolve one: mutex_ is taken first
     *  whenever both are held. */
    mutable std::mutex programsMutex_;
    std::map<std::string, std::shared_ptr<const casm::Program>> programs_;
    size_t programsBuilt_ = 0;

    /** Look up / produce the entry for @p spec (mutex_ held), bumping its
     *  LRU stamp and evicting as needed on insert. */
    Entry &fetch(const std::string &spec);

    /** Evict unpinned LRU entries until the budget holds (mutex_ held). */
    void enforceBudget();

    void unpin(const std::string &spec);

    /** A fresh source producing @p spec's records, capped at maxRecords:
     *  the simulator or the trace file read back. The one factory behind
     *  captures, streamed passes and streaming checksums. */
    std::unique_ptr<trace::TraceSource> produce(const std::string &spec);
};

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_TRACE_REPOSITORY_HPP
