/**
 * @file
 * TraceRepository: where every sweep input's records come from.
 *
 * A (trace × config) sweep re-analyzes the same trace many times, and an
 * analysis holds no trace of its own: the live well is its only state
 * (paper §3.2). So every input streams into each pass, and the repository
 * keeps only what opening an input costs:
 *
 *  - A *simulated* input (a bundled workload analog, a `.s` assembly file
 *    or a `.mc`/`.c` MiniC program) is simulated by each pass. The
 *    repository caches its compiled casm::Program and hands each pass a
 *    fresh simulator that steps the machine straight into the pass's
 *    block; the simulator is deterministic, so every pass sees the
 *    identical records. One pass over 1M records costs less than one
 *    config's analysis, which a fused pass pays once for all its configs.
 *  - A `.ptrc` trace file is read in place from its mapping through one
 *    shared decode pool (decodePool()), whose blocks every pass, key and
 *    source (makeSource()) shares.
 *  - A `.ptrz` trace file is decoded inline by each pass (makeSource()).
 *
 * Every file input's program, pool and content key are tagged with the
 * file's identity (trace::FileIdentity); a bundled analog has none.
 * program(), decodePool() and traceKey() stat the path on every call and
 * rebuild when the file on disk has changed, so a long-running holder
 * (the paragraph-serve daemon keeps one repository alive across every
 * client's sweeps) never keys, compiles or reads a replaced, rewritten,
 * truncated or deleted file from its old content; passes already reading
 * an old mapping or program keep it until they finish. Each decodePool()
 * call also stats the path of every pool held and drops the pools of
 * files that changed or are gone, so none stays mapped. A pool of a file
 * that is unchanged but never asked for again stays held.
 *
 * traceCrc() is each input's content identity (CRC-32 of the packed
 * records, the value a trace-file header carries), the trace half of the
 * serve result cache's content address. get() copies an input into memory
 * once; no sweep or daemon path calls it, it is the serial reference of
 * tests and benches.
 */

#ifndef PARAGRAPH_ENGINE_TRACE_REPOSITORY_HPP
#define PARAGRAPH_ENGINE_TRACE_REPOSITORY_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "casm/program.hpp"
#include "trace/buffer.hpp"
#include "trace/mmap_io.hpp"
#include "trace/shared_decode.hpp"
#include "trace/source.hpp"
#include "workloads/workload.hpp"

namespace paragraph {
namespace engine {

class TraceRepository
{
  public:
    struct Options
    {
        /** Scale used when an input names a bundled workload. */
        workloads::Scale scale = workloads::Scale::Full;

        /** Produce at most this many records per input — per streamed
         *  pass, per simulation, per get(); 0 = whole trace. Set this to
         *  the sweep's maxInstructions so no pass produces records that
         *  no analysis will consume. */
        uint64_t maxRecords = 0;

        /** Ignored: every trace file streams. Kept for callers built
         *  against the older capture-or-stream choice. */
        bool streamFiles = false;
    };

    /** An input's content key and the file it was taken from. */
    struct TraceKey
    {
        uint32_t crc = 0;
        /** The input file's identity when keyed; nullopt for a bundled
         *  analog. */
        std::optional<trace::FileIdentity> file;
    };

    TraceRepository() = default;
    explicit TraceRepository(Options opt) : opt_(opt) {}

    TraceRepository(const TraceRepository &) = delete;
    TraceRepository &operator=(const TraceRepository &) = delete;

    /**
     * All of @p spec's records in memory (capped at maxRecords), read on
     * the first request and kept for the repository's lifetime: a serial
     * reference for tests and benches. No sweep or daemon path calls it.
     *
     * @p spec is resolved exactly like the `paragraph` CLI input argument:
     * `.ptrc`/`.ptrz` trace files are read back, `.s` assembly and
     * `.mc`/`.c` MiniC programs are simulated for their trace, and anything
     * else names a bundled workload analog. Thread-safe; throws FatalError
     * for unknown inputs.
     */
    std::shared_ptr<const trace::TraceBuffer> get(const std::string &spec);

    /** A fresh source producing @p spec's records, capped at maxRecords:
     *  a simulator for a simulated input, a `.ptrz` decoded inline, and a
     *  view of decodePool(@p spec) for a `.ptrc`. */
    std::unique_ptr<trace::TraceSource> makeSource(const std::string &spec);

    /** True when @p spec is simulated: a bundled workload analog, a `.s`
     *  or a `.mc`/`.c` input, streamed from the simulator per pass. */
    bool simulatedInput(const std::string &spec) const;

    /**
     * The compiled program of simulated input @p spec: a bundled analog's
     * comes from the workload suite, a `.s`/`.mc` file is assembled or
     * compiled on first request (once, however many threads ask at once)
     * and again whenever its identity on disk has moved. Sources made
     * from it co-own it. Thread-safe; throws FatalError for an unknown
     * analog or an unreadable or invalid program.
     */
    std::shared_ptr<const casm::Program> program(const std::string &spec);

    /** Programs program() has resolved: each `.s`/`.mc` compile (a
     *  recompile of a changed file too), and each analog taken from the
     *  suite, counts once. */
    size_t programsBuilt() const;

    /**
     * The shared decode pool for a `.ptrc` input: every consumer (fused
     * group, solo cell, serve client) of the same file reads its records
     * in place from one mapping, and each block is checked once between
     * them. An uncapped pool verifies the payload CRC as it opens; a
     * capped one (maxRecords below the file's count) checks only the
     * blocks it serves. Every call, whatever @p spec is, first stat()s
     * the path of each pool held and drops those whose file changed or is
     * gone, so a changed @p spec is mapped afresh. Returns nullptr when
     * @p spec is not a `.ptrc` — callers then read makeSource().
     * Thread-safe; throws the located FatalError of a missing, unmappable,
     * truncated or corrupt file.
     */
    std::shared_ptr<trace::SharedDecodePool>
    decodePool(const std::string &spec);

    /**
     * @p spec's content key: CRC-32 of its records in packed on-disk form,
     * equal to trace::traceBufferCrc of get(@p spec). An uncapped v2
     * `.ptrc` whose pool verified it while opening (payload CRC, and the
     * range check of every block) is keyed by its header's payload CRC;
     * any other input is checksummed in one streaming pass in O(block)
     * memory.
     * Remembered per spec, and for a file input per identity: a changed
     * file is keyed again. Throws what reading the input throws, so a
     * damaged payload gets no key.
     */
    TraceKey traceKey(const std::string &spec);

    /** traceKey(@p spec).crc. */
    uint32_t traceCrc(const std::string &spec) { return traceKey(spec).crc; }

    /** The identity of file input @p spec (a trace file, a `.s`, a
     *  `.mc`/`.c`) on disk now, as traceKey() and program() compare it;
     *  nullopt for a bundled analog or a missing file. */
    std::optional<trace::FileIdentity>
    fileIdentity(const std::string &spec) const;

    /** Inputs get() holds. */
    size_t cachedInputs() const;

    /** Bytes of trace records get() holds. */
    size_t cachedBytes() const;

  private:
    /** A compiled program and the identity of the file it was read from
     *  (nullopt for an analog). */
    struct CompiledProgram
    {
        std::shared_ptr<const casm::Program> program;
        std::optional<trace::FileIdentity> file;
    };

    Options opt_;

    /** get()'s captures. Their own lock, held while a capture reads its
     *  source, which takes mutex_ or programsMutex_: capturesMutex_ is
     *  always taken first. */
    mutable std::mutex capturesMutex_;
    std::map<std::string, std::shared_ptr<const trace::TraceBuffer>>
        captures_;
    size_t capturedBytes_ = 0;

    mutable std::mutex mutex_; ///< pools_ and keys_
    std::map<std::string, std::shared_ptr<trace::SharedDecodePool>> pools_;
    std::map<std::string, TraceKey> keys_;

    mutable std::mutex programsMutex_;
    std::map<std::string, CompiledProgram> programs_;
    size_t programsBuilt_ = 0;
};

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_TRACE_REPOSITORY_HPP
