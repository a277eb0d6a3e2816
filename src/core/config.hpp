/**
 * @file
 * AnalysisConfig: every Paragraph switch from paper Section 3.2.
 *
 * "Paragraph is fully parameterizable. The following parameters can be
 * combined in any combination to see their effects on the parallelism
 * profiles and critical paths": system calls stall, rename registers,
 * rename data, rename stack, window size — plus the functional-unit
 * resource throttle of Figure 4 and the latency model of Table 1.
 */

#ifndef PARAGRAPH_CORE_CONFIG_HPP
#define PARAGRAPH_CORE_CONFIG_HPP

#include <array>
#include <cstdint>
#include <string>

#include "core/branch_predictor.hpp"
#include "isa/op_class.hpp"

namespace paragraph {
namespace core {

class CancelToken;

struct AnalysisConfig
{
    // --- Paper switches -------------------------------------------------

    /**
     * Conservative system-call assumption: a syscall is assumed to modify
     * every live value, implemented as a firewall in the DDG. When false
     * (optimistic), syscalls are assumed to modify nothing.
     */
    bool sysCallsStall = true;

    /** Remove register storage dependencies (unlimited physical registers). */
    bool renameRegisters = true;

    /** Remove storage dependencies in the non-stack memory segments. */
    bool renameData = true;

    /** Remove storage dependencies in the stack segment. */
    bool renameStack = true;

    /**
     * Number of contiguous trace instructions viewable at once. Instructions
     * displaced from the window leave a firewall behind, so no DDG level can
     * hold more than this many operations. 0 means unlimited (whole trace).
     */
    uint64_t windowSize = 0;

    // --- Control dependencies (paper Figure 3 / Section 3.2 extension) ----

    /**
     * Branch-prediction model. With anything other than Perfect, every
     * mispredicted conditional branch raises a firewall at the branch's
     * resolution level: no later operation may start before the branch
     * outcome is known.
     */
    PredictorKind branchPredictor = PredictorKind::Perfect;

    /** log2 of the bimodal predictor's counter table. */
    uint32_t predictorTableBits = 12;

    // --- Resource dependencies (paper Figure 4) --------------------------

    /** Per-class functional-unit count; 0 entries are unlimited. */
    std::array<uint32_t, isa::numOpClasses> fuLimit = {};

    /** Generic functional units shared by all classes; 0 = unlimited. */
    uint32_t totalFuLimit = 0;

    /**
     * When true an operation occupies a unit only in its issue level
     * (pipelined FUs); when false it occupies all levels it spans, matching
     * Figure 4's "at most two operations can coexist in any single level".
     */
    bool pipelinedFus = false;

    // --- Latency model (paper Table 1) ------------------------------------

    /** DDG levels per operation class; defaults to the Table 1 values. */
    std::array<uint32_t, isa::numOpClasses> latency = defaultLatencies();

    // --- Analysis bounds and metric collection ---------------------------

    /** Stop after this many trace instructions; 0 = whole trace. */
    uint64_t maxInstructions = 0;

    /**
     * Optional cooperative cancellation: the bulk record loops poll this
     * token every few tens of thousands of records and abort the analysis
     * with CancelledError once it is cancelled or past its deadline. Not
     * owned; must outlive the analysis. nullptr = never cancelled.
     */
    const CancelToken *cancel = nullptr;

    /** Number of parallelism-profile bins (power of two). */
    size_t profileBins = 4096;

    /**
     * Collect the full distributions of paper Section 2.3: the
     * value-lifetime and degree-of-sharing histograms and the storage
     * (waiting-token) profile. When false — a sweep or daemon cell, whose
     * document renders only the two means — lifetimes and sharing keep
     * just a count and a sum (Histogram::tally: no bins), and the storage
     * profile stays empty. Every other metric is identical either way.
     */
    bool distributions = true;

    /**
     * Evict live-well entries at their annotated last use (two-pass method;
     * requires a trace with lastUseMask filled in). When false, entries are
     * evicted when their location is overwritten (one-pass method).
     */
    bool useLastUseEviction = false;

    /** Table 1 latencies. */
    static constexpr std::array<uint32_t, isa::numOpClasses>
    defaultLatencies()
    {
        std::array<uint32_t, isa::numOpClasses> lat = {};
        for (size_t i = 0; i < isa::numOpClasses; ++i)
            lat[i] = isa::opLatency(static_cast<isa::OpClass>(i));
        return lat;
    }

    /** One-line description of the switch settings, for reports. */
    std::string describe() const;

    // --- Named presets used throughout the paper's evaluation ------------

    /** Table 3 "Conservative": all renaming, unlimited window, firewalls. */
    static AnalysisConfig dataflowConservative();

    /** Table 3 "Optimistic": as above, syscalls ignored. */
    static AnalysisConfig dataflowOptimistic();

    /** Table 4 columns: the four renaming conditions. */
    static AnalysisConfig noRenaming();
    static AnalysisConfig regsRenamed();
    static AnalysisConfig regsStackRenamed();
    static AnalysisConfig regsMemRenamed();

    /** Figure 8: all renaming, firewalls, fixed window size. */
    static AnalysisConfig windowed(uint64_t window_size);
};

} // namespace core
} // namespace paragraph

#endif // PARAGRAPH_CORE_CONFIG_HPP
