/**
 * @file
 * AnalysisResult: everything one Paragraph run produces.
 *
 * "Every trace analysis produces two metrics: the parallelism profile, and
 * the critical path length" — plus the distributions Section 2.3 describes
 * (value lifetimes, degree of sharing) and bookkeeping counters used by the
 * experiment harnesses.
 */

#ifndef PARAGRAPH_CORE_RESULT_HPP
#define PARAGRAPH_CORE_RESULT_HPP

#include <cstdint>

#include "support/bucketed_profile.hpp"
#include "support/histogram.hpp"
#include "support/interval_profile.hpp"

namespace paragraph {
namespace core {

struct AnalysisResult
{
    /** Trace records consumed (including control instructions). */
    uint64_t instructions = 0;

    /** Value-creating operations placed in the DDG. */
    uint64_t placedOps = 0;

    /** System calls encountered. */
    uint64_t sysCalls = 0;

    /** Firewalls inserted (conservative syscalls + window displacements
     *  that actually raised the floor). */
    uint64_t firewalls = 0;

    /** Pre-existing values entered into the live well. */
    uint64_t preExistingValues = 0;

    /** Ops whose placement was deepened by a storage dependency. */
    uint64_t storageDelayedOps = 0;

    /** Ops whose placement was deepened by a functional-unit limit. */
    uint64_t fuDelayedOps = 0;

    /** Conditional branches seen, and how many the predictor missed. */
    uint64_t condBranches = 0;
    uint64_t branchMispredictions = 0;

    /**
     * Critical path length: the minimum number of abstract machine steps to
     * execute the trace = deepest used DDG level + 1.
     */
    uint64_t criticalPathLength = 0;

    /** placedOps / criticalPathLength — the available parallelism. */
    double availableParallelism = 0.0;

    /** Ops per DDG level (paper Figure 7). */
    BucketedProfile profile;

    /** Value lifetime in DDG levels (creation to deepest use). Without
     *  AnalysisConfig::distributions (a sweep cell), a count and a sum
     *  only: totalCount() and mean() answer, and no bins are allocated. */
    Histogram lifetimes{4096};

    /** Number of readers per created value (degree of sharing); a count
     *  and a sum only, like lifetimes, in a sweep cell. */
    Histogram sharing{256};

    /** Values live per DDG level (the storage / waiting-token profile);
     *  empty without AnalysisConfig::distributions. */
    IntervalProfile storageProfile;

    /** Peak live-well population (temporary-storage requirement). */
    uint64_t liveWellPeak = 0;

    /** Live values remaining at end of trace. */
    uint64_t liveWellFinal = 0;

    /** Peak bytes used by the live-well hash table. */
    uint64_t liveWellPeakBytes = 0;

    /** Wall-clock seconds spent analyzing. */
    double analysisSeconds = 0.0;
};

} // namespace core
} // namespace paragraph

#endif // PARAGRAPH_CORE_RESULT_HPP
