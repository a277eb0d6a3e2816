/**
 * @file
 * BucketedProfile: the parallelism-profile distribution of paper Section 3.2.
 *
 * "The parallelism profile distribution is updated by incrementing a
 * distribution entry indexed by Ldest. When the range of Ldest becomes too
 * large to represent each possible value in a distribution, a range of Ldest
 * values is mapped to each distribution entry, and in the final output, the
 * average number of operations per level within the range is computed."
 *
 * The profile keeps a fixed number of bins; whenever a sample exceeds the
 * representable range the bin width doubles and adjacent bins are folded
 * together, so memory stays constant over arbitrarily deep DDGs. The bins
 * are allocated by the first sample (in fold(), the out-of-range path), so
 * a profile that is built but never filled costs no bin memory.
 */

#ifndef PARAGRAPH_SUPPORT_BUCKETED_PROFILE_HPP
#define PARAGRAPH_SUPPORT_BUCKETED_PROFILE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace paragraph {

class BucketedProfile
{
  public:
    /** One output point: ops-per-level averaged over [firstLevel, lastLevel]. */
    struct Point
    {
        uint64_t firstLevel;
        uint64_t lastLevel;
        double opsPerLevel;
    };

    /** @param num_bins number of distribution entries kept (power of two). */
    explicit BucketedProfile(size_t num_bins = 4096);

    /**
     * Record @p count operations placed at DDG level @p level. Inline: this
     * runs once per placed operation on the analyzer hot path, and the
     * power-of-two bucket width reduces the bin index to a shift. A level
     * below the cached fold limit needs no fold, so the common case is one
     * compare.
     */
    void
    add(uint64_t level, uint64_t count = 1)
    {
        if (level >= foldLimit_) [[unlikely]]
            foldToCover(level);
        bins_[level >> bucketShift_] += count;
        totalOps_ += count;
        if (level > maxLevel_) // maxLevel_ starts at 0, the smallest level
            maxLevel_ = level;
        any_ = true;
    }

    /** Total operations recorded. */
    uint64_t totalOps() const { return totalOps_; }

    /** Deepest level that received an operation (0 when empty). */
    uint64_t maxLevel() const { return maxLevel_; }

    /** Current number of levels folded into one bin. */
    uint64_t bucketWidth() const { return 1ULL << bucketShift_; }

    /** Number of bins configured. */
    size_t numBins() const { return numBins_; }

    /** Bins allocated: 0 until the first sample, numBins() after. */
    size_t capacity() const { return bins_.size(); }

    /** Raw count in bin @p idx (< numBins()). */
    uint64_t
    binCount(size_t idx) const
    {
        return idx < bins_.size() ? bins_[idx] : 0;
    }

    /** True when no samples have been recorded. */
    bool empty() const { return totalOps_ == 0; }

    /**
     * Render the profile as (level range, average ops/level) points,
     * covering levels [0, maxLevel()]. Empty when no samples recorded.
     */
    std::vector<Point> series() const;

    /**
     * Peak of the series(): the largest average ops/level over any bin.
     * This is the "burst height" visible in the paper's Figure 7 plots.
     */
    double peakOpsPerLevel() const;

    /** Merge another profile into this one (levels are aligned at 0). */
    void merge(const BucketedProfile &other);

    /**
     * Fold @p other into this profile with every level shifted up by
     * @p offset (the shard stitch: segment-relative levels re-based to
     * absolute). totalOps() and maxLevel() are combined exactly; each
     * source bin's mass lands at its first shifted level, so the in-bin
     * distribution is approximate at the source's bucket resolution.
     */
    void mergeShifted(const BucketedProfile &other, uint64_t offset);

  private:
    std::vector<uint64_t> bins_; ///< empty until the first sample
    size_t numBins_;             ///< bins configured
    uint32_t bucketShift_ = 0;   ///< log2 of the bucket width
    /** First level the bins cannot hold (bins_.size() << bucketShift_,
     *  saturating at UINT64_MAX); 0 until the bins are allocated. */
    uint64_t foldLimit_ = 0;
    uint64_t totalOps_ = 0;
    uint64_t maxLevel_ = 0;
    bool any_ = false;

    /** Fold (allocating the bins first) until @p level is representable:
     *  the path a sample at or past the fold limit takes. */
    void foldToCover(uint64_t level);

    /** Allocate the bins if there are none yet, else double the bucket
     *  width. */
    void fold();
};

} // namespace paragraph

#endif // PARAGRAPH_SUPPORT_BUCKETED_PROFILE_HPP
