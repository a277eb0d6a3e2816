/**
 * @file
 * IntervalProfile: concurrently-live intervals per level (the waiting-token
 * / storage-requirement profile of paper Section 2.3).
 *
 * "We can also obtain the distribution of value lifetimes from the DDG. The
 * value lifetimes are useful in determining the amount of temporary storage
 * required to exploit the parallelism in the DDG." Culler and Arvind's
 * dataflow studies plot exactly this: how many tokens are waiting at each
 * step of the abstract machine.
 *
 * Every value contributes the interval [creation level, last-access level].
 * Like BucketedProfile, the structure keeps a fixed number of bins and
 * doubles the bin width when a level exceeds the representable range, so
 * memory stays constant over arbitrarily deep DDGs; the bins are allocated
 * by the first interval (in fold()), so a profile that is built but never
 * filled costs no bin memory. Per-bucket live counts are exact at bucket
 * boundaries and interpolated within buckets.
 */

#ifndef PARAGRAPH_SUPPORT_INTERVAL_PROFILE_HPP
#define PARAGRAPH_SUPPORT_INTERVAL_PROFILE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace paragraph {

class IntervalProfile
{
  public:
    struct Point
    {
        uint64_t firstLevel;
        uint64_t lastLevel;
        double liveValues; ///< average values live across this level range
    };

    /** @param num_bins number of distribution entries (power of two). */
    explicit IntervalProfile(size_t num_bins = 4096);

    /**
     * Record a value live from @p start_level to @p end_level inclusive.
     * Inline: this runs once per retired value on the analyzer hot path,
     * and the power-of-two bucket width reduces bin indexing to shifts. An
     * end below the cached fold limit needs no fold, so the common case is
     * one compare.
     */
    void
    add(uint64_t start_level, uint64_t end_level)
    {
        if (end_level < start_level)
            end_level = start_level;
        if (end_level >= foldLimit_) [[unlikely]]
            foldToCover(end_level);
        size_t sb = static_cast<size_t>(start_level >> bucketShift_);
        size_t eb = static_cast<size_t>(end_level >> bucketShift_);
        // Record the edge buckets' exact overlap; buckets strictly between
        // the edges are fully covered and handled by the start/end prefix
        // counts. Most lifetimes are short, so sb and eb usually name the
        // same bucket — and a bucket's three counters share a cache line.
        Bin &start_bin = bins_[sb];
        ++start_bin.starts;
        if (eb == sb) {
            ++start_bin.ends;
            start_bin.edgeMass += end_level - start_level + 1;
        } else {
            uint64_t sb_end =
                ((static_cast<uint64_t>(sb) + 1) << bucketShift_) - 1;
            start_bin.edgeMass += sb_end - start_level + 1;
            Bin &end_bin = bins_[eb];
            ++end_bin.ends;
            end_bin.edgeMass +=
                end_level - (static_cast<uint64_t>(eb) << bucketShift_) + 1;
        }
        totalLiveLevels_ += end_level - start_level + 1;
        ++intervals_;
        if (end_level > maxLevel_) // maxLevel_ starts at 0, the minimum
            maxLevel_ = end_level;
        any_ = true;
    }

    /** Number of intervals recorded. */
    uint64_t intervals() const { return intervals_; }

    /** Deepest level any interval touches. */
    uint64_t maxLevel() const { return maxLevel_; }

    /** Current levels-per-bin. */
    uint64_t bucketWidth() const { return 1ULL << bucketShift_; }

    bool empty() const { return intervals_ == 0; }

    /** Bins allocated: 0 until the first interval, then as configured. */
    size_t capacity() const { return bins_.size(); }

    /** Live-count series over [0, maxLevel()]. */
    std::vector<Point> series() const;

    /**
     * Largest boundary-exact live count: the storage high-water mark of an
     * abstract machine executing the DDG (within one bucket's resolution).
     */
    double peakLive() const;

    /** Mean live count over the whole level range. */
    double meanLive() const;

    /** Exact sum of interval lengths (levels-lived across all values). */
    uint64_t totalLiveLevels() const { return totalLiveLevels_; }

    /**
     * Fold @p other into this profile with every level shifted up by
     * @p offset (the shard stitch). intervals(), totalLiveLevels() and
     * maxLevel() are combined exactly; per-bucket starts/ends/edge mass
     * are re-attributed at the source's bucket resolution (starts at the
     * bucket's first shifted level, ends at its last), so the rendered
     * series is approximate within one source bucket.
     */
    void mergeShifted(const IntervalProfile &other, uint64_t offset);

  private:
    /** Per-bucket counters, kept together for cache locality on add(). */
    struct Bin
    {
        uint64_t starts = 0;   ///< intervals beginning in this bucket
        uint64_t ends = 0;     ///< intervals ending in this bucket
        uint64_t edgeMass = 0; ///< in-bucket levels of edge overlaps
    };

    std::vector<Bin> bins_;          ///< empty until the first interval
    size_t numBins_;                 ///< bins configured
    uint64_t totalLiveLevels_ = 0;   ///< exact sum of interval lengths
    uint32_t bucketShift_ = 0;       ///< log2 of the bucket width
    /** First level the bins cannot hold (bins_.size() << bucketShift_,
     *  saturating at UINT64_MAX); 0 until the bins are allocated. */
    uint64_t foldLimit_ = 0;
    uint64_t intervals_ = 0;
    uint64_t maxLevel_ = 0;
    bool any_ = false;

    /** Fold (allocating the bins first) until @p level is representable:
     *  the path a level at or past the fold limit takes. */
    void foldToCover(uint64_t level);

    /** Allocate the bins if there are none yet, else double the bucket
     *  width. */
    void fold();
};

} // namespace paragraph

#endif // PARAGRAPH_SUPPORT_INTERVAL_PROFILE_HPP
