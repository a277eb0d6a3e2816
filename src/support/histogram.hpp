/**
 * @file
 * Distribution-collection helpers.
 *
 * Histogram      — exact counts for small non-negative integer samples with a
 *                  configurable overflow bucket (value-lifetime and
 *                  degree-of-sharing distributions, paper Section 2.3).
 * Log2Histogram  — power-of-two bucketed counts for wide-range samples.
 * RunningStats   — streaming mean / variance / min / max (Welford).
 */

#ifndef PARAGRAPH_SUPPORT_HISTOGRAM_HPP
#define PARAGRAPH_SUPPORT_HISTOGRAM_HPP

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace paragraph {

/**
 * Exact histogram over [0, maxValue], with an overflow bucket. The exact
 * bins are allocated by the first sample that lands in them, so a
 * histogram that is built but never filled (a store-served cell's result)
 * costs no bin memory.
 */
class Histogram
{
  public:
    /** @param max_value largest sample tracked exactly. */
    explicit Histogram(uint64_t max_value = 1024) : range_(max_value + 1) {}

    /** Record one sample. */
    void
    add(uint64_t sample)
    {
        if (sample < counts_.size())
            ++counts_[sample];
        else if (sample < range_)
            countFirst(sample);
        else
            ++overflow_;
        ++total_;
        sum_ += sample;
        if (sample > maxSample_)
            maxSample_ = sample;
    }

    /** Record one sample in the total and the sum only, as a sweep cell
     *  does: totalCount() and mean() answer as after add(); no bins are
     *  allocated, and overflowCount() and maxSample() stay 0. */
    void
    tally(uint64_t sample)
    {
        ++total_;
        sum_ += sample;
    }

    /** Count recorded for exact value @p v (0 when out of range). */
    uint64_t
    count(uint64_t v) const
    {
        return v < counts_.size() ? counts_[v] : 0;
    }

    /** Samples larger than the exact range. */
    uint64_t overflowCount() const { return overflow_; }

    /** Total samples recorded. */
    uint64_t totalCount() const { return total_; }

    /** Mean of all samples (0 when empty). */
    double
    mean() const
    {
        return total_ ? static_cast<double>(sum_) / total_ : 0.0;
    }

    /** Largest sample seen. */
    uint64_t maxSample() const { return maxSample_; }

    /**
     * Smallest value v such that at least @p fraction of samples are <= v.
     * Overflowed samples count as maxSample(). @p fraction in (0, 1].
     */
    uint64_t percentile(double fraction) const;

    /** Number of exact buckets. */
    size_t exactRange() const { return range_; }

    /** Exact buckets allocated: 0 until a sample lands in the exact range,
     *  exactRange() after. */
    size_t capacity() const { return counts_.size(); }

    /**
     * Fold @p other into this histogram, bin by bin. Exact when the exact
     * ranges match (the only way it is used); samples beyond this
     * histogram's range land in the overflow bucket.
     */
    void merge(const Histogram &other);

  private:
    std::vector<uint64_t> counts_; ///< empty until the first exact sample
    uint64_t range_;               ///< exact buckets configured
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
    uint64_t sum_ = 0;
    uint64_t maxSample_ = 0;

    /** Allocate the exact bins and count @p sample, the first in range. */
    void countFirst(uint64_t sample);
};

/** Histogram with power-of-two buckets: [0], [1], [2,3], [4,7], ... */
class Log2Histogram
{
  public:
    static constexpr size_t numBuckets = 65;

    /** Record one sample. */
    void
    add(uint64_t sample)
    {
        ++counts_[bucketFor(sample)];
        ++total_;
        sum_ += sample;
    }

    /** Bucket index for a sample (0 -> 0, otherwise 1 + floor(log2 s)). */
    static size_t
    bucketFor(uint64_t sample)
    {
        if (sample == 0)
            return 0;
        return 1 + static_cast<size_t>(63 - __builtin_clzll(sample));
    }

    /** Lower bound of bucket @p b. */
    static uint64_t
    bucketLow(size_t b)
    {
        return b == 0 ? 0 : (1ULL << (b - 1));
    }

    /** Count in bucket @p b. */
    uint64_t count(size_t b) const { return counts_[b]; }

    /** Total samples recorded. */
    uint64_t totalCount() const { return total_; }

    /** Mean of all samples. */
    double
    mean() const
    {
        return total_ ? static_cast<double>(sum_) / total_ : 0.0;
    }

    /** Index of the highest non-empty bucket (+1), 0 when empty. */
    size_t highestUsedBucket() const;

  private:
    uint64_t counts_[numBuckets] = {};
    uint64_t total_ = 0;
    uint64_t sum_ = 0;
};

/** Streaming mean/variance/min/max accumulator (Welford's algorithm). */
class RunningStats
{
  public:
    /** Record one sample. */
    void
    add(double x)
    {
        ++n_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        if (x < min_)
            min_ = x;
        if (x > max_)
            max_ = x;
    }

    uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Population variance. */
    double
    variance() const
    {
        return n_ ? m2_ / static_cast<double>(n_) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace paragraph

#endif // PARAGRAPH_SUPPORT_HISTOGRAM_HPP
