#include "support/bucketed_profile.hpp"

#include <limits>

#include "support/panic.hpp"

namespace paragraph {

BucketedProfile::BucketedProfile(size_t num_bins) : numBins_(num_bins)
{
    PARA_ASSERT(num_bins >= 2 && (num_bins & (num_bins - 1)) == 0,
                "num_bins must be a power of two >= 2");
}

void
BucketedProfile::foldToCover(uint64_t level)
{
    while ((level >> bucketShift_) >= bins_.size())
        fold();
}

void
BucketedProfile::fold()
{
    if (bins_.empty()) {
        bins_.assign(numBins_, 0);
    } else {
        size_t n = bins_.size();
        for (size_t i = 0; i < n / 2; ++i)
            bins_[i] = bins_[2 * i] + bins_[2 * i + 1];
        for (size_t i = n / 2; i < n; ++i)
            bins_[i] = 0;
        ++bucketShift_;
    }
    const uint64_t most = std::numeric_limits<uint64_t>::max();
    foldLimit_ = bins_.size() > (most >> bucketShift_)
                     ? most
                     : uint64_t{bins_.size()} << bucketShift_;
}

std::vector<BucketedProfile::Point>
BucketedProfile::series() const
{
    std::vector<Point> out;
    if (!any_)
        return out;
    size_t last_bin = static_cast<size_t>(maxLevel_ >> bucketShift_);
    out.reserve(last_bin + 1);
    for (size_t i = 0; i <= last_bin; ++i) {
        uint64_t first = static_cast<uint64_t>(i) << bucketShift_;
        uint64_t last = first + bucketWidth() - 1;
        if (last > maxLevel_)
            last = maxLevel_;
        uint64_t levels = last - first + 1;
        out.push_back(Point{first, last,
                            static_cast<double>(bins_[i]) /
                                static_cast<double>(levels)});
    }
    return out;
}

double
BucketedProfile::peakOpsPerLevel() const
{
    double peak = 0.0;
    for (const Point &p : series()) {
        if (p.opsPerLevel > peak)
            peak = p.opsPerLevel;
    }
    return peak;
}

void
BucketedProfile::merge(const BucketedProfile &other)
{
    for (const Point &p : other.series()) {
        // Re-add each level range's mass at its first level; precise enough
        // for aggregate statistics and keeps widths independent.
        uint64_t mass = static_cast<uint64_t>(
            p.opsPerLevel * static_cast<double>(p.lastLevel - p.firstLevel + 1)
            + 0.5);
        if (mass > 0)
            add(p.firstLevel, mass);
    }
}

void
BucketedProfile::mergeShifted(const BucketedProfile &other, uint64_t offset)
{
    if (!other.any_)
        return;
    size_t last_bin = static_cast<size_t>(other.maxLevel_ >>
                                          other.bucketShift_);
    for (size_t i = 0; i <= last_bin; ++i) {
        uint64_t c = other.bins_[i];
        if (c > 0)
            add((static_cast<uint64_t>(i) << other.bucketShift_) + offset, c);
    }
    // add() saw only bin-start levels; the true deepest level is exact.
    // Keep the bin array covering it so series() stays in range.
    uint64_t deepest = other.maxLevel_ + offset;
    foldToCover(deepest);
    if (deepest > maxLevel_)
        maxLevel_ = deepest;
}

} // namespace paragraph
