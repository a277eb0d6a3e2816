#include "support/interval_profile.hpp"

#include <limits>

#include "support/panic.hpp"

namespace paragraph {

IntervalProfile::IntervalProfile(size_t num_bins) : numBins_(num_bins)
{
    PARA_ASSERT(num_bins >= 2 && (num_bins & (num_bins - 1)) == 0,
                "num_bins must be a power of two >= 2");
}

void
IntervalProfile::foldToCover(uint64_t level)
{
    while ((level >> bucketShift_) >= bins_.size())
        fold();
}

void
IntervalProfile::fold()
{
    if (bins_.empty()) {
        bins_.assign(numBins_, Bin{});
    } else {
        size_t n = bins_.size();
        for (size_t i = 0; i < n / 2; ++i) {
            bins_[i].starts = bins_[2 * i].starts + bins_[2 * i + 1].starts;
            bins_[i].ends = bins_[2 * i].ends + bins_[2 * i + 1].ends;
            bins_[i].edgeMass =
                bins_[2 * i].edgeMass + bins_[2 * i + 1].edgeMass;
        }
        for (size_t i = n / 2; i < n; ++i)
            bins_[i] = Bin{};
        ++bucketShift_;
    }
    const uint64_t most = std::numeric_limits<uint64_t>::max();
    foldLimit_ = bins_.size() > (most >> bucketShift_)
                     ? most
                     : uint64_t{bins_.size()} << bucketShift_;
}

std::vector<IntervalProfile::Point>
IntervalProfile::series() const
{
    std::vector<Point> out;
    if (!any_)
        return out;
    size_t last_bin = static_cast<size_t>(maxLevel_ >> bucketShift_);
    out.reserve(last_bin + 1);
    // full_cover(b): intervals that started before b and end after it;
    // intervals whose start or end falls inside b contribute their exact
    // in-bucket overlap via the edge mass. (Exact, except that the overlap of
    // edges recorded before a fold keeps the pre-fold bucket boundaries.)
    double started_before = 0.0;
    double ended_through = 0.0;
    double width = static_cast<double>(bucketWidth());
    for (size_t b = 0; b <= last_bin; ++b) {
        double full_cover =
            started_before - (ended_through + static_cast<double>(bins_[b].ends));
        if (full_cover < 0)
            full_cover = 0;
        double avg = full_cover +
                     static_cast<double>(bins_[b].edgeMass) / width;
        uint64_t first = static_cast<uint64_t>(b) << bucketShift_;
        uint64_t last = first + bucketWidth() - 1;
        if (last > maxLevel_)
            last = maxLevel_;
        out.push_back(Point{first, last, avg});
        started_before += static_cast<double>(bins_[b].starts);
        ended_through += static_cast<double>(bins_[b].ends);
    }
    return out;
}

double
IntervalProfile::peakLive() const
{
    double peak = 0.0;
    double entering = 0.0;
    if (!any_)
        return 0.0;
    size_t last_bin = static_cast<size_t>(maxLevel_ >> bucketShift_);
    for (size_t b = 0; b <= last_bin; ++b) {
        // Upper bound within the bucket: everything entering plus all new
        // starts, before any ends are applied.
        double high = entering + static_cast<double>(bins_[b].starts);
        if (high > peak)
            peak = high;
        entering += static_cast<double>(bins_[b].starts) -
                    static_cast<double>(bins_[b].ends);
    }
    return peak;
}

double
IntervalProfile::meanLive() const
{
    if (!any_)
        return 0.0;
    return static_cast<double>(totalLiveLevels_) /
           static_cast<double>(maxLevel_ + 1);
}

void
IntervalProfile::mergeShifted(const IntervalProfile &other, uint64_t offset)
{
    if (!other.any_)
        return;
    uint64_t deepest = other.maxLevel_ + offset;
    foldToCover(deepest);
    size_t last_bin = static_cast<size_t>(other.maxLevel_ >>
                                          other.bucketShift_);
    for (size_t b = 0; b <= last_bin; ++b) {
        const Bin &src = other.bins_[b];
        if (src.starts == 0 && src.ends == 0 && src.edgeMass == 0)
            continue;
        uint64_t lo =
            (static_cast<uint64_t>(b) << other.bucketShift_) + offset;
        uint64_t hi = lo + other.bucketWidth() - 1;
        if (hi > deepest)
            hi = deepest;
        // Starts at the source bucket's first level, ends at its last:
        // every interval keeps start bucket <= end bucket, so the series
        // prefix sums stay consistent.
        bins_[lo >> bucketShift_].starts += src.starts;
        bins_[hi >> bucketShift_].ends += src.ends;
        bins_[lo >> bucketShift_].edgeMass += src.edgeMass;
    }
    intervals_ += other.intervals_;
    totalLiveLevels_ += other.totalLiveLevels_;
    if (deepest > maxLevel_)
        maxLevel_ = deepest;
    any_ = true;
}

} // namespace paragraph
