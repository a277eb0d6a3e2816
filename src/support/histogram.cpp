#include "support/histogram.hpp"

namespace paragraph {

uint64_t
Histogram::percentile(double fraction) const
{
    if (total_ == 0)
        return 0;
    if (fraction > 1.0)
        fraction = 1.0;
    uint64_t target =
        static_cast<uint64_t>(std::ceil(fraction * static_cast<double>(total_)));
    if (target == 0)
        target = 1;
    uint64_t running = 0;
    for (size_t v = 0; v < counts_.size(); ++v) {
        running += counts_[v];
        if (running >= target)
            return v;
    }
    return maxSample_;
}

void
Histogram::countFirst(uint64_t sample)
{
    counts_.assign(range_, 0);
    ++counts_[sample];
}

void
Histogram::merge(const Histogram &other)
{
    if (counts_.empty() && !other.counts_.empty())
        counts_.assign(range_, 0);
    for (size_t v = 0; v < other.counts_.size(); ++v) {
        uint64_t c = other.counts_[v];
        if (c == 0)
            continue;
        if (v < counts_.size())
            counts_[v] += c;
        else
            overflow_ += c;
    }
    overflow_ += other.overflow_;
    total_ += other.total_;
    sum_ += other.sum_;
    if (other.maxSample_ > maxSample_)
        maxSample_ = other.maxSample_;
}

size_t
Log2Histogram::highestUsedBucket() const
{
    for (size_t b = numBuckets; b > 0; --b) {
        if (counts_[b - 1] != 0)
            return b;
    }
    return 0;
}

} // namespace paragraph
