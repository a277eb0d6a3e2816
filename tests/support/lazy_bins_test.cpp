// Tests for the lazily allocated bins of Histogram, BucketedProfile and
// IntervalProfile: a distribution that is built but never filled (the
// result of a store-served cell) holds no bin memory, and every reader
// treats the bins it has not allocated as zeros.
#include <gtest/gtest.h>

#include <vector>

#include "core/result.hpp"
#include "support/bucketed_profile.hpp"
#include "support/histogram.hpp"
#include "support/interval_profile.hpp"

using paragraph::BucketedProfile;
using paragraph::Histogram;
using paragraph::IntervalProfile;

TEST(LazyBins, HistogramAllocatesOnItsFirstExactSample)
{
    Histogram h(16);
    EXPECT_EQ(h.capacity(), 0u);
    EXPECT_EQ(h.exactRange(), 17u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.count(3), 0u);

    // An overflow sample needs no exact bins.
    h.add(40);
    EXPECT_EQ(h.capacity(), 0u);
    EXPECT_EQ(h.overflowCount(), 1u);
    EXPECT_EQ(h.percentile(0.5), 40u) << "overflow counts as maxSample()";

    h.add(3);
    EXPECT_EQ(h.capacity(), 17u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_EQ(h.percentile(0.5), 3u);
    EXPECT_EQ(h.percentile(1.0), 40u);
}

TEST(LazyBins, HistogramMergesIntoAndFromAnEmptyOne)
{
    Histogram filled(8);
    for (uint64_t v : {0u, 2u, 2u, 5u, 8u, 9u, 30u})
        filled.add(v);

    Histogram into(8);
    into.merge(Histogram(8)); // nothing to merge: stays unallocated
    EXPECT_EQ(into.capacity(), 0u);
    into.merge(filled);
    EXPECT_EQ(into.capacity(), into.exactRange());
    for (uint64_t v = 0; v < into.exactRange(); ++v)
        EXPECT_EQ(into.count(v), filled.count(v)) << "bin " << v;
    EXPECT_EQ(into.overflowCount(), filled.overflowCount());
    EXPECT_EQ(into.totalCount(), filled.totalCount());
    EXPECT_EQ(into.maxSample(), filled.maxSample());
    EXPECT_EQ(into.percentile(0.5), filled.percentile(0.5));

    // Only overflow samples: merged without exact bins on either side.
    Histogram wide(8);
    wide.add(100);
    Histogram empty(8);
    empty.merge(wide);
    EXPECT_EQ(empty.capacity(), 0u);
    EXPECT_EQ(empty.overflowCount(), 1u);
    EXPECT_EQ(empty.maxSample(), 100u);
}

TEST(LazyBins, BucketedProfileAllocatesOnItsFirstSample)
{
    BucketedProfile p(16);
    EXPECT_EQ(p.capacity(), 0u);
    EXPECT_EQ(p.numBins(), 16u);
    EXPECT_EQ(p.bucketWidth(), 1u);
    EXPECT_EQ(p.binCount(7), 0u);
    EXPECT_TRUE(p.series().empty());
    EXPECT_DOUBLE_EQ(p.peakOpsPerLevel(), 0.0);

    // A first sample past the range allocates, then folds as before.
    p.add(40);
    EXPECT_EQ(p.capacity(), 16u);
    EXPECT_EQ(p.bucketWidth(), 4u);
    EXPECT_EQ(p.binCount(10), 1u);
}

TEST(LazyBins, BucketedProfileMergesIntoAnEmptyOne)
{
    BucketedProfile filled(16);
    for (uint64_t level : {0u, 1u, 1u, 5u, 9u, 33u})
        filled.add(level);

    BucketedProfile merged(16);
    merged.merge(BucketedProfile(16));
    EXPECT_EQ(merged.capacity(), 0u);
    merged.merge(filled);
    EXPECT_EQ(merged.totalOps(), filled.totalOps());

    BucketedProfile shifted(16);
    shifted.mergeShifted(BucketedProfile(16), 7);
    EXPECT_EQ(shifted.capacity(), 0u);
    shifted.mergeShifted(filled, 0);
    EXPECT_EQ(shifted.totalOps(), filled.totalOps());
    EXPECT_EQ(shifted.maxLevel(), filled.maxLevel());
    std::vector<BucketedProfile::Point> want = filled.series();
    std::vector<BucketedProfile::Point> got = shifted.series();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].firstLevel, want[i].firstLevel);
        EXPECT_EQ(got[i].lastLevel, want[i].lastLevel);
        EXPECT_DOUBLE_EQ(got[i].opsPerLevel, want[i].opsPerLevel);
    }
}

TEST(LazyBins, IntervalProfileAllocatesOnItsFirstInterval)
{
    IntervalProfile p(8);
    EXPECT_EQ(p.capacity(), 0u);
    EXPECT_EQ(p.bucketWidth(), 1u);
    EXPECT_TRUE(p.series().empty());
    EXPECT_DOUBLE_EQ(p.peakLive(), 0.0);
    EXPECT_DOUBLE_EQ(p.meanLive(), 0.0);

    IntervalProfile shifted(8);
    shifted.mergeShifted(IntervalProfile(8), 5);
    EXPECT_EQ(shifted.capacity(), 0u);
    EXPECT_TRUE(shifted.empty());

    p.add(2, 30);
    EXPECT_EQ(p.capacity(), 8u);
    EXPECT_EQ(p.bucketWidth(), 4u);

    shifted.mergeShifted(p, 0);
    EXPECT_EQ(shifted.intervals(), p.intervals());
    EXPECT_EQ(shifted.totalLiveLevels(), p.totalLiveLevels());
    EXPECT_EQ(shifted.maxLevel(), p.maxLevel());
    EXPECT_DOUBLE_EQ(shifted.peakLive(), p.peakLive());
    EXPECT_EQ(shifted.series().size(), p.series().size());
}

TEST(LazyBins, ADefaultAnalysisResultHoldsNoBins)
{
    paragraph::core::AnalysisResult r;
    EXPECT_EQ(r.profile.capacity(), 0u);
    EXPECT_EQ(r.lifetimes.capacity(), 0u);
    EXPECT_EQ(r.sharing.capacity(), 0u);
    EXPECT_EQ(r.storageProfile.capacity(), 0u);
    EXPECT_EQ(r.lifetimes.exactRange(), 4097u);
    EXPECT_EQ(r.sharing.exactRange(), 257u);

    std::vector<paragraph::core::AnalysisResult> cells(32);
    for (const paragraph::core::AnalysisResult &cell : cells)
        EXPECT_EQ(cell.profile.capacity(), 0u);
}
