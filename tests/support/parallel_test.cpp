// runSegmentsParallel: the fork-join helper behind the chunked payload CRC.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/failpoint.hpp"
#include "support/parallel.hpp"

using namespace paragraph;

TEST(RunSegmentsParallel, RunsEachJobOnceOnItsOwnThread)
{
    std::vector<std::thread::id> ran(4);
    std::atomic<int> calls{0};
    runSegmentsParallel(ran.size(), [&](size_t s) {
        ran[s] = std::this_thread::get_id();
        ++calls;
    });
    EXPECT_EQ(calls, 4);
    EXPECT_EQ(ran[0], std::this_thread::get_id());
    for (size_t a = 0; a < ran.size(); ++a) {
        for (size_t b = a + 1; b < ran.size(); ++b)
            EXPECT_NE(ran[a], ran[b]) << "jobs " << a << " and " << b;
    }
}

TEST(RunSegmentsParallel, RethrowsTheFirstErrorAfterEveryJobRan)
{
    std::atomic<int> calls{0};
    try {
        runSegmentsParallel(4, [&](size_t s) {
            ++calls;
            if (s % 2 == 1)
                throw std::runtime_error("job " + std::to_string(s));
        });
        FAIL() << "no error was rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 1");
    }
    EXPECT_EQ(calls, 4);
}

TEST(RunSegmentsParallel, CallingThreadRunsJobsWhoseThreadCannotStart)
{
    failpoint::reset();
    std::string error;
    ASSERT_TRUE(failpoint::configure("support.thread.start=after:1", error))
        << error;
    std::vector<std::thread::id> ran(4);
    runSegmentsParallel(
        ran.size(), [&](size_t s) { ran[s] = std::this_thread::get_id(); });
    failpoint::reset();
    const std::thread::id caller = std::this_thread::get_id();
    EXPECT_NE(ran[1], caller); // the one thread that started
    EXPECT_EQ(ran[0], caller);
    EXPECT_EQ(ran[2], caller);
    EXPECT_EQ(ran[3], caller);
}
