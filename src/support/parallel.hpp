/**
 * @file
 * Fork-join over a handful of jobs: one thread per job, joined before
 * return. Runs the chunks of a parallel payload CRC (crc32Parallel).
 */

#ifndef PARAGRAPH_SUPPORT_PARALLEL_HPP
#define PARAGRAPH_SUPPORT_PARALLEL_HPP

#include <cstddef>
#include <functional>

namespace paragraph {

/**
 * Run jobs 0 .. @p nJobs - 1 at once, one per thread; the calling thread
 * takes job 0, and also every job whose thread cannot start (failpoint
 * `support.thread.start`). Returns after every thread has joined,
 * rethrowing the first job's error in index order.
 */
void runSegmentsParallel(size_t nJobs,
                         const std::function<void(size_t)> &job);

} // namespace paragraph

#endif // PARAGRAPH_SUPPORT_PARALLEL_HPP
