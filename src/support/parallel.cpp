#include "support/parallel.hpp"

#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "support/failpoint.hpp"

namespace paragraph {

void
runSegmentsParallel(size_t nJobs, const std::function<void(size_t)> &job)
{
    if (nJobs == 0)
        return;
    std::vector<std::exception_ptr> errors(nJobs);
    auto guarded = [&](size_t s) {
        try {
            job(s);
        } catch (...) {
            errors[s] = std::current_exception();
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(nJobs);
    size_t spawned = 1;
    try {
        for (; spawned < nJobs; ++spawned) {
            if (PARA_FAILPOINT("support.thread.start"))
                throw std::system_error(std::make_error_code(
                    std::errc::resource_unavailable_try_again));
            threads.emplace_back(guarded, spawned);
        }
    } catch (...) {
        // A thread could not start (no resources or memory): the calling
        // thread runs the rest after job 0, and every started one joins.
    }
    guarded(0);
    for (size_t s = spawned; s < nJobs; ++s)
        guarded(s);
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace paragraph
