// perfbench-calib — a fixed synthetic job that measures the host's speed.
//
// The benchmark runs it between ops and scales its timings by how long it
// takes, so that a slower or faster shared host moves the reference and the
// op alike and leaves the reported figure where it was. It shares no code
// with paragraph, so a change to paragraph never changes its run time.
//
// Its shape follows one benchmark op: a fresh process fills a buffer of
// trace records on one thread (like simulate + capture), walks it twice on
// that thread and then once on each of THREADS workers through a table of
// last-writer levels (like the dependence analysis), and renders part of
// the result as text on one thread (like the JSON document). The address
// stream has a program's locality: mostly a sequential array sweep and a
// small stack, with a tenth of accesses scattered over 32 MB. On a shared
// 4-vCPU Xeon VM such a job drifted with the benchmark's ops, while a pure
// compute loop drifted a third as much and tracked them worse.
//
// Usage: perfbench-calib [RECORDS [THREADS]]   (default 1000000 4)
// Prints a checksum of the work, the same on every run with the same
// arguments.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace {

struct Record
{
    std::uint64_t pc;
    std::uint64_t addr;
    std::uint32_t src;
    std::uint32_t dst;
};

std::vector<Record>
makeTrace(std::size_t n)
{
    std::vector<Record> trace(n);
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t pc = 0x400000;
    std::uint64_t sweep = 0;
    for (auto& r : trace) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        pc = (x & 7) == 0 ? 0x400000 + (x >> 40) % 4096 * 4 : pc + 4;
        const std::uint64_t kind = x % 10;
        const std::uint64_t addr =
            kind < 6   ? 0x20000000 + (sweep++ % 131072) * 8
            : kind < 9 ? 0x7fff0000 + (x >> 24) % 512 * 8
                       : 0x10000000 + (x >> 20) % (1u << 22) * 8;
        r = {pc, addr, static_cast<std::uint32_t>(x % 32),
             static_cast<std::uint32_t>((x >> 8) % 32)};
    }
    return trace;
}

/** Critical-path depth of @p trace under a window of @p window records,
 *  with the last writers kept in a bounded-probe table that forgets. */
std::uint64_t
walk(const std::vector<Record>& trace, std::uint64_t window)
{
    const std::size_t mask = (std::size_t{1} << 16) - 1;
    std::vector<std::uint64_t> keys(mask + 1, 0);
    std::vector<std::uint32_t> levels(mask + 1, 0);
    std::uint64_t reg[32] = {};
    std::uint64_t depth = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Record& r = trace[i];
        std::size_t h = (r.addr * 0x9E3779B97F4A7C15ull) >> 48 & mask;
        for (int probe = 0;
             probe < 8 && keys[h] != 0 && keys[h] != r.addr; ++probe)
            h = (h + 1) & mask;
        std::uint64_t level =
            std::max<std::uint64_t>(reg[r.src],
                                    keys[h] == r.addr ? levels[h] : 0) + 1;
        if (i >= window)
            level = std::max(level, depth * (i - window) / (i + 1));
        keys[h] = r.addr;
        levels[h] = static_cast<std::uint32_t>(level);
        reg[r.dst] = level;
        depth = std::max(depth, level);
    }
    return depth;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                   : 1000000;
    const int threads = argc > 2 ? std::atoi(argv[2]) : 4;
    if (n == 0 || threads < 1) {
        std::fprintf(stderr, "usage: perfbench-calib [RECORDS>=1 "
                             "[THREADS>=1]]\n");
        return 2;
    }
    const std::vector<Record> trace = makeTrace(n);

    // Two walks on this thread, then THREADS at once: about as much time
    // runs serially as in parallel, as in an op.
    std::vector<std::uint64_t> depths(threads);
    depths[0] = walk(trace, 8) ^ walk(trace, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] { depths[t] += walk(trace, 16u << (t % 4)); });
    for (auto& worker : pool)
        worker.join();

    std::string text;
    char buf[96];
    for (std::size_t i = 0; i < n / 2; ++i) {
        const int k = std::snprintf(
            buf, sizeof buf, "{\"pc\":%llu,\"level\":%llu},",
            static_cast<unsigned long long>(trace[i].pc),
            static_cast<unsigned long long>(trace[i].addr % 977 +
                                            depths[i % threads]));
        text.append(buf, static_cast<std::size_t>(k));
    }
    std::uint64_t sum = text.size();
    for (const std::uint64_t d : depths)
        sum = sum * 31 + d;
    std::printf("%llu\n", static_cast<unsigned long long>(sum));
    return 0;
}
