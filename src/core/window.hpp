/**
 * @file
 * SlidingWindow: the instruction window of paper Section 3.2 / Figure 6.
 *
 * "The instruction window passes along the entire trace allowing at most W
 * instructions to be viewed at any one time. ... As the instruction window
 * moves along the trace, instructions displaced from the window can no
 * longer affect the placement of other instructions. This is implemented by
 * including a firewall with the operations displaced from the instruction
 * window."
 *
 * A ring buffer holds the DDG level of the last W trace instructions
 * (a sentinel for instructions that were not placed, e.g. branches). When a
 * new instruction enters a full window, the displaced instruction's level is
 * returned so the analyzer can raise its firewall floor above it — which
 * guarantees no DDG level ever holds more than W operations.
 *
 * Both calls run once per record in a windowed analysis, so neither
 * divides nor counts: the head advances by compare-and-reset, and the ring
 * starts filled with the notPlaced sentinel, so the slot under the head of
 * a window that is not yet full already reads "nothing displaced".
 */

#ifndef PARAGRAPH_CORE_WINDOW_HPP
#define PARAGRAPH_CORE_WINDOW_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/panic.hpp"

namespace paragraph {
namespace core {

class SlidingWindow
{
  public:
    /** Level marker for trace records that were not placed in the DDG. */
    static constexpr int64_t notPlaced = std::numeric_limits<int64_t>::min();

    /** @param size window capacity W (>= 1). */
    explicit SlidingWindow(uint64_t size) : ring_(size, notPlaced)
    {
        PARA_ASSERT(size >= 1, "window size must be >= 1");
    }

    /**
     * Report that the next trace instruction is entering the window, before
     * it is placed.
     * @return the level of the displaced instruction, or notPlaced when the
     *         window is not yet full or the displaced record had no level.
     */
    int64_t willEnter() const { return ring_[head_]; }

    /**
     * Record the level of the instruction that just entered (the analyzer
     * calls this after placement; @p level is notPlaced for control
     * instructions and skipped syscalls).
     */
    void
    entered(int64_t level)
    {
        ring_[head_] = level;
        if (++head_ == ring_.size()) {
            head_ = 0;
            full_ = true;
        }
    }

    /** Window capacity W. */
    uint64_t capacity() const { return ring_.size(); }

    /** Reset for a fresh analysis. */
    void
    reset()
    {
        std::fill(ring_.begin(), ring_.end(), notPlaced);
        head_ = 0;
        full_ = false;
    }

    /**
     * The levels of the last min(W, records seen) entries, oldest first —
     * the window state a split-and-patch boundary must carry.
     */
    std::vector<int64_t>
    snapshot() const
    {
        // Once full, the head is the oldest entry; before that, slot 0 is.
        std::vector<int64_t> out;
        if (full_) {
            out.assign(ring_.begin() + static_cast<ptrdiff_t>(head_),
                       ring_.end());
        }
        out.insert(out.end(), ring_.begin(),
                   ring_.begin() + static_cast<ptrdiff_t>(head_));
        return out;
    }

    /**
     * Restore the state captured by snapshot(): the window behaves as if
     * exactly @p levels.size() records (at those levels, oldest first) had
     * entered since reset. @p levels must hold at most W entries.
     */
    void
    seed(const std::vector<int64_t> &levels)
    {
        PARA_ASSERT(levels.size() <= ring_.size(),
                    "window seed larger than capacity");
        reset();
        for (int64_t lvl : levels)
            entered(lvl);
    }

  private:
    std::vector<int64_t> ring_;
    size_t head_ = 0;   ///< slot the next entering record takes
    bool full_ = false; ///< the head has wrapped at least once
};

} // namespace core
} // namespace paragraph

#endif // PARAGRAPH_CORE_WINDOW_HPP
