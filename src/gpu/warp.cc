#include "gpu/warp.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace sac {

WarpScheduler::WarpScheduler(int num_warps)
    : numWarps(num_warps),
      words_((static_cast<std::size_t>(std::max(num_warps, 1)) + 63) / 64),
      inReady(static_cast<std::size_t>(std::max(num_warps, 1)), 0),
      wheel_(wheelSlots * words_, 0)
{
    SAC_ASSERT(num_warps > 0, "cluster needs at least one warp");
}

void
WarpScheduler::setWheel(int warp, Cycle at)
{
    const auto slot = static_cast<std::size_t>(at % wheelSlots);
    const auto w = static_cast<std::size_t>(warp);
    wheel_[slot * words_ + w / 64] |= std::uint64_t{1} << (w % 64);
    occupied_ |= std::uint64_t{1} << slot;
}

void
WarpScheduler::wake(int warp, Cycle at)
{
    SAC_ASSERT(warp >= 0 && warp < numWarps, "bad warp id ", warp);
    SAC_ASSERT(at >= cursor_, "wake at ", at, " behind the calendar at ",
               cursor_);
    if (at - cursor_ < wheelSlots)
        setWheel(warp, at);
    else
        overflow_.emplace(at, warp);
    nextDue_ = std::min(nextDue_, at);
}

void
WarpScheduler::moveCursor(Cycle at)
{
    cursor_ = at;
    if (overflow_.empty())
        return;
    // An overflow wake behind the cursor would never migrate (the
    // unsigned distance below underflows) and never surface.
    SAC_ASSERT(overflow_.top().first >= at,
               "calendar cursor moved past the wake at ",
               overflow_.top().first);
    while (!overflow_.empty() && overflow_.top().first - at < wheelSlots) {
        setWheel(overflow_.top().second, overflow_.top().first);
        overflow_.pop();
    }
}

Cycle
WarpScheduler::earliest() const
{
    if (occupied_ != 0) {
        const auto lag = static_cast<int>(cursor_ % wheelSlots);
        const auto ahead = std::countr_zero(std::rotr(occupied_, lag));
        return cursor_ + static_cast<Cycle>(ahead);
    }
    return overflow_.empty() ? cycleNever : overflow_.top().first;
}

void
WarpScheduler::surfaceDue(Cycle now)
{
    // Due slots in time order, starting at nextDue_ (the earliest
    // wake, due since advance() called us). The cursor only moves
    // here, so it may lag far behind now; it jumps to each due time
    // t, never straight to now. That pulls t into the wheel when t
    // came from the overflow heap; a jump to now would leave t behind
    // the cursor, where it never migrates.
    Cycle t = nextDue_;
    do {
        moveCursor(t);
        const auto slot = static_cast<std::size_t>(t % wheelSlots);
        occupied_ &= ~(std::uint64_t{1} << slot);
        std::uint64_t *bits = &wheel_[slot * words_];
        for (std::size_t w = 0; w < words_; ++w) {
            for (std::uint64_t m = bits[w]; m != 0; m &= m - 1) {
                const auto bit = std::countr_zero(m);
                const auto warp = w * 64 + static_cast<std::size_t>(bit);
                if (!inReady[warp]) {
                    inReady[warp] = 1;
                    ready.push_back(static_cast<int>(warp));
                }
            }
            bits[w] = 0;
        }
        t = earliest();
    } while (t <= now);
    // Everything left is due after now, so the cursor may follow it;
    // that moves no wake, so t stays the earliest.
    if (cursor_ != now)
        moveCursor(now);
    nextDue_ = t;
}

int
WarpScheduler::peek() const
{
    SAC_ASSERT(!ready.empty(), "peek on empty ready list");
    return ready.front();
}

void
WarpScheduler::consume(int warp)
{
    SAC_ASSERT(!ready.empty() && ready.front() == warp,
               "consume out of order");
    inReady[static_cast<std::size_t>(warp)] = 0;
    ready.pop_front();
}

void
WarpScheduler::defer(int warp)
{
    SAC_ASSERT(!ready.empty() && ready.front() == warp,
               "defer out of order");
    // Leave the warp at the front: GTO keeps trying the same warp.
}

void
WarpScheduler::reset(Cycle now)
{
    ready.clear();
    std::fill(inReady.begin(), inReady.end(), 0);
    std::fill(wheel_.begin(), wheel_.end(), 0);
    occupied_ = 0;
    overflow_ = {};
    cursor_ = now;
    nextDue_ = cycleNever;
}

} // namespace sac
