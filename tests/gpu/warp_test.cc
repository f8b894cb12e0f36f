/** @file Unit tests for the warp scheduler. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "gpu/warp.hh"

namespace sac {
namespace {

/**
 * Reference model: the binary-heap scheduler the wake calendar
 * replaced. Pending wakes pop in (time, warp) order; a warp already
 * on the ready list is not pushed twice.
 */
class HeapScheduler
{
  public:
    explicit HeapScheduler(int num_warps)
        : inReady(static_cast<std::size_t>(num_warps), 0)
    {
    }

    void wake(int warp, Cycle at) { pending.emplace(at, warp); }

    void
    advance(Cycle now)
    {
        while (!pending.empty() && pending.top().first <= now) {
            const int warp = pending.top().second;
            pending.pop();
            if (!inReady[static_cast<std::size_t>(warp)]) {
                inReady[static_cast<std::size_t>(warp)] = 1;
                ready.push_back(warp);
            }
        }
    }

    bool hasReady() const { return !ready.empty(); }
    int peek() const { return ready.front(); }

    void
    consume(int warp)
    {
        inReady[static_cast<std::size_t>(warp)] = 0;
        ready.pop_front();
    }

    void
    reset()
    {
        ready.clear();
        std::fill(inReady.begin(), inReady.end(), 0);
        pending = {};
    }

    std::size_t readyCount() const { return ready.size(); }

    Cycle
    nextPendingCycle() const
    {
        return pending.empty() ? cycleNever : pending.top().first;
    }

  private:
    using Pending = std::pair<Cycle, int>;
    Ring<int> ready;
    std::priority_queue<Pending, std::vector<Pending>,
                        std::greater<Pending>> pending;
    std::vector<char> inReady;
};

/** The full ready list of @p s, front first (drains a copy). */
template <typename Sched>
std::vector<int>
readyOrder(Sched s)
{
    std::vector<int> order;
    while (s.hasReady()) {
        order.push_back(s.peek());
        s.consume(order.back());
    }
    return order;
}

/** A wake delay: mostly inside the 64-cycle wheel, some around its
 *  horizon, a few far beyond it (the sparse-issue gaps). */
Cycle
drawGap(Rng &rng)
{
    const std::uint64_t kind = rng.nextBounded(10);
    if (kind < 6)
        return rng.nextBounded(41);
    if (kind < 9)
        return 60 + rng.nextBounded(11);
    return rng.nextBool(0.5) ? 2000 : 24000;
}

/** How far one advance moves time: often not at all or one cycle,
 *  sometimes past several wake times at once. */
Cycle
drawSkip(Rng &rng)
{
    const std::uint64_t kind = rng.nextBounded(20);
    if (kind < 4)
        return 0;
    if (kind < 12)
        return 1;
    if (kind < 17)
        return 2 + rng.nextBounded(30);
    return 100 + rng.nextBounded(900);
}

/**
 * Drives the calendar and the heap reference with one random
 * sequence of wakes (duplicates included), advances, consumes and
 * resets, and requires the same ready order and next pending cycle
 * after every operation.
 */
void
expectMatchesHeap(int warps, std::uint64_t seed, int ops)
{
    WarpScheduler cal(warps);
    HeapScheduler ref(warps);
    Rng rng(seed, static_cast<std::uint64_t>(warps));
    const auto n = static_cast<std::uint64_t>(warps);
    Cycle now = 0;
    for (int i = 0; i < ops; ++i) {
        const std::uint64_t op = rng.nextBounded(100);
        const auto warp = static_cast<int>(rng.nextBounded(n));
        if (op < 45) {
            const Cycle at = now + drawGap(rng);
            cal.wake(warp, at);
            ref.wake(warp, at);
            if (op < 5) { // duplicate wake, same or later time
                const Cycle again = at + rng.nextBounded(2) * drawGap(rng);
                cal.wake(warp, again);
                ref.wake(warp, again);
            }
        } else if (op < 75) {
            now += drawSkip(rng);
            cal.advance(now);
            ref.advance(now);
        } else if (op < 99) {
            if (ref.hasReady()) {
                const int w = ref.peek();
                ASSERT_EQ(cal.peek(), w) << "op " << i;
                cal.consume(w);
                ref.consume(w);
            }
        } else {
            cal.reset(now);
            ref.reset();
        }
        ASSERT_EQ(cal.nextPendingCycle(), ref.nextPendingCycle())
            << "op " << i << " at cycle " << now;
        ASSERT_EQ(cal.readyCount(), ref.readyCount()) << "op " << i;
        ASSERT_EQ(readyOrder(cal), readyOrder(ref))
            << "op " << i << " at cycle " << now;
    }
}

TEST(WarpScheduler, CalendarMatchesHeapReferenceWithFourWarps)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        expectMatchesHeap(4, seed, 20000);
}

TEST(WarpScheduler, CalendarMatchesHeapReferenceWith48Warps)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        expectMatchesHeap(48, seed, 20000);
}

TEST(WarpScheduler, CalendarMatchesHeapReferenceWith100Warps)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        expectMatchesHeap(100, seed, 20000);
}

TEST(WarpScheduler, FarWakeSurfacesAfterALaggingCursor)
{
    // The cursor stays at cycle 0 while nothing surfaces; a wake far
    // past the wheel's horizon must still surface when its time comes,
    // and in (time, warp) order with a wheel wake due at the same cycle.
    WarpScheduler s(4);
    s.wake(3, 30000);
    s.wake(1, 24000);
    s.advance(23999);
    EXPECT_FALSE(s.hasReady());
    EXPECT_EQ(s.nextPendingCycle(), 24000u);
    s.advance(24010);
    ASSERT_TRUE(s.hasReady());
    EXPECT_EQ(s.peek(), 1);
    s.consume(1);
    s.wake(2, 30000);
    s.advance(40000);
    ASSERT_EQ(s.readyCount(), 2u);
    EXPECT_EQ(s.peek(), 2);
    s.consume(2);
    EXPECT_EQ(s.peek(), 3);
    EXPECT_EQ(s.nextPendingCycle(), cycleNever);
}

TEST(WarpScheduler, WarpsPastTheFirstWordSurfaceInIdOrder)
{
    WarpScheduler s(130);
    for (int w : {129, 64, 3, 127, 0})
        s.wake(w, 7);
    s.advance(7);
    for (int w : {0, 3, 64, 127, 129}) {
        ASSERT_EQ(s.peek(), w);
        s.consume(w);
    }
}

TEST(WarpScheduler, WakeBehindTheCalendarPanics)
{
    WarpScheduler s(2);
    s.wake(0, 10);
    s.advance(10);
    EXPECT_THROW(s.wake(1, 9), PanicError);
}

TEST(WarpScheduler, WakeSurfacesAtTheRightCycle)
{
    WarpScheduler s(4);
    s.wake(2, 10);
    s.advance(9);
    EXPECT_FALSE(s.hasReady());
    s.advance(10);
    ASSERT_TRUE(s.hasReady());
    EXPECT_EQ(s.peek(), 2);
}

TEST(WarpScheduler, OldestReadyFirst)
{
    WarpScheduler s(4);
    s.wake(3, 5);
    s.wake(1, 3);
    s.wake(0, 4);
    s.advance(5);
    EXPECT_EQ(s.peek(), 1);
    s.consume(1);
    EXPECT_EQ(s.peek(), 0);
    s.consume(0);
    EXPECT_EQ(s.peek(), 3);
}

TEST(WarpScheduler, DeferKeepsGreedyWarpAtFront)
{
    WarpScheduler s(2);
    s.wake(0, 0);
    s.wake(1, 0);
    s.advance(0);
    EXPECT_EQ(s.peek(), 0);
    s.defer(0);
    EXPECT_EQ(s.peek(), 0); // GTO: same warp retried
}

TEST(WarpScheduler, DuplicateWakesCollapse)
{
    WarpScheduler s(2);
    s.wake(1, 0);
    s.wake(1, 0);
    s.advance(0);
    EXPECT_EQ(s.readyCount(), 1u);
}

TEST(WarpScheduler, ResetDropsEverything)
{
    WarpScheduler s(4);
    s.wake(0, 0);
    s.wake(1, 100);
    s.advance(0);
    s.reset(0);
    EXPECT_FALSE(s.hasReady());
    s.advance(1000);
    EXPECT_FALSE(s.hasReady());
}

TEST(WarpScheduler, ConsumeOutOfOrderPanics)
{
    WarpScheduler s(2);
    s.wake(0, 0);
    s.wake(1, 0);
    s.advance(0);
    EXPECT_THROW(s.consume(1), PanicError);
}

TEST(WarpScheduler, BadWarpIdPanics)
{
    WarpScheduler s(2);
    EXPECT_THROW(s.wake(2, 0), PanicError);
    EXPECT_THROW(s.wake(-1, 0), PanicError);
}

} // namespace
} // namespace sac
