/** @file Unit tests for the ring-buffer FIFO. */

#include <gtest/gtest.h>

#include "common/ring.hh"

namespace sac {
namespace {

/** Pops every element, checking they run @p first, first + 1, .... */
void
expectDrainsInOrder(Ring<int> &r, int first)
{
    while (!r.empty()) {
        EXPECT_EQ(r.front(), first++);
        r.pop_front();
    }
}

TEST(Ring, FifoOrderAcrossWrapAround)
{
    Ring<int> r;
    int next = 0;
    for (; next < 8; ++next)
        r.push_back(next);
    const std::size_t cap = r.capacity();
    ASSERT_EQ(cap, 8u);
    // Pop five and push five more: the tail wraps past slot 7.
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
    for (int i = 0; i < 5; ++i)
        r.push_back(next++);
    EXPECT_EQ(r.capacity(), cap);
    ASSERT_EQ(r.size(), 8u);
    EXPECT_EQ(r.back(), 12);
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], 5 + static_cast<int>(i));
    expectDrainsInOrder(r, 5);
}

TEST(Ring, GrowthWithANonZeroHeadKeepsOrder)
{
    Ring<int> r;
    for (int i = 0; i < 8; ++i)
        r.push_back(i);
    // Leave the head at slot 3 without draining, then push past the
    // capacity: the ninth element forces grow().
    for (int i = 0; i < 3; ++i)
        r.pop_front();
    for (int i = 8; i < 12; ++i)
        r.push_back(i);
    EXPECT_EQ(r.capacity(), 16u);
    ASSERT_EQ(r.size(), 9u);
    EXPECT_EQ(r.front(), 3);
    EXPECT_EQ(r.back(), 11);
    expectDrainsInOrder(r, 3);
}

TEST(Ring, RewindsToTheFirstSlotWhenDrained)
{
    Ring<int> r;
    r.push_back(0);
    const int *slot0 = &r.front();
    // Stream through without ever draining: the head moves on.
    r.push_back(1);
    r.pop_front();
    EXPECT_NE(&r.front(), slot0);
    // Draining rewinds, so the next element lands in slot 0 again.
    r.pop_front();
    ASSERT_TRUE(r.empty());
    r.push_back(7);
    EXPECT_EQ(&r.front(), slot0);
    EXPECT_EQ(r.front(), 7);
    // A queue that drains every cycle keeps reusing that one slot.
    for (int i = 0; i < 100; ++i) {
        r.pop_front();
        r.push_back(i);
        EXPECT_EQ(&r.front(), slot0);
    }
    EXPECT_EQ(r.capacity(), 8u);
}

TEST(Ring, ClearKeepsTheCapacity)
{
    Ring<int> r;
    for (int i = 0; i < 20; ++i)
        r.push_back(i);
    const std::size_t cap = r.capacity();
    EXPECT_EQ(cap, 32u);
    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.size(), 0u);
    EXPECT_EQ(r.capacity(), cap);
    for (int i = 0; i < 32; ++i)
        r.push_back(100 + i);
    EXPECT_EQ(r.capacity(), cap);
    expectDrainsInOrder(r, 100);
}

} // namespace
} // namespace sac
