/** @file Unit tests for the open-addressing hash map. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/probe_map.hh"
#include "common/rng.hh"

namespace sac {
namespace {

/** The first @p n keys whose probe sequence starts at @p m's home
 *  slot of key 1, so they form one collision cluster. */
std::vector<std::uint64_t>
collidingKeys(const ProbeMap<int> &m, std::size_t n)
{
    std::vector<std::uint64_t> out;
    const std::size_t target = m.home(1);
    for (std::uint64_t k = 1; out.size() < n; ++k) {
        if (m.home(k) == target)
            out.push_back(k);
    }
    return out;
}

/** Value stored for key @p k in these tests. */
int
valueOf(std::uint64_t k)
{
    return static_cast<int>(k % 100003) + 1;
}

TEST(ProbeMap, KeysSharingAHomeSlotAreAllFound)
{
    ProbeMap<int> m(8);
    const auto keys = collidingKeys(m, 6);
    for (const auto k : keys) {
        auto [v, inserted] = m.emplace(k);
        ASSERT_TRUE(inserted);
        *v = valueOf(k);
    }
    EXPECT_EQ(m.size(), keys.size());
    for (const auto k : keys) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(*m.find(k), valueOf(k));
        // A second emplace finds the key instead of inserting it.
        EXPECT_FALSE(m.emplace(k).second);
    }
}

TEST(ProbeMap, BackwardShiftEraseKeepsEveryRemainingKeyFindable)
{
    ProbeMap<int> m(16);
    // One collision cluster plus keys homed elsewhere that the
    // cluster's probe path runs through.
    auto keys = collidingKeys(m, 5);
    for (std::uint64_t k = 1000; keys.size() < 10; ++k)
        keys.push_back(k);
    Rng rng(5);
    for (int round = 0; round < 50; ++round) {
        for (const auto k : keys)
            *m.emplace(k).first = valueOf(k);
        std::vector<std::uint64_t> live = keys;
        // Erase in a different random order each round.
        for (std::size_t i = live.size(); i > 1; --i)
            std::swap(live[i - 1], live[rng.nextBounded(i)]);
        while (!live.empty()) {
            const auto gone = live.back();
            live.pop_back();
            ASSERT_TRUE(m.erase(gone));
            EXPECT_FALSE(m.contains(gone));
            EXPECT_FALSE(m.erase(gone));
            ASSERT_EQ(m.size(), live.size());
            for (const auto k : live) {
                const int *v = m.find(k);
                ASSERT_NE(v, nullptr) << "lost key " << k;
                EXPECT_EQ(*v, valueOf(k));
            }
        }
    }
}

TEST(ProbeMap, GrowsByRehashingAndKeepsEveryEntry)
{
    ProbeMap<int> m;
    const std::size_t initial = m.slots();
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 1000; ++i)
        keys.push_back(i * 0x1000 + 0x80); // clustered line addresses
    for (const auto k : keys)
        *m.emplace(k).first = valueOf(k);
    EXPECT_EQ(m.size(), keys.size());
    EXPECT_GT(m.slots(), initial);
    // Load factor stays under 3/4.
    EXPECT_LT(m.size() * 4, m.slots() * 3);
    for (const auto k : keys) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(*m.find(k), valueOf(k));
    }
    EXPECT_FALSE(m.contains(0x81));
}

TEST(ProbeMap, ZeroIsAnOrdinaryKey)
{
    ProbeMap<int> m;
    EXPECT_FALSE(m.contains(0));
    auto [v, inserted] = m.emplace(0);
    ASSERT_TRUE(inserted);
    *v = 42;
    EXPECT_TRUE(m.contains(0));
    EXPECT_EQ(*m.find(0), 42);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_TRUE(m.erase(0));
    EXPECT_FALSE(m.contains(0));
    EXPECT_TRUE(m.empty());
}

TEST(ProbeMap, NewKeysGetValueInitializedValues)
{
    ProbeMap<int> m;
    *m.emplace(7).first = 99;
    ASSERT_TRUE(m.erase(7));
    EXPECT_EQ(*m.emplace(7).first, 0);
    *m.emplace(8).first = 5;
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(m.contains(8));
    EXPECT_EQ(*m.emplace(8).first, 0);
}

TEST(ProbeMap, ForEachVisitsEveryEntryOnce)
{
    ProbeMap<int> m;
    for (std::uint64_t k = 0; k < 40; ++k)
        *m.emplace(k).first = valueOf(k);
    std::vector<std::uint64_t> seen;
    m.forEach([&](std::uint64_t k, int &v) {
        EXPECT_EQ(v, valueOf(k));
        seen.push_back(k);
    });
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), 40u);
    for (std::uint64_t k = 0; k < 40; ++k)
        EXPECT_EQ(seen[k], k);
}

} // namespace
} // namespace sac
