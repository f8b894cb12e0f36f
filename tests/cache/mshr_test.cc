/** @file Unit tests for the MSHR file. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "cache/mshr.hh"

namespace sac {
namespace {

Packet
pkt(Addr line, int warp, unsigned sector = 0)
{
    Packet p;
    p.lineAddr = line;
    p.warp = warp;
    p.sector = static_cast<std::uint8_t>(sector);
    return p;
}

std::vector<Packet>
complete(MshrFile &m, Addr line, unsigned sector)
{
    std::vector<Packet> out;
    m.complete(line, sector, out);
    return out;
}

TEST(Mshr, FirstMissIsPrimary)
{
    MshrFile m(4);
    EXPECT_EQ(m.allocate(pkt(0x100, 0)), MshrFile::Outcome::Primary);
    EXPECT_TRUE(m.has(0x100, 0));
    EXPECT_EQ(m.inUse(), 1u);
}

TEST(Mshr, SameLineMerges)
{
    MshrFile m(4);
    m.allocate(pkt(0x100, 0));
    EXPECT_EQ(m.allocate(pkt(0x100, 1)), MshrFile::Outcome::Merged);
    EXPECT_EQ(m.allocate(pkt(0x100, 2)), MshrFile::Outcome::Merged);
    EXPECT_EQ(m.inUse(), 1u);
    const auto targets = complete(m, 0x100, 0);
    ASSERT_EQ(targets.size(), 3u);
    EXPECT_EQ(targets[0].warp, 0);
    EXPECT_EQ(targets[1].warp, 1);
    EXPECT_EQ(targets[2].warp, 2);
    EXPECT_EQ(m.inUse(), 0u);
}

TEST(Mshr, FullRejectsNewLines)
{
    MshrFile m(2);
    m.allocate(pkt(0x100, 0));
    m.allocate(pkt(0x200, 1));
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.allocate(pkt(0x300, 2)), MshrFile::Outcome::Full);
    // Existing lines still merge when full.
    EXPECT_EQ(m.allocate(pkt(0x100, 3)), MshrFile::Outcome::Merged);
}

TEST(Mshr, SectorsAreIndependentEntries)
{
    MshrFile m(4);
    EXPECT_EQ(m.allocate(pkt(0x100, 0, 0)), MshrFile::Outcome::Primary);
    EXPECT_EQ(m.allocate(pkt(0x100, 1, 2)), MshrFile::Outcome::Primary);
    EXPECT_EQ(m.inUse(), 2u);
    EXPECT_EQ(complete(m, 0x100, 2).size(), 1u);
    EXPECT_TRUE(m.has(0x100, 0));
}

TEST(Mshr, CompleteUnknownReturnsEmpty)
{
    MshrFile m(2);
    EXPECT_TRUE(complete(m, 0x500, 0).empty());
}

TEST(Mshr, DrainReturnsEverything)
{
    MshrFile m(4);
    m.allocate(pkt(0x100, 0));
    m.allocate(pkt(0x100, 1));
    m.allocate(pkt(0x200, 2));
    std::vector<Packet> all;
    m.drainAll(all);
    EXPECT_EQ(all.size(), 3u);
    EXPECT_EQ(m.inUse(), 0u);
}

TEST(Mshr, CompleteAppendsWithoutClearing)
{
    // The out-buffer contract: complete() appends to whatever the
    // caller already collected (scratch reuse across fills).
    MshrFile m(4);
    m.allocate(pkt(0x100, 0));
    m.allocate(pkt(0x200, 1));
    std::vector<Packet> out;
    m.complete(0x100, 0, out);
    m.complete(0x200, 0, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].warp, 0);
    EXPECT_EQ(out[1].warp, 1);
}

TEST(Mshr, ReallocateAfterCompleteRecyclesEntries)
{
    // Steady-state churn: allocate/complete cycles across many
    // distinct lines must keep entry bookkeeping exact.
    MshrFile m(8);
    for (Addr base = 0; base < 64; ++base) {
        const Addr line = 0x1000 + base * 0x40;
        ASSERT_EQ(m.allocate(pkt(line, 0)), MshrFile::Outcome::Primary);
        ASSERT_EQ(m.allocate(pkt(line, 1)), MshrFile::Outcome::Merged);
        ASSERT_EQ(complete(m, line, 0).size(), 2u);
        ASSERT_EQ(m.inUse(), 0u);
    }
}


TEST(Mshr, TargetsComeBackInAllocationOrderAcrossMerges)
{
    // Interleaved merges into three entries, with records freed by
    // one completion reused by the next merges: each entry still
    // returns exactly its own targets, oldest first.
    MshrFile m(4);
    m.allocate(pkt(0x100, 0));
    m.allocate(pkt(0x200, 1));
    m.allocate(pkt(0x100, 2));
    m.allocate(pkt(0x300, 3));
    m.allocate(pkt(0x200, 4));
    m.allocate(pkt(0x100, 5));
    const auto b = complete(m, 0x200, 0);
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[0].warp, 1);
    EXPECT_EQ(b[1].warp, 4);
    m.allocate(pkt(0x300, 6));
    m.allocate(pkt(0x100, 7));
    m.allocate(pkt(0x300, 8));
    const auto a = complete(m, 0x100, 0);
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(a[0].warp, 0);
    EXPECT_EQ(a[1].warp, 2);
    EXPECT_EQ(a[2].warp, 5);
    EXPECT_EQ(a[3].warp, 7);
    const auto c = complete(m, 0x300, 0);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c[0].warp, 3);
    EXPECT_EQ(c[1].warp, 6);
    EXPECT_EQ(c[2].warp, 8);
    EXPECT_EQ(m.inUse(), 0u);
}

TEST(Mshr, DrainAllReturnsEveryTargetOfEveryEntry)
{
    MshrFile m(8);
    int warp = 0;
    // Five entries with 1..5 targets each, allocated round-robin.
    for (int round = 0; round < 5; ++round) {
        for (int e = round; e < 5; ++e)
            m.allocate(pkt(0x1000 + 0x80 * static_cast<Addr>(e), warp++));
    }
    ASSERT_EQ(m.inUse(), 5u);
    std::vector<Packet> all;
    all.push_back(pkt(0xdead, -1)); // drainAll appends, too
    m.drainAll(all);
    ASSERT_EQ(all.size(), 1u + 15u);
    EXPECT_EQ(all[0].warp, -1);
    // Every target once; within one entry, in allocation order.
    std::vector<int> warps;
    for (std::size_t i = 1; i < all.size(); ++i) {
        warps.push_back(all[i].warp);
        for (std::size_t j = 1; j < i; ++j) {
            if (all[j].lineAddr == all[i].lineAddr) {
                EXPECT_LT(all[j].warp, all[i].warp);
            }
        }
    }
    std::sort(warps.begin(), warps.end());
    for (int i = 0; i < 15; ++i)
        EXPECT_EQ(warps[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(m.inUse(), 0u);
    EXPECT_FALSE(m.has(0x1000, 0));
    EXPECT_EQ(m.targetPoolSize(), 0u);
    // The file is usable again afterwards.
    EXPECT_EQ(m.allocate(pkt(0x1000, 0)), MshrFile::Outcome::Primary);
    EXPECT_EQ(complete(m, 0x1000, 0).size(), 1u);
}

TEST(Mshr, SteadyOccupancyDoesNotGrowTheTargetPool)
{
    // 10k allocate/complete cycles with the file held full and one to
    // three targets per entry: the pool stops at the live high-water
    // mark (8 entries x 3 targets) and never grows past it.
    constexpr std::size_t entries = 8;
    MshrFile m(entries);
    std::deque<Addr> live;
    std::vector<Packet> out;
    Addr next = 0x1000;
    std::size_t warmPool = 0;
    for (int cycle = 0; cycle < 10000; ++cycle) {
        if (live.size() == entries) {
            out.clear();
            m.complete(live.front(), 0, out);
            ASSERT_EQ(out.size(), 1u + static_cast<std::size_t>(
                                           live.front() / 0x80 % 3));
            live.pop_front();
        }
        const Addr line = next;
        next += 0x80;
        ASSERT_EQ(m.allocate(pkt(line, cycle)), MshrFile::Outcome::Primary);
        for (Addr t = 0; t < line / 0x80 % 3; ++t)
            ASSERT_EQ(m.allocate(pkt(line, cycle)),
                      MshrFile::Outcome::Merged);
        live.push_back(line);
        ASSERT_LE(m.targetPoolSize(), entries * 3);
        if (cycle == 100)
            warmPool = m.targetPoolSize();
        if (cycle > 100) {
            ASSERT_EQ(m.targetPoolSize(), warmPool) << "cycle " << cycle;
        }
    }
}

} // namespace
} // namespace sac
