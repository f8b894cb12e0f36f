/** @file Unit tests for the MSHR file. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "cache/mshr.hh"
#include "common/log.hh"

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

/** The warps complete()'s walk visits, in visit order. */
std::vector<int>
walk(MshrFile &m, Addr line)
{
    std::vector<int> warps;
    const auto visit = [&](const Packet &p) { warps.push_back(p.warp); };
    const std::size_t visited = m.complete(line, 0, visit);
    EXPECT_EQ(visited, warps.size());
    return warps;
}

TEST(Mshr, TargetsComeBackInAllocationOrderAcrossMerges)
{
    // Interleaved merges into three entries, with records freed by
    // one fill walk reused by the next merges: each walk still visits
    // exactly its entry's targets, oldest first.
    MshrFile m(4);
    m.allocate(pkt(0x100, 0));
    m.allocate(pkt(0x200, 1));
    m.allocate(pkt(0x100, 2));
    m.allocate(pkt(0x300, 3));
    m.allocate(pkt(0x200, 4));
    m.allocate(pkt(0x100, 5));
    EXPECT_EQ(walk(m, 0x200), (std::vector<int>{1, 4}));
    EXPECT_FALSE(m.has(0x200, 0));
    m.allocate(pkt(0x300, 6));
    m.allocate(pkt(0x100, 7));
    m.allocate(pkt(0x300, 8));
    EXPECT_EQ(walk(m, 0x100), (std::vector<int>{0, 2, 5, 7}));
    EXPECT_EQ(walk(m, 0x300), (std::vector<int>{3, 6, 8}));
    EXPECT_TRUE(walk(m, 0x300).empty()); // already completed
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
    // three targets per entry: the fill walk frees every record, so the
    // pool stops at the live high-water mark (8 entries x 3 targets)
    // and never grows past it.
    constexpr std::size_t entries = 8;
    MshrFile m(entries);
    std::deque<Addr> live;
    Addr next = 0x1000;
    std::size_t warmPool = 0;
    const auto ignore = [](const Packet &) {};
    for (int cycle = 0; cycle < 10000; ++cycle) {
        if (live.size() == entries) {
            ASSERT_EQ(m.complete(live.front(), 0, ignore),
                      1u + static_cast<std::size_t>(live.front() / 0x80 % 3));
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

TEST(Mshr, VectorCompleteReturnsTheWalkedPackets)
{
    // Two files fed the same misses: the vector overload appends the
    // very packets, in the very order, that the walk hands out.
    MshrFile a(4);
    MshrFile b(4);
    for (int i = 0; i < 12; ++i) {
        Packet p = pkt(0x100 * static_cast<Addr>(1 + i % 3), i, i % 2);
        p.id = 1000 + static_cast<std::uint64_t>(i);
        p.issued = static_cast<Cycle>(7 * i);
        a.allocate(p);
        b.allocate(p);
    }
    for (Addr line : {0x200, 0x100, 0x300}) {
        for (unsigned sector : {1u, 0u}) {
            std::vector<Packet> walked;
            const auto keep = [&](const Packet &p) { walked.push_back(p); };
            a.complete(line, sector, keep);
            std::vector<Packet> appended;
            b.complete(line, sector, appended);
            ASSERT_EQ(walked.size(), appended.size());
            for (std::size_t i = 0; i < walked.size(); ++i) {
                EXPECT_EQ(walked[i].id, appended[i].id);
                EXPECT_EQ(walked[i].warp, appended[i].warp);
                EXPECT_EQ(walked[i].issued, appended[i].issued);
            }
        }
    }
    EXPECT_EQ(a.inUse(), 0u);
    EXPECT_EQ(b.inUse(), 0u);
}

TEST(Mshr, AllocatingFromInsideAWalkPanics)
{
    MshrFile m(4);
    m.allocate(pkt(0x100, 0));
    const auto reenter = [&](const Packet &) { m.allocate(pkt(0x200, 1)); };
    EXPECT_THROW(m.complete(0x100, 0, reenter), PanicError);
}

} // namespace
} // namespace sac
