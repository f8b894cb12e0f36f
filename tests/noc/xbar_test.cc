/** @file Unit tests for the crossbar port bundle. */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "noc/xbar.hh"

namespace sac {
namespace {

Packet
pkt(unsigned bytes, std::uint64_t id = 0)
{
    Packet p;
    p.bytes = bytes;
    p.id = id;
    return p;
}

TEST(Xbar, PortsAreIndependent)
{
    Xbar x(4, 128.0, 0);
    x.push(0, pkt(128, 1), 0);
    x.push(3, pkt(128, 2), 0);
    Packet out;
    EXPECT_TRUE(x.tryPop(0, out, 0));
    EXPECT_EQ(out.id, 1u);
    EXPECT_FALSE(x.tryPop(1, out, 0));
    EXPECT_TRUE(x.tryPop(3, out, 0));
    EXPECT_EQ(out.id, 2u);
}

TEST(Xbar, PerPortBandwidth)
{
    Xbar x(2, 128.0, 0);
    for (int i = 0; i < 6; ++i)
        x.push(0, pkt(128), 0);
    Packet out;
    int drained = 0;
    for (Cycle t = 0; t < 3; ++t) {
        while (x.tryPop(0, out, t))
            ++drained;
    }
    // 128 B/cy with 128-byte packets: one per cycle steady state
    // (plus the initial burst carry).
    EXPECT_LE(drained, 4);
    EXPECT_GE(drained, 3);
}

TEST(Xbar, TraversalLatency)
{
    Xbar x(1, 1000.0, 12);
    x.push(0, pkt(8), 100);
    Packet out;
    EXPECT_FALSE(x.tryPop(0, out, 111));
    EXPECT_TRUE(x.tryPop(0, out, 112));
}

TEST(Xbar, QueueDepthAndBytesReporting)
{
    Xbar x(2, 64.0, 0);
    x.push(1, pkt(64), 0);
    x.push(1, pkt(64), 0);
    EXPECT_EQ(x.queued(1), 2u);
    Packet out;
    x.tryPop(1, out, 0);
    EXPECT_EQ(x.bytesDrained(), 64u);
}

TEST(Xbar, BadPortPanics)
{
    Xbar x(2, 64.0, 0);
    EXPECT_THROW(x.push(2, pkt(8), 0), PanicError);
    EXPECT_THROW(x.push(-1, pkt(8), 0), PanicError);
}

} // namespace
} // namespace sac
