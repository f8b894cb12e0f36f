/** @file Unit and property tests for the bandwidth-limited queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>

#include "common/log.hh"
#include "noc/queue.hh"

namespace sac {
namespace {

Packet
pkt(unsigned bytes)
{
    Packet p;
    p.bytes = bytes;
    return p;
}

TEST(BwQueue, LatencyGatesDelivery)
{
    BwQueue q(1000.0, 10);
    q.push(pkt(8), 0);
    Packet out;
    EXPECT_FALSE(q.tryPop(out, 9));
    EXPECT_TRUE(q.tryPop(out, 10));
}

TEST(BwQueue, BandwidthLimitsDrainPerCycle)
{
    BwQueue q(128.0, 0);
    for (int i = 0; i < 4; ++i)
        q.push(pkt(128), 0);
    Packet out;
    int drained = 0;
    while (q.tryPop(out, 0))
        ++drained;
    // First cycle allows the burst carry (2x budget cap): two packets.
    EXPECT_LE(drained, 2);
    for (Cycle t = 1; t <= 4; ++t) {
        while (q.tryPop(out, t))
            ++drained;
    }
    EXPECT_EQ(drained, 4);
}

TEST(BwQueue, FractionalBandwidthAveragesOut)
{
    // 56 B/cy with 128-byte packets: ~0.4375 packets per cycle.
    BwQueue q(56.0, 0);
    for (int i = 0; i < 40; ++i)
        q.push(pkt(128), 0);
    Packet out;
    int drained = 0;
    for (Cycle t = 0; t < 100; ++t) {
        while (q.tryPop(out, t))
            ++drained;
    }
    EXPECT_GE(drained, 40 * 100 / 229 - 2); // ~43.75 - but only 40 queued
    EXPECT_EQ(drained, 40);
    EXPECT_EQ(q.bytesDrained(), 40u * 128);
}

TEST(BwQueue, ThroughputMatchesBandwidthProperty)
{
    for (double bw : {16.0, 56.0, 96.0, 256.0}) {
        BwQueue q(bw, 0);
        for (int i = 0; i < 10000; ++i)
            q.push(pkt(128), 0);
        Packet out;
        std::uint64_t drained_bytes = 0;
        const Cycle horizon = 1000;
        for (Cycle t = 0; t < horizon; ++t) {
            while (q.tryPop(out, t))
                drained_bytes += out.bytes;
        }
        const double expected = bw * static_cast<double>(horizon);
        EXPECT_NEAR(static_cast<double>(drained_bytes), expected,
                    expected * 0.02 + 256.0)
            << "bw=" << bw;
    }
}

TEST(BwQueue, CapacityBackpressure)
{
    BwQueue q(8.0, 0, 2);
    EXPECT_TRUE(q.canPush());
    q.push(pkt(8), 0);
    q.push(pkt(8), 0);
    EXPECT_FALSE(q.canPush());
    EXPECT_THROW(q.push(pkt(8), 0), PanicError);
}

TEST(BwQueue, PeekReadyAndPopHeadPreserveOrder)
{
    BwQueue q(1000.0, 0);
    Packet a = pkt(8);
    a.id = 1;
    Packet b = pkt(8);
    b.id = 2;
    q.push(a, 0);
    q.push(b, 0);
    const Packet *head = q.peekReady(0);
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->id, 1u);
    q.popHead(0);
    head = q.peekReady(0);
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->id, 2u);
}

TEST(BwQueue, OversizedPacketsSerializeAsDebt)
{
    // A 128-byte packet through an 8 B/cy link: the first packet
    // drains on the first credited cycle, then the debt blocks the
    // next one for ~16 cycles.
    BwQueue q(8.0, 0);
    q.push(pkt(128), 0);
    q.push(pkt(128), 0);
    ASSERT_NE(q.peekReady(0), nullptr);
    q.popHead(0);
    EXPECT_EQ(q.peekReady(0), nullptr); // in debt now
    Cycle t = 1;
    Packet out;
    int waited = 0;
    for (; t < 100; ++t) {
        if (q.tryPop(out, t))
            break;
        ++waited;
    }
    EXPECT_GE(waited, 14);
    EXPECT_LE(waited, 16);
}

TEST(BwQueue, CreditCapsAtTwoCyclesOfBandwidth)
{
    // An idle queue accrues at most one cycle of carry: after 50
    // empty cycles the first busy cycle drains 2*bw bytes, not the
    // whole backlog.
    BwQueue q(128.0, 0);
    for (int i = 0; i < 8; ++i)
        q.push(pkt(128), 50);
    Packet out;
    int drained = 0;
    while (q.tryPop(out, 50))
        ++drained;
    EXPECT_EQ(drained, 2); // exactly 2*bw / 128 packets
}

TEST(BwQueue, LatencyAndCapacityInteract)
{
    // A full queue stays full while its head is still in flight:
    // capacity is freed by draining, and draining waits on latency.
    BwQueue q(1000.0, 5, 2);
    q.push(pkt(8), 0);
    q.push(pkt(8), 0);
    EXPECT_FALSE(q.canPush());
    Packet out;
    for (Cycle t = 0; t < 5; ++t) {
        EXPECT_FALSE(q.tryPop(out, t));
        EXPECT_FALSE(q.canPush());
    }
    EXPECT_TRUE(q.tryPop(out, 5));
    EXPECT_TRUE(q.canPush());
    // The freed slot accepts a push whose latency clock starts now.
    q.push(pkt(8), 5);
    EXPECT_TRUE(q.tryPop(out, 5)); // the remaining original packet
    EXPECT_FALSE(q.tryPop(out, 9));
    EXPECT_TRUE(q.tryPop(out, 10));
}

TEST(BwQueue, NextEventCycleContract)
{
    // Empty: nothing will ever happen on its own.
    BwQueue q(8.0, 10);
    EXPECT_EQ(q.nextEventCycle(0), cycleNever);

    // Head still in flight: the event is its arrival cycle.
    q.push(pkt(8), 0);
    EXPECT_EQ(q.nextEventCycle(0), Cycle{10});
    EXPECT_EQ(q.nextEventCycle(7), Cycle{10});

    // Head ready and credit available: work right now.
    EXPECT_EQ(q.nextEventCycle(10), Cycle{10});
}

TEST(BwQueue, NextEventCycleAccountsForThisCyclesRefill)
{
    // Drain a 128-byte packet through an 8 B/cy queue at cycle 0: the
    // credit goes to 8 - 128 = -120 and the next packet waits on
    // repayment. Cycle t refills to -120 + 8t, so the first credited
    // cycle is 16 — and nextEventCycle names it exactly, from any
    // earlier cycle, because each cycle's refill precedes draining.
    BwQueue q(8.0, 0);
    q.push(pkt(128), 0);
    q.push(pkt(8), 0);
    ASSERT_NE(q.peekReady(0), nullptr);
    q.popHead(0);
    for (Cycle t = 0; t <= 16; ++t)
        EXPECT_EQ(q.nextEventCycle(t), Cycle{16}) << "t=" << t;
    Packet out;
    EXPECT_FALSE(q.tryPop(out, 15));
    EXPECT_TRUE(q.tryPop(out, 16));
    EXPECT_EQ(q.nextEventCycle(16), cycleNever);
}

TEST(BwQueue, NextEventCycleWaitsForLatencyAndCredit)
{
    // A head whose latency ends while the credit is still in debt
    // drains when both hold, not at its readyAt.
    BwQueue q(8.0, 4);
    q.push(pkt(128), 0);
    q.push(pkt(8), 0);
    EXPECT_EQ(q.nextEventCycle(0), Cycle{4});
    q.popHead(4); // credit 16 - 128 = -112, repaid at cycle 4 + 15
    EXPECT_EQ(q.nextEventCycle(4), Cycle{19});
    EXPECT_EQ(q.peekReady(18), nullptr);
    EXPECT_NE(q.peekReady(19), nullptr);
}

/**
 * The per-cycle token bucket the lazy Credit must equal: every cycle
 * adds the rate and clamps at the cap, then drains while positive.
 */
struct EveryCycleBucket
{
    explicit EveryCycleBucket(double bw)
        : rate(std::llround(bw * static_cast<double>(Credit::unit))),
          cap(2 * rate)
    {
    }

    /** Applies every cycle's refill up to and including @p t. */
    void
    refillThrough(Cycle t)
    {
        for (; next <= t; ++next) {
            if (level == cap) {
                next = t + 1; // further refills are no-ops
                break;
            }
            level = std::min(level + rate, cap);
        }
    }

    std::int64_t rate;
    std::int64_t cap;
    std::int64_t level = 0;
    Cycle next = 0;
    std::deque<unsigned> queued;
};

TEST(BwQueue, LazyCatchUpMatchesTouchingEveryCycle)
{
    // The property that lets any component tick at any cycle: a queue
    // touched only at the cycles its nextEventCycle names, after
    // random idle gaps (up to 2^40 cycles) and from random debt,
    // drains exactly when a bucket refilled cycle by cycle does. The
    // bandwidths include non-integral ones a double budget could not
    // refill in closed form.
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    const auto draw = [&rng](std::uint64_t bound) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng % bound;
    };
    for (double bw : {0.625, 7.3, 56.0, 96.0, 100.3}) {
        for (int trial = 0; trial < 20; ++trial) {
            EveryCycleBucket ref(bw);
            BwQueue lazy(bw, 0);
            Cycle t = 0;
            for (int round = 0; round < 8; ++round) {
                // A burst of up to four packets, most larger than a
                // cycle's credit: the drain runs into debt.
                const auto burst = 1 + draw(4);
                for (std::uint64_t i = 0; i < burst; ++i) {
                    const auto bytes =
                        static_cast<unsigned>(8 + draw(249));
                    ref.queued.push_back(bytes);
                    lazy.push(pkt(bytes), t);
                }
                Cycle lazy_at = lazy.nextEventCycle(t);
                while (!ref.queued.empty()) {
                    ref.refillThrough(t);
                    if (ref.level <= 0) {
                        ASSERT_GT(lazy_at, t) << "bw=" << bw << " t=" << t;
                        ++t;
                        continue;
                    }
                    ASSERT_EQ(lazy_at, t) << "bw=" << bw << " t=" << t;
                    Packet out;
                    ASSERT_TRUE(lazy.tryPop(out, t));
                    ASSERT_EQ(out.bytes, ref.queued.front());
                    ref.level -= static_cast<std::int64_t>(out.bytes) *
                                 Credit::unit;
                    ref.queued.pop_front();
                    lazy_at = lazy.nextEventCycle(t);
                }
                ASSERT_EQ(lazy_at, cycleNever);
                t += draw(4) == 0 ? Cycle{1} << draw(41) : draw(300);
            }
        }
    }
}

TEST(Credit, SaturatesAtTheCapForAnyGap)
{
    Credit c(100.3);
    const std::int64_t rate = 100300000;
    EXPECT_EQ(c.at(0), rate);
    EXPECT_EQ(c.at(1), 2 * rate);
    EXPECT_EQ(c.at(Cycle{1} << 40), 2 * rate);
    EXPECT_EQ(c.at(cycleNever - 1), 2 * rate);
    c.spend(1000, Cycle{1} << 40); // 2 * 100.3 - 1000 B of debt
    EXPECT_EQ(c.at(Cycle{1} << 40), 2 * rate - 1000 * Credit::unit);
    EXPECT_FALSE(c.ready(Cycle{1} << 40));
    const Cycle ready = c.readyCycle(Cycle{1} << 40);
    EXPECT_FALSE(c.ready(ready - 1));
    EXPECT_TRUE(c.ready(ready));
    EXPECT_EQ(ready - (Cycle{1} << 40), Cycle{8}); // -799.4 + 8 * 100.3 > 0
}

TEST(Credit, RejectsUnrepresentableRates)
{
    EXPECT_THROW(Credit(0.0), PanicError);
    EXPECT_THROW(Credit(4e-7), PanicError); // rounds to 0 micro-bytes
    EXPECT_THROW(Credit(2e9), PanicError);
    EXPECT_THROW(Credit(std::numeric_limits<double>::quiet_NaN()),
                 PanicError);
    EXPECT_THROW(Credit(std::numeric_limits<double>::infinity()),
                 PanicError);
    EXPECT_NO_THROW(Credit(1e-6));
    EXPECT_NO_THROW(Credit(1e9));
}

} // namespace
} // namespace sac
