/**
 * @file
 * Bandwidth- and latency-modelled FIFO, the building block of every
 * network structure in the simulator (crossbar output ports,
 * inter-chip links, memory-controller queues), and the integer token
 * bucket that meters it.
 */

#ifndef SAC_NOC_QUEUE_HH
#define SAC_NOC_QUEUE_HH

#include <cstddef>
#include <cstdint>

#include "common/log.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "noc/packet.hh"

namespace sac {

/**
 * Token bucket with exact integer credit, in micro-bytes (1e-6 B).
 *
 * Every cycle adds `rate` micro-bytes, up to a cap of two cycles'
 * worth; spending may drive the level negative (debt), which later
 * refills repay. The refill is lazy: the bucket records the first
 * cycle it has not yet been refilled for, and at(now) adds all the
 * missing cycles in closed form. Integer addition saturating at a
 * cap is the same whether applied once per cycle or all at once, so
 * a bucket touched at arbitrary cycles holds exactly the credit it
 * would hold if touched every cycle — no caller ever replays a gap.
 * Any bandwidth with at most six decimals is represented exactly.
 */
class Credit
{
  public:
    /** Micro-bytes per byte. */
    static constexpr std::int64_t unit = 1000000;

    /** @param bytes_per_cycle refill rate, in [1e-6, 1e9] B/cycle */
    explicit Credit(double bytes_per_cycle);

    /** Credit after refilling every cycle up to and including @p now. */
    std::int64_t
    at(Cycle now) const
    {
        if (now < next_)
            return level_;
        const Cycle gap = now - next_ + 1;
        // Past fullGap_ cycles the refill exceeds any reachable
        // deficit; below it, rate_ * gap cannot overflow.
        if (gap >= fullGap_)
            return cap_;
        const std::int64_t level =
            level_ + rate_ * static_cast<std::int64_t>(gap);
        return level < cap_ ? level : cap_;
    }

    /** True when a transfer may start at @p now (positive credit). */
    bool ready(Cycle now) const { return at(now) > 0; }

    /** First cycle >= @p now at which ready() holds. */
    Cycle
    readyCycle(Cycle now) const
    {
        const std::int64_t level = at(now);
        if (level > 0)
            return now;
        // at(now + k) = level + rate_ * k until the cap, so the first
        // positive cycle is the smallest k with rate_ * k > -level.
        return now + static_cast<Cycle>(-level / rate_) + 1;
    }

    /** Debits @p bytes at @p now, after refilling through @p now. */
    void
    spend(std::uint64_t bytes, Cycle now)
    {
        level_ = at(now) - static_cast<std::int64_t>(bytes) * unit;
        if (now >= next_)
            next_ = now + 1;
    }

  private:
    std::int64_t rate_;
    std::int64_t cap_;
    /** Gap (in cycles) from which the refill always reaches the cap. */
    Cycle fullGap_;
    std::int64_t level_ = 0;
    /** First cycle whose refill is not yet in level_. */
    Cycle next_ = 0;
};

/**
 * A FIFO through which packets drain at a fixed bytes/cycle rate
 * after a fixed traversal latency.
 *
 * push() timestamps the packet; tryPop() succeeds once the latency
 * has elapsed *and* the queue's Credit is positive. Unused credit up
 * to one cycle's worth carries over so that fractional bandwidths
 * (e.g., 56 B/cy DRAM channels) average out exactly. The credit
 * refills lazily, so the queue needs no per-cycle call and may be
 * touched at any cycle.
 */
class BwQueue
{
  public:
    /**
     * @param bytes_per_cycle drain rate (see Credit for the range)
     * @param latency fixed traversal delay in cycles
     * @param capacity maximum queued packets (0 = unbounded)
     */
    BwQueue(double bytes_per_cycle, Cycle latency, std::size_t capacity = 0);

    /** True when another packet can be accepted. */
    bool canPush() const
    {
        return capacity_ == 0 || q.size() < capacity_;
    }

    /** Enqueues @p pkt at time @p now. @pre canPush(). */
    void push(Packet pkt, Cycle now);

    // The per-cycle methods below are defined inline: every queue in
    // the machine goes through them on every busy cycle.

    /**
     * Pops the head packet if it is ready (latency elapsed, credit
     * available). Returns false when nothing can drain this cycle.
     */
    bool
    tryPop(Packet &out, Cycle now)
    {
        const Packet *head = peekReady(now);
        if (!head)
            return false;
        out = *head;
        popHead(now);
        return true;
    }

    /** Head packet without popping; null when empty. */
    const Packet *peek() const { return q.empty() ? nullptr : &q.front().pkt; }

    /**
     * Head packet if it could drain at @p now (latency elapsed and
     * credit available), else null. Pair with popHead() so consumers
     * can inspect a packet and refuse it without losing ordering.
     *
     * Token bucket with debt: a packet drains once any credit is
     * available and drives the balance negative, so packets larger
     * than the per-cycle budget serialize over several cycles
     * instead of wedging (essential for slow inter-chip links).
     */
    const Packet *
    peekReady(Cycle now) const
    {
        if (q.empty())
            return nullptr;
        const Entry &head = q.front();
        if (head.readyAt > now || !credit_.ready(now))
            return nullptr;
        return &head.pkt;
    }

    /** Consumes, at @p now, the head peekReady(now) returned. */
    void
    popHead(Cycle now)
    {
        SAC_ASSERT(!q.empty(), "popHead on empty queue");
        credit_.spend(q.front().pkt.bytes, now);
        drained += q.front().pkt.bytes;
        q.pop_front();
    }

    /**
     * Earliest cycle at which this queue drains a packet, absent
     * pushes: cycleNever when empty, else the first cycle >= @p now
     * at which the head's latency has elapsed and the credit is
     * positive. Exact, because the credit is.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        if (q.empty())
            return cycleNever;
        const Cycle ready = q.front().readyAt;
        return credit_.readyCycle(ready > now ? ready : now);
    }

    std::size_t size() const { return q.size(); }
    bool empty() const { return q.empty(); }

    /** Total bytes ever drained (utilization stats). */
    std::uint64_t bytesDrained() const { return drained; }

  private:
    struct Entry
    {
        Packet pkt;
        Cycle readyAt;
    };
    static_assert(sizeof(Entry) <= 64, "a queue entry is one cache line");

    Credit credit_;
    Cycle latency_;
    std::size_t capacity_;
    Ring<Entry> q;
    std::uint64_t drained = 0;
};

} // namespace sac

#endif // SAC_NOC_QUEUE_HH
