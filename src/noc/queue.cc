#include "noc/queue.hh"

#include <cmath>
#include <limits>

#include "common/log.hh"

namespace sac {

namespace {

/** @p bytes_per_cycle as a whole number of micro-bytes per cycle. */
std::int64_t
microBytesPerCycle(double bytes_per_cycle)
{
    SAC_ASSERT(std::isfinite(bytes_per_cycle) && bytes_per_cycle <= 1e9,
               "bandwidth must be finite and at most 1e9 B/cycle, got ",
               bytes_per_cycle);
    const std::int64_t rate =
        std::llround(bytes_per_cycle * static_cast<double>(Credit::unit));
    SAC_ASSERT(rate >= 1, "bandwidth must be at least 1e-6 B/cycle, got ",
               bytes_per_cycle);
    return rate;
}

} // namespace

Credit::Credit(double bytes_per_cycle)
    : rate_(microBytesPerCycle(bytes_per_cycle)),
      cap_(2 * rate_),
      // Debt is bounded by a packet's size, far above -2^62, so a gap
      // whose refill reaches 2^62 always saturates at the cap.
      fullGap_(static_cast<Cycle>(
          (std::numeric_limits<std::int64_t>::max() / 2) / rate_))
{
}

BwQueue::BwQueue(double bytes_per_cycle, Cycle latency, std::size_t capacity)
    : credit_(bytes_per_cycle),
      latency_(latency),
      capacity_(capacity)
{
}

void
BwQueue::push(Packet pkt, Cycle now)
{
    SAC_ASSERT(canPush(), "push into a full BwQueue");
    q.push_back({pkt, now + latency_});
}

} // namespace sac
