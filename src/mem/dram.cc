#include "mem/dram.hh"

#include <algorithm>

#include "common/log.hh"

namespace sac {

DramChannel::DramChannel(double bytes_per_cycle, Cycle latency,
                         std::size_t queue_depth)
    : bw(bytes_per_cycle), latency_(latency), depth(queue_depth)
{
    SAC_ASSERT(bw > 0.0, "DRAM bandwidth must be positive");
    SAC_ASSERT(depth > 0, "DRAM queue depth must be positive");
}

void
DramChannel::push(const Packet &pkt, Cycle now)
{
    SAC_ASSERT(canAccept(), "push into a full DRAM channel");
    // Reads fetch a full line; writes/writebacks transfer the line's
    // payload. Either way the pin time is bytes / bandwidth.
    const double service = static_cast<double>(pkt.bytes) / bw;
    freeAt = std::max(freeAt, static_cast<double>(now)) + service;
    const Cycle done = static_cast<Cycle>(freeAt) + latency_;
    q.push_back({pkt, done});
    served += pkt.bytes;
}

bool
DramChannel::popReady(Packet &out, Cycle now)
{
    if (q.empty() || q.front().readyAt > now)
        return false;
    out = q.front().pkt;
    q.pop_front();
    return true;
}

Cycle
DramChannel::occupyBulk(std::uint64_t bytes, Cycle now)
{
    const double service = static_cast<double>(bytes) / bw;
    freeAt = std::max(freeAt, static_cast<double>(now)) + service;
    served += bytes;
    return static_cast<Cycle>(freeAt);
}

} // namespace sac
