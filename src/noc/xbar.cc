#include "noc/xbar.hh"

#include <algorithm>

#include "common/log.hh"

namespace sac {

Xbar::Xbar(int ports, double port_bw, Cycle latency)
{
    SAC_ASSERT(ports > 0, "crossbar needs at least one port");
    queues.reserve(static_cast<std::size_t>(ports));
    for (int p = 0; p < ports; ++p)
        queues.emplace_back(port_bw, latency);
}

Cycle
Xbar::nextEventCycle(Cycle now) const
{
    Cycle next = cycleNever;
    for (const auto &q : queues)
        next = std::min(next, q.nextEventCycle(now));
    return next;
}

std::size_t
Xbar::queued(int port) const
{
    return queues[static_cast<std::size_t>(port)].size();
}

std::uint64_t
Xbar::bytesDrained() const
{
    std::uint64_t total = 0;
    for (const auto &q : queues)
        total += q.bytesDrained();
    return total;
}

} // namespace sac
