/**
 * @file
 * Inter-chip interconnect (NVLink-style).
 *
 * Each chip has an aggregate egress bandwidth budget (its share of
 * the ring's links); packets arrive at the destination chip after a
 * fixed hop latency. The paper's ring with 3 links between each pair
 * is abstracted to all-to-all connectivity with a per-chip aggregate
 * budget — the quantity the EAB model's B_inter term describes.
 */

#ifndef SAC_NOC_INTERCHIP_HH
#define SAC_NOC_INTERCHIP_HH

#include <vector>

#include "common/ring.hh"
#include "common/types.hh"
#include "noc/queue.hh"

namespace sac {

/** All-to-all inter-chip network with per-chip egress budgets. */
class InterChipNet
{
  public:
    /**
     * @param num_chips chip count
     * @param egress_bw bytes/cycle each chip may inject
     * @param latency hop latency in cycles
     */
    InterChipNet(int num_chips, double egress_bw, Cycle latency);

    /** Sends @p pkt from @p src to @p dst (src != dst). */
    void send(ChipId src, ChipId dst, Packet pkt, Cycle now);

    /**
     * No-op, kept for callers written against the per-cycle refill
     * protocol: egress credit now refills lazily (see Credit).
     */
    void beginCycle() {}

    /**
     * Moves packets whose egress bandwidth and latency allow into the
     * per-destination arrival queues. Call once per cycle after
     * producers have pushed.
     */
    void tick(Cycle now);

    /** Pops the next packet that has arrived at chip @p dst by @p now. */
    bool receive(ChipId dst, Packet &out, Cycle now);

    /**
     * Earliest cycle the network might move or deliver a packet:
     * egress queues per the BwQueue contract, inboxes at their
     * front's arrival time. cycleNever when fully drained.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Total bytes that crossed chip boundaries. */
    std::uint64_t bytesTransferred() const { return bytes; }

    /**
     * Cumulative egress bytes per source chip. Telemetry derives the
     * per-epoch peak link utilization (traffic skew) from the deltas.
     */
    const std::vector<std::uint64_t> &
    bytesBySource() const
    {
        return bytesBySrc;
    }

    /** Packets currently in flight or queued. */
    std::size_t inFlight() const;

  private:
    struct Arrival
    {
        Packet pkt;
        Cycle at;
    };

    int chips;
    Cycle latency_;
    /** Per source chip. */
    std::vector<BwQueue> egress;
    /** Per destination chip. */
    std::vector<Ring<Arrival>> inbox;
    std::uint64_t bytes = 0;
    /** Per source chip. */
    std::vector<std::uint64_t> bytesBySrc;
};

} // namespace sac

#endif // SAC_NOC_INTERCHIP_HH
