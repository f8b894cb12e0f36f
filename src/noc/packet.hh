/**
 * @file
 * The unit of transfer in the on-chip and inter-chip networks.
 *
 * A Packet is created when an SM cluster misses its L1 and is
 * destroyed when the response wakes the warp (reads) or when the
 * write ack returns (writes). The routing policy of the active LLC
 * organization fills in the serve/bypass fields (see Fig. 6 of the
 * paper: SL/ML/SR/MR miss paths).
 */

#ifndef SAC_NOC_PACKET_HH
#define SAC_NOC_PACKET_HH

#include <cstdint>

#include "common/types.hh"

namespace sac {

/** Where a response was ultimately served from (Fig. 10 breakdown). */
enum class ResponseOrigin : std::uint8_t
{
    None,
    LocalLlc,  //!< LLC slice in the requesting chip
    RemoteLlc, //!< LLC slice in another chip
    LocalMem,  //!< DRAM partition attached to the requesting chip
    RemoteMem, //!< DRAM partition of another chip
};

/** Returns a short name for a response origin. */
const char *toString(ResponseOrigin origin);

/** Network message kinds. */
enum class PacketKind : std::uint8_t
{
    Request,    //!< L1-miss read or write travelling toward data
    Response,   //!< data fill / write ack travelling back to the SM
    Writeback,  //!< dirty LLC line being written to a memory partition
    Invalidate, //!< hardware-coherence invalidation to a sharer chip
};

/**
 * A memory transaction in flight. Packets are small PODs passed by
 * value through the bandwidth-limited queues, MSHR target lists and
 * chip hand-offs, so the fields are ordered by size and the topology
 * ids are stored narrow (PackedChipId, PackedIndex): the record fits
 * in 56 bytes, and a queue entry (packet plus ready cycle) in one
 * 64-byte host cache line.
 */
struct Packet
{
    /** Unique id, for MSHR matching and debugging. */
    std::uint64_t id = 0;
    /** Line-aligned physical address. */
    Addr lineAddr = 0;
    /** Cycle the originating access was issued (latency stats). */
    Cycle issued = 0;

    /** NoC bytes this packet occupies on a link. */
    unsigned bytes = 32;

    /** Requesting SM cluster and warp. */
    PackedIndex srcCluster = -1;
    PackedIndex warp = -1;
    /** Slice index within serveChip. */
    PackedIndex slice = -1;
    /** Kernel stream of the requesting cluster (0 = legacy). */
    std::int16_t stream = 0;

    /** Chip of the requesting SM cluster. */
    PackedChipId srcChip = invalidChip;
    /** Chip owning the page (first-touch home). */
    PackedChipId homeChip = invalidChip;
    /** Chip whose LLC slice serves the request (routing decision). */
    PackedChipId serveChip = invalidChip;
    /** Next chip this packet is travelling to on the inter-chip net. */
    PackedChipId nocDst = invalidChip;
    /** Chip that produced the response data (slice or DRAM). */
    PackedChipId dataChip = invalidChip;

    PacketKind kind = PacketKind::Request;
    AccessType type = AccessType::Read;
    /** Sector index within the line (sectored-cache design point). */
    std::uint8_t sector = 0;
    /** Way-partition class the serve slice must allocate into. */
    std::int8_t allocPartition = 0;
    std::int8_t homeAllocPartition = 0;
    /** Filled in on the response path. */
    ResponseOrigin origin = ResponseOrigin::None;

    /**
     * True when the packet must bypass the LLC of the chip it is
     * heading to (SM-side remote miss arriving at the home chip,
     * Fig. 6 step 4).
     */
    bool bypassLlc = false;
    /** Second-level lookup at the home slice on a src-slice miss. */
    bool homeLookup = false;
    /**
     * True while the packet is executing the home-side leg of a
     * two-level (Static/Dynamic) lookup.
     */
    bool atHome = false;
    /** The home-side fill/lookup has completed. */
    bool homeFilled = false;
    /** The serve-side (requester-side) fill has completed. */
    bool serveFilled = false;
    /** Response payload source: true when DRAM produced the data. */
    bool dataFromMem = false;
    /** True when the request crossed an inter-chip link at least once. */
    bool crossedInterChip = false;

    /** True iff this request came from a chip other than @p chip. */
    bool remoteTo(ChipId chip) const { return srcChip != chip; }
};

static_assert(sizeof(Packet) <= 56, "Packet outgrew its 56-byte budget");

} // namespace sac

#endif // SAC_NOC_PACKET_HH
