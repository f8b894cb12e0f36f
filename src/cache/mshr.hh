/**
 * @file
 * Miss Status Holding Registers.
 *
 * Coalesces concurrent misses to the same line so one fill satisfies
 * every waiting requester — essential for truly shared hot lines,
 * where dozens of clusters miss on the same address in the same
 * window.
 *
 * The file is allocation-free in steady state. Entries live in a flat
 * open-addressing table (ProbeMap) of {head, tail} chains over one
 * per-file target pool: 64-byte records of a packet and the link to
 * the next target of its entry. Freed records go on a LIFO free list,
 * so the pool stops growing at the file's high-water target count and
 * a new target reuses the record freed last. complete()/drainAll()
 * append into a caller-owned buffer instead of returning a fresh
 * vector per fill.
 */

#ifndef SAC_CACHE_MSHR_HH
#define SAC_CACHE_MSHR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/probe_map.hh"
#include "common/types.hh"
#include "noc/packet.hh"

namespace sac {

/** MSHR file keyed by (line address, sector). */
class MshrFile
{
  public:
    /** @param entries maximum distinct outstanding line-sector misses. */
    explicit MshrFile(std::size_t entries);

    /**
     * Result of allocate(): whether this miss is the first for its
     * line (must be sent downstream) or merged into an existing entry.
     */
    enum class Outcome { Primary, Merged, Full };

    /** Registers a missing request; the packet is retained as a target. */
    Outcome allocate(const Packet &pkt);

    /** True when a miss for this line-sector is already outstanding. */
    bool has(Addr line_addr, unsigned sector) const;

    /**
     * Completes the miss, appending all coalesced target packets to
     * @p out (which is not cleared first) in allocation order and
     * freeing the entry.
     * Appends nothing if no entry exists (e.g., a bulk flush already
     * drained it).
     */
    void complete(Addr line_addr, unsigned sector, std::vector<Packet> &out);

    /**
     * Drops every entry, appending all pending targets to @p out:
     * entry by entry in table slot order, each in allocation order.
     */
    void drainAll(std::vector<Packet> &out);

    std::size_t inUse() const { return table.size(); }
    std::size_t capacity() const { return cap; }
    bool full() const { return table.size() >= cap; }
    /** Target records the pool holds, live or free (its high-water
     *  mark since construction or the last drainAll()). */
    std::size_t targetPoolSize() const { return pool.size(); }

  private:
    static constexpr std::uint32_t none = ~std::uint32_t(0);

    /** One coalesced target and the link to the next of its entry. */
    struct Target
    {
        Packet pkt;
        std::uint32_t next;
    };
    static_assert(sizeof(Target) <= 64, "Target outgrew a host line");

    /** An entry's targets: pool indices of the first and last. */
    struct Chain
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** Stores @p pkt in a free (or new) pool record; returns its index. */
    std::uint32_t newTarget(const Packet &pkt);
    /** Appends @p chain's packets to @p out and frees its records. */
    void release(const Chain &chain, std::vector<Packet> &out);

    static std::uint64_t
    key(Addr line_addr, unsigned sector)
    {
        return line_addr ^ (static_cast<std::uint64_t>(sector) << 58);
    }

    std::size_t cap;
    ProbeMap<Chain> table;
    std::vector<Target> pool;
    /** Head of the free list threaded through Target::next. */
    std::uint32_t freeHead = none;
};

} // namespace sac

#endif // SAC_CACHE_MSHR_HH
