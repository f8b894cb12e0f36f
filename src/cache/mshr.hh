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
 * a new target reuses the record freed last. A fill walks its chain
 * in place: complete() hands each target packet to a callback while
 * freeing its record, so no packet is copied on the way to its waiter.
 */

#ifndef SAC_CACHE_MSHR_HH
#define SAC_CACHE_MSHR_HH

#include <cstddef>
#include <cstdint>
#include <utility>
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
     * Completes the miss: erases the entry, then calls
     * @p fn(const Packet &) on each coalesced target in allocation
     * order, freeing each target's record as it goes. Returns the
     * number of targets visited; 0 if no entry exists (e.g., a bulk
     * flush already drained it). @p fn must not allocate into this
     * file: the packet it sees lives in a record already freed.
     */
    template <typename Fn>
    std::size_t
    complete(Addr line_addr, unsigned sector, Fn &&fn)
    {
        const auto k = key(line_addr, sector);
        const Chain *chain = table.find(k);
        if (!chain)
            return 0;
        const std::uint32_t head = chain->head;
        table.erase(k);
        return release(head, std::forward<Fn>(fn));
    }

    /**
     * complete() appending the targets to @p out (which is not cleared
     * first).
     */
    void
    complete(Addr line_addr, unsigned sector, std::vector<Packet> &out)
    {
        complete(line_addr, sector,
                 [&out](const Packet &pkt) { out.push_back(pkt); });
    }

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

    /**
     * Frees the chain starting at pool index @p head, record by
     * record in chain order, handing each packet to @p fn right after
     * its record joins the free list. Returns the chain's length.
     */
    template <typename Fn>
    std::size_t
    release(std::uint32_t head, Fn &&fn)
    {
        walking_ = true;
        std::size_t n = 0;
        for (std::uint32_t i = head; i != none; ++n) {
            Target &t = pool[i];
            const std::uint32_t next = t.next;
            t.next = freeHead;
            freeHead = i;
            fn(std::as_const(t.pkt));
            i = next;
        }
        walking_ = false;
        return n;
    }

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
    /** A release() is handing out packets (allocate() must not run). */
    bool walking_ = false;
};

} // namespace sac

#endif // SAC_CACHE_MSHR_HH
