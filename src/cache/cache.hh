/**
 * @file
 * Set-associative cache array with way partitioning and optional
 * sectored lines.
 *
 * This is the tag/state model shared by the per-cluster L1s and the
 * LLC slices. It knows nothing about networks or organizations; the
 * LLC slice layers bypass/partition policy on top.
 *
 * Way partitioning supports the Static (L1.5) and Dynamic baselines:
 * partition class 0 allocates in ways [0, split) and class 1 in
 * [split, ways). Lookups always search every way, so moving the split
 * never loses data — lines left stranded in the other class's ways
 * simply age out.
 */

#ifndef SAC_CACHE_CACHE_HH
#define SAC_CACHE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"

namespace sac {

/** Allocation partition classes. */
constexpr int partitionLocal = 0;
constexpr int partitionRemote = 1;

/**
 * Cold metadata of one resident line. Tag and recency live in the
 * cache's hot per-way arrays; this record is only touched by write
 * hits, fills, evictions, flushes and sectored lookups, and is the
 * view the flushIf/flushAll callbacks receive.
 */
struct CacheLine
{
    Addr lineAddr = 0;
    /** Home chip of the line (writeback destination for replicas). */
    ChipId home = invalidChip;
    /** Bitmask of valid sectors (all set for conventional caches). */
    std::uint32_t sectorValid = 0;
    /** Bitmask of dirty sectors. */
    std::uint32_t sectorDirty = 0;
    bool dirty = false;
};

/** Outcome of a cache access. */
struct CacheAccessResult
{
    /** Tag matched and the requested sector was valid. */
    bool hit = false;
    /** Tag matched but the sector was missing (sectored caches). */
    bool sectorMiss = false;
};

/** Outcome of a fill/insert: the victim, if one was displaced. */
struct EvictResult
{
    bool evicted = false;
    bool dirty = false;
    Addr lineAddr = 0;
    ChipId home = invalidChip;
};

/**
 * Tag array with LRU replacement, optional sectoring and a two-class
 * way partition.
 *
 * The per-way state is a struct of arrays indexed set * ways + way.
 * The hot arrays are the ones every lookup walks: the packed tag key
 * and the LRU stamp, 16 bytes per way, so a probe of a 16-way LLC
 * set touches two host cache lines of keys and a hit one more for
 * its stamp. Everything else sits in the cold CacheLine array.
 */
class SetAssocCache
{
  public:
    /**
     * @param bytes total capacity
     * @param ways associativity
     * @param line_bytes line size
     * @param sectors_per_line 1 for conventional caches
     */
    SetAssocCache(std::uint64_t bytes, int ways, unsigned line_bytes,
                  unsigned sectors_per_line = 1);

    /**
     * Looks up @p line_addr / @p sector, updating recency on a tag
     * match and marking dirtiness for writes that hit.
     */
    CacheAccessResult access(Addr line_addr, unsigned sector, bool is_write);

    /** Lookup without any state change. */
    bool probe(Addr line_addr, unsigned sector) const;

    /**
     * Installs (or completes the sector of) @p line_addr into
     * partition @p partition, evicting a victim from that partition's
     * ways if needed: the first invalid way, else the least recently
     * used one.
     *
     * @param home home chip recorded for writeback routing
     * @param dirty install in dirty state (write allocation)
     */
    EvictResult insert(Addr line_addr, unsigned sector, ChipId home,
                       bool dirty, int partition);

    /** Callback over a resident line (flush writebacks). */
    using LineFn = std::function<void(const CacheLine &)>;
    /** Predicate over a resident line (flush selection). */
    using LinePred = std::function<bool(const CacheLine &)>;

    /**
     * Invalidates every line, returning dirty lines through
     * @p writeback (if provided) before dropping them.
     */
    void flushAll(const LineFn &writeback = {});

    /**
     * Invalidates lines matching @p pred (e.g., "home != this chip"),
     * reporting dirty ones through @p writeback first.
     */
    void flushIf(const LinePred &pred, const LineFn &writeback = {});

    /** Invalidates one line if present; returns true when it was. */
    bool invalidate(Addr line_addr);

    /** Moves the class-0/class-1 way split (Dynamic LLC). */
    void setWaySplit(int local_ways);
    int waySplit() const { return split; }

    int ways() const { return numWays; }
    std::uint64_t sets() const { return numSets; }
    unsigned sectors() const { return sectorsPerLine; }
    std::uint64_t
    capacityBytes() const
    {
        return numSets * static_cast<std::uint64_t>(numWays) * lineBytes;
    }

    /** Valid lines currently resident. O(1): counters are maintained
     *  incrementally at every insert/evict/invalidate/flush, so the
     *  occupancy sampler never scans the array. */
    std::uint64_t validLines() const { return validCount_; }
    /** Dirty lines currently resident. O(1), see validLines(). */
    std::uint64_t dirtyLines() const { return dirtyCount_; }
    /** Valid lines whose recorded home differs from @p chip. O(1). */
    std::uint64_t
    remoteLines(ChipId chip) const
    {
        return validCount_ - homeCount(chip);
    }

    /** Set index for an address (exposed for the CRD's sampling). */
    std::uint64_t setIndex(Addr line_addr) const;

  private:
    static constexpr std::size_t npos = ~std::size_t(0);

    /** First per-way index of @p line_addr's set. */
    std::size_t
    rowOf(Addr line_addr) const
    {
        return static_cast<std::size_t>(setIndex(line_addr)) *
               static_cast<std::size_t>(numWays);
    }
    /** Per-way index holding @p key in the set at @p row, or npos. */
    std::size_t findWay(std::size_t row, std::uint64_t key) const;
    /** Packed probe key for a line: (tag << 1) | valid. */
    std::uint64_t
    keyOf(Addr line_addr) const
    {
        return (static_cast<std::uint64_t>(line_addr >> lineShift) << 1) |
               1u;
    }

    /** Sets @p bit dirty in @p line, counting a newly dirty line. */
    void markDirty(CacheLine &line, std::uint32_t bit);
    /** Counter bookkeeping for a line entering the valid set. */
    void countInsert(const CacheLine &line);
    /** Counter bookkeeping for a valid line leaving the array. */
    void countRemove(const CacheLine &line);
    /** Resident-line count for one home chip (slot 0 = invalidChip). */
    std::uint64_t
    homeCount(ChipId home) const
    {
        const std::size_t slot = static_cast<std::size_t>(home + 1);
        return slot < homeCount_.size() ? homeCount_[slot] : 0;
    }

    std::uint64_t numSets;
    int numWays;
    unsigned lineBytes;
    unsigned lineShift;
    unsigned sectorsPerLine;
    int split; // ways [0, split) = class 0, [split, ways) = class 1
    std::uint64_t useClock = 0;
    /** Hot: packed tag key per way; 0 means invalid. */
    std::vector<std::uint64_t> tagKeys_;
    /** Hot: LRU stamp per way (useClock at the last touch). */
    std::vector<std::uint64_t> lastUse_;
    /** Cold: the rest of each way's metadata; meaningful while valid. */
    std::vector<CacheLine> lines_;
    std::uint64_t validCount_ = 0;
    std::uint64_t dirtyCount_ = 0;
    /** Valid lines per home chip, indexed by home + 1 (invalidChip
     *  lands in slot 0); grown on demand. */
    std::vector<std::uint64_t> homeCount_;
};

} // namespace sac

#endif // SAC_CACHE_CACHE_HH
