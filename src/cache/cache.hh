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

#include "common/log.hh"
#include "common/types.hh"

namespace sac {

/** Allocation partition classes. */
constexpr int partitionLocal = 0;
constexpr int partitionRemote = 1;

/**
 * A resident line as the flushIf/flushAll callbacks see it: a
 * by-value view assembled from the line's way record (and, on a
 * sectored cache, its sector masks).
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
 * Each way is one 16-byte Way record indexed set * ways + way: the
 * packed tag key, the LRU stamp, the home chip and the dirty bit. A
 * lookup, a hit's stamp update and a fill's victim scan all stay in
 * the set's own row (four host cache lines for a 16-way LLC set).
 * Only sectored caches allocate the side array of sector masks.
 *
 * Line addresses are line-aligned: a line's address is recovered
 * from its tag key.
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

    /** LRU stamps are 48 bits wide. A cache whose clock would pass
     *  this bound fails an assert rather than wrap silently. */
    static constexpr std::uint64_t maxStamp = (std::uint64_t{1} << 48) - 1;

    /** Moves the LRU clock forward to @p clock (the next touch stamps
     *  clock + 1). Lets tests reach the stamp bound; never moves back. */
    void advanceLruClock(std::uint64_t clock);

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

    /** One way's state. key == 0 means the way is invalid; the other
     *  fields are meaningful only while it is valid. */
    struct Way
    {
        /** Packed probe key: (tag << 1) | 1. */
        std::uint64_t key;
        /** LRU stamp: useClock at the last touch. */
        std::uint64_t stamp : 48;
        /** Home chip + 1 (0 = invalidChip); numChips <= 16. */
        std::uint64_t homePlus1 : 8;
        std::uint64_t dirty : 1;
    };
    static_assert(sizeof(Way) == 16, "Way outgrew its 16-byte budget");

    /** Valid and dirty sector bitmasks of one way (sectored caches). */
    struct SectorMasks
    {
        std::uint32_t valid;
        std::uint32_t dirty;
    };

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
    /** The flush callbacks' view of the valid way @p i. */
    CacheLine lineAt(std::size_t i) const;
    /** The next LRU stamp. */
    std::uint64_t
    nextStamp()
    {
        SAC_ASSERT(useClock < maxStamp, "LRU clock passed the 48-bit bound");
        return ++useClock;
    }

    /** Sets @p bit dirty in way @p i, counting a newly dirty line. */
    void markDirty(std::size_t i, std::uint32_t bit);
    /** Counter bookkeeping for a way entering the valid set. */
    void countInsert(const Way &way);
    /** Counter bookkeeping for a valid way leaving the array. */
    void countRemove(const Way &way);
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
    /** Per-way records, set * ways + way. */
    std::vector<Way> ways_;
    /** Per-way sector masks; empty unless sectorsPerLine > 1. */
    std::vector<SectorMasks> sectors_;
    std::uint64_t validCount_ = 0;
    std::uint64_t dirtyCount_ = 0;
    /** Valid lines per home chip, indexed by home + 1 (invalidChip
     *  lands in slot 0); grown on demand. */
    std::vector<std::uint64_t> homeCount_;
};

} // namespace sac

#endif // SAC_CACHE_CACHE_HH
