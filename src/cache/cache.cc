#include "cache/cache.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace sac {

SetAssocCache::SetAssocCache(std::uint64_t bytes, int ways,
                             unsigned line_bytes, unsigned sectors_per_line)
    : numSets(bytes / (static_cast<std::uint64_t>(ways) * line_bytes)),
      numWays(ways),
      lineBytes(line_bytes),
      lineShift(floorLog2(line_bytes)),
      sectorsPerLine(sectors_per_line),
      split(ways),
      ways_(numSets * static_cast<std::uint64_t>(ways), Way{}),
      sectors_(sectors_per_line > 1 ? ways_.size() : 0, SectorMasks{})
{
    SAC_ASSERT(numSets > 0, "cache has zero sets");
    SAC_ASSERT(isPowerOfTwo(numSets), "set count must be a power of two");
    SAC_ASSERT(sectorsPerLine >= 1 && sectorsPerLine <= 32,
               "unsupported sector count");
}

std::uint64_t
SetAssocCache::setIndex(Addr line_addr) const
{
    // Hash the index so synthetic strided footprints spread across
    // sets the way PAE-mapped real addresses would. The salt
    // decorrelates this hash from the slice-selection hash in
    // AddressMap (identical hashes would strand 1/slices of the sets,
    // because slice selection already fixed the low hash bits).
    return mix64((line_addr >> lineShift) ^ 0x5bd1e995bd1eULL) &
           (numSets - 1);
}

std::size_t
SetAssocCache::findWay(std::size_t row, std::uint64_t key) const
{
    // The hottest loop in the simulator: every L1 and LLC access
    // walks one row of way records.
    const Way *way = &ways_[row];
    for (int w = 0; w < numWays; ++w) {
        if (way[w].key == key)
            return row + static_cast<std::size_t>(w);
    }
    return npos;
}

CacheAccessResult
SetAssocCache::access(Addr line_addr, unsigned sector, bool is_write)
{
    SAC_ASSERT(sector < sectorsPerLine, "sector out of range");
    CacheAccessResult res;
    const std::size_t i = findWay(rowOf(line_addr), keyOf(line_addr));
    if (i == npos)
        return res;
    ways_[i].stamp = nextStamp();
    const std::uint32_t bit = 1u << sector;
    // A conventional line is valid in its one sector whenever its tag
    // is, so only sectored caches keep sector masks.
    if (sectorsPerLine != 1 && !(sectors_[i].valid & bit)) {
        res.sectorMiss = true;
        return res;
    }
    res.hit = true;
    if (is_write)
        markDirty(i, bit);
    return res;
}

bool
SetAssocCache::probe(Addr line_addr, unsigned sector) const
{
    const std::size_t i = findWay(rowOf(line_addr), keyOf(line_addr));
    if (i == npos)
        return false;
    // As in access(): a conventional line holds exactly sector 0.
    return sectorsPerLine == 1 ? sector == 0
                               : (sectors_[i].valid & (1u << sector));
}

EvictResult
SetAssocCache::insert(Addr line_addr, unsigned sector, ChipId home,
                      bool dirty, int partition)
{
    SAC_ASSERT(partition == partitionLocal || partition == partitionRemote,
               "bad partition class ", partition);
    SAC_ASSERT(home >= invalidChip && home < 255, "home chip ", home,
               " does not fit the way record");
    EvictResult res;
    const std::uint32_t bit = 1u << sector;
    const std::size_t row = rowOf(line_addr);
    const std::uint64_t key = keyOf(line_addr);

    if (const std::size_t i = findWay(row, key); i != npos) {
        // Sector fill into an already-present line.
        if (sectorsPerLine != 1)
            sectors_[i].valid |= bit;
        if (dirty)
            markDirty(i, bit);
        ways_[i].stamp = nextStamp();
        return res;
    }

    const int first = partition == partitionLocal ? 0 : split;
    const int count = partition == partitionLocal ? split : numWays - split;
    SAC_ASSERT(count > 0, "allocation into an empty partition");

    // LRU victim within the partition's ways: the first invalid way,
    // else the first way with the smallest stamp.
    const Way *ways = &ways_[row];
    int victim = first;
    std::uint64_t oldest = ~0ull;
    for (int w = first; w < first + count; ++w) {
        if (ways[w].key == 0) {
            victim = w;
            break;
        }
        if (ways[w].stamp < oldest) {
            oldest = ways[w].stamp;
            victim = w;
        }
    }

    const std::size_t slot = row + static_cast<std::size_t>(victim);
    Way &way = ways_[slot];
    if (way.key != 0) {
        const CacheLine victimLine = lineAt(slot);
        res.evicted = true;
        res.dirty = victimLine.dirty;
        res.lineAddr = victimLine.lineAddr;
        res.home = victimLine.home;
        countRemove(way);
    }
    way.key = key;
    way.stamp = nextStamp();
    way.homePlus1 = static_cast<std::uint64_t>(home + 1);
    way.dirty = dirty;
    if (sectorsPerLine != 1)
        sectors_[slot] = {bit, dirty ? bit : 0u};
    countInsert(way);
    return res;
}

CacheLine
SetAssocCache::lineAt(std::size_t i) const
{
    const Way &way = ways_[i];
    CacheLine line;
    line.lineAddr = (way.key >> 1) << lineShift;
    line.home = static_cast<ChipId>(way.homePlus1) - 1;
    line.dirty = way.dirty;
    if (sectorsPerLine == 1) {
        line.sectorValid = 1u;
        line.sectorDirty = way.dirty ? 1u : 0u;
    } else {
        line.sectorValid = sectors_[i].valid;
        line.sectorDirty = sectors_[i].dirty;
    }
    return line;
}

void
SetAssocCache::flushAll(const LineFn &writeback)
{
    flushIf([](const CacheLine &) { return true; }, writeback);
}

void
SetAssocCache::flushIf(const LinePred &pred, const LineFn &writeback)
{
    for (std::size_t i = 0; i < ways_.size(); ++i) {
        if (ways_[i].key == 0)
            continue;
        const CacheLine line = lineAt(i);
        if (!pred(line))
            continue;
        if (line.dirty && writeback)
            writeback(line);
        countRemove(ways_[i]);
        ways_[i].key = 0;
    }
}

bool
SetAssocCache::invalidate(Addr line_addr)
{
    const std::size_t i = findWay(rowOf(line_addr), keyOf(line_addr));
    if (i == npos)
        return false;
    countRemove(ways_[i]);
    ways_[i].key = 0;
    return true;
}

void
SetAssocCache::setWaySplit(int local_ways)
{
    SAC_ASSERT(local_ways >= 0 && local_ways <= numWays,
               "way split out of range");
    split = local_ways;
}

void
SetAssocCache::advanceLruClock(std::uint64_t clock)
{
    SAC_ASSERT(clock >= useClock && clock <= maxStamp,
               "LRU clock may only move forward within the stamp bound");
    useClock = clock;
}

void
SetAssocCache::markDirty(std::size_t i, std::uint32_t bit)
{
    Way &way = ways_[i];
    if (!way.dirty)
        ++dirtyCount_;
    way.dirty = true;
    if (sectorsPerLine != 1)
        sectors_[i].dirty |= bit;
}

void
SetAssocCache::countInsert(const Way &way)
{
    ++validCount_;
    if (way.dirty)
        ++dirtyCount_;
    const std::size_t homeSlot = way.homePlus1;
    if (homeSlot >= homeCount_.size())
        homeCount_.resize(homeSlot + 1, 0);
    ++homeCount_[homeSlot];
}

void
SetAssocCache::countRemove(const Way &way)
{
    SAC_ASSERT(validCount_ > 0, "removing from an empty cache");
    --validCount_;
    if (way.dirty)
        --dirtyCount_;
    const std::size_t homeSlot = way.homePlus1;
    SAC_ASSERT(homeSlot < homeCount_.size() && homeCount_[homeSlot] > 0,
               "home count underflow for chip ",
               static_cast<ChipId>(homeSlot) - 1);
    --homeCount_[homeSlot];
}

} // namespace sac
