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
      tagKeys_(numSets * static_cast<std::uint64_t>(ways), 0),
      lastUse_(tagKeys_.size(), 0),
      lines_(tagKeys_.size())
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
    // walks one row of packed keys.
    const std::uint64_t *keys = &tagKeys_[row];
    for (int w = 0; w < numWays; ++w) {
        if (keys[w] == key)
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
    lastUse_[i] = ++useClock;
    const std::uint32_t bit = 1u << sector;
    // A conventional line is valid in its one sector whenever its tag
    // is, so only sectored caches consult the cold masks on a read.
    if (sectorsPerLine != 1 && !(lines_[i].sectorValid & bit)) {
        res.sectorMiss = true;
        return res;
    }
    res.hit = true;
    if (is_write)
        markDirty(lines_[i], bit);
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
                               : (lines_[i].sectorValid & (1u << sector));
}

EvictResult
SetAssocCache::insert(Addr line_addr, unsigned sector, ChipId home,
                      bool dirty, int partition)
{
    SAC_ASSERT(partition == partitionLocal || partition == partitionRemote,
               "bad partition class ", partition);
    EvictResult res;
    const std::uint32_t bit = 1u << sector;
    const std::size_t row = rowOf(line_addr);
    const std::uint64_t key = keyOf(line_addr);

    if (const std::size_t i = findWay(row, key); i != npos) {
        // Sector fill into an already-present line.
        lines_[i].sectorValid |= bit;
        if (dirty)
            markDirty(lines_[i], bit);
        lastUse_[i] = ++useClock;
        return res;
    }

    const int first = partition == partitionLocal ? 0 : split;
    const int count = partition == partitionLocal ? split : numWays - split;
    SAC_ASSERT(count > 0, "allocation into an empty partition");

    // LRU victim within the partition's ways: the first invalid way,
    // else the first way with the smallest stamp.
    const std::uint64_t *keys = &tagKeys_[row];
    const std::uint64_t *stamps = &lastUse_[row];
    int victim = first;
    std::uint64_t oldest = ~0ull;
    for (int w = first; w < first + count; ++w) {
        if (keys[w] == 0) {
            victim = w;
            break;
        }
        if (stamps[w] < oldest) {
            oldest = stamps[w];
            victim = w;
        }
    }

    const std::size_t slot = row + static_cast<std::size_t>(victim);
    CacheLine &line = lines_[slot];
    if (tagKeys_[slot] != 0) {
        res.evicted = true;
        res.dirty = line.dirty;
        res.lineAddr = line.lineAddr;
        res.home = line.home;
        countRemove(line);
    }
    line.lineAddr = line_addr;
    line.home = home;
    line.sectorValid = sectorsPerLine == 1 ? 1u : bit;
    line.sectorDirty = dirty ? line.sectorValid : 0u;
    line.dirty = dirty;
    tagKeys_[slot] = key;
    lastUse_[slot] = ++useClock;
    countInsert(line);
    return res;
}

void
SetAssocCache::flushAll(const LineFn &writeback)
{
    flushIf([](const CacheLine &) { return true; }, writeback);
}

void
SetAssocCache::flushIf(const LinePred &pred, const LineFn &writeback)
{
    for (std::size_t i = 0; i < tagKeys_.size(); ++i) {
        const CacheLine &line = lines_[i];
        if (tagKeys_[i] == 0 || !pred(line))
            continue;
        if (line.dirty && writeback)
            writeback(line);
        countRemove(line);
        tagKeys_[i] = 0;
    }
}

bool
SetAssocCache::invalidate(Addr line_addr)
{
    const std::size_t i = findWay(rowOf(line_addr), keyOf(line_addr));
    if (i == npos)
        return false;
    countRemove(lines_[i]);
    tagKeys_[i] = 0;
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
SetAssocCache::markDirty(CacheLine &line, std::uint32_t bit)
{
    if (!line.dirty)
        ++dirtyCount_;
    line.dirty = true;
    line.sectorDirty |= bit;
}

void
SetAssocCache::countInsert(const CacheLine &line)
{
    ++validCount_;
    if (line.dirty)
        ++dirtyCount_;
    const std::size_t slot = static_cast<std::size_t>(line.home + 1);
    if (slot >= homeCount_.size())
        homeCount_.resize(slot + 1, 0);
    ++homeCount_[slot];
}

void
SetAssocCache::countRemove(const CacheLine &line)
{
    SAC_ASSERT(validCount_ > 0, "removing from an empty cache");
    --validCount_;
    if (line.dirty)
        --dirtyCount_;
    const std::size_t slot = static_cast<std::size_t>(line.home + 1);
    SAC_ASSERT(slot < homeCount_.size() && homeCount_[slot] > 0,
               "home count underflow for chip ", line.home);
    --homeCount_[slot];
}

} // namespace sac
