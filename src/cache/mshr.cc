#include "cache/mshr.hh"

#include "common/log.hh"

namespace sac {

MshrFile::MshrFile(std::size_t entries) : cap(entries), table(entries)
{
    SAC_ASSERT(cap > 0, "MSHR file needs at least one entry");
}

std::uint32_t
MshrFile::newTarget(const Packet &pkt)
{
    std::uint32_t i = freeHead;
    if (i != none) {
        freeHead = pool[i].next;
        pool[i] = {pkt, none};
        return i;
    }
    SAC_ASSERT(pool.size() < none, "MSHR target pool overflow");
    i = static_cast<std::uint32_t>(pool.size());
    pool.push_back({pkt, none});
    return i;
}

void
MshrFile::release(const Chain &chain, std::vector<Packet> &out)
{
    std::uint32_t i = chain.head;
    while (i != none) {
        Target &t = pool[i];
        out.push_back(t.pkt);
        const std::uint32_t next = t.next;
        t.next = freeHead;
        freeHead = i;
        i = next;
    }
}

MshrFile::Outcome
MshrFile::allocate(const Packet &pkt)
{
    const auto k = key(pkt.lineAddr, pkt.sector);
    if (Chain *chain = table.find(k)) {
        const std::uint32_t i = newTarget(pkt);
        pool[chain->tail].next = i;
        chain->tail = i;
        return Outcome::Merged;
    }
    if (table.size() >= cap)
        return Outcome::Full;
    const std::uint32_t i = newTarget(pkt);
    auto [chain, inserted] = table.emplace(k);
    SAC_ASSERT(inserted, "racing MSHR insert");
    *chain = {i, i};
    return Outcome::Primary;
}

bool
MshrFile::has(Addr line_addr, unsigned sector) const
{
    return table.contains(key(line_addr, sector));
}

void
MshrFile::complete(Addr line_addr, unsigned sector, std::vector<Packet> &out)
{
    const auto k = key(line_addr, sector);
    const Chain *chain = table.find(k);
    if (!chain)
        return;
    release(*chain, out);
    table.erase(k);
}

void
MshrFile::drainAll(std::vector<Packet> &out)
{
    table.forEach([&](std::uint64_t, Chain &c) { release(c, out); });
    table.clear();
    pool.clear();
    freeHead = none;
}

} // namespace sac
