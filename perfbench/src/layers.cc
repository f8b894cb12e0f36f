/**
 * @file
 * Layer replays: an access stream recorded from a workload job
 * through TimedTraceSource, replayed through one layer at a time at
 * the geometry of the job's GpuConfig. Each replay reports host ns per
 * call, the repeatable replacement for one-off profiler shares.
 *
 * The replays model no timing; they only feed each layer the call mix
 * it sees in a run: every access probes an L1, L1 misses probe an LLC
 * slice and hold an MSHR, every access touches the page table, misses
 * to a remote home cross the inter-chip network and every miss is
 * served by a DRAM channel.
 */

#include <algorithm>
#include <deque>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "harness.hh"
#include "mem/dram.hh"
#include "mem/page_table.hh"
#include "noc/interchip.hh"

namespace perfbench {

using namespace sac;

namespace {

/** Timing repetitions per replay; the median is reported. */
constexpr int replayReps = 5;

double
nsPer(Clock::time_point t0, std::size_t calls)
{
    return calls ? std::chrono::duration<double, std::nano>(Clock::now() - t0)
                           .count() /
                       static_cast<double>(calls)
                 : 0.0;
}

Packet
missPacket(const RecordedAccess &a, std::uint64_t id)
{
    Packet p;
    p.id = id;
    p.type = a.write ? AccessType::Write : AccessType::Read;
    p.lineAddr = a.lineAddr;
    p.sector = a.sector;
    p.srcChip = a.chip;
    return p;
}

/** SetAssocCache::access (+ insert on a miss) per access. */
double
cacheNs(const std::vector<RecordedAccess> &stream, std::uint64_t bytes,
        int ways, const GpuConfig &cfg)
{
    SetAssocCache cache(bytes, ways, cfg.lineBytes, cfg.sectorsPerLine);
    const auto t0 = Clock::now();
    for (const auto &a : stream) {
        if (!cache.access(a.lineAddr, a.sector, a.write).hit)
            cache.insert(a.lineAddr, a.sector, a.chip, a.write,
                         partitionLocal);
    }
    return nsPer(t0, stream.size());
}

/** MshrFile::allocate/complete per call, a window of misses in flight. */
double
mshrNs(const std::vector<RecordedAccess> &misses, const GpuConfig &cfg)
{
    MshrFile mshrs(static_cast<std::size_t>(cfg.sliceMshrs));
    std::deque<Packet> primaries;
    std::vector<Packet> woken;
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    std::uint64_t id = 0;
    for (const auto &a : misses) {
        const Packet p = missPacket(a, ++id);
        auto outcome = mshrs.allocate(p);
        ++calls;
        while (outcome == MshrFile::Outcome::Full) {
            const Packet &old = primaries.front();
            mshrs.complete(old.lineAddr, old.sector, woken);
            primaries.pop_front();
            woken.clear();
            outcome = mshrs.allocate(p);
            calls += 2;
        }
        if (outcome == MshrFile::Outcome::Primary)
            primaries.push_back(p);
    }
    for (const auto &p : primaries) {
        mshrs.complete(p.lineAddr, p.sector, woken);
        woken.clear();
        ++calls;
    }
    return nsPer(t0, calls);
}

/** PageTable::touch per access. */
double
pageNs(const std::vector<RecordedAccess> &stream, const GpuConfig &cfg)
{
    PageTable pages(cfg.pageBytes, cfg.numChips);
    const auto t0 = Clock::now();
    for (const auto &a : stream)
        pages.touch(a.lineAddr, a.chip);
    return nsPer(t0, stream.size());
}

/**
 * InterChipNet send + per-cycle beginCycle/tick + receive, per packet.
 * Each source injects at most one packet per cycle.
 */
double
icnNs(const std::vector<std::pair<RecordedAccess, ChipId>> &remote,
      const GpuConfig &cfg)
{
    InterChipNet icn(cfg.numChips, cfg.interChipBw, cfg.interChipLatency);
    std::vector<std::deque<Packet>> pending(
        static_cast<std::size_t>(cfg.numChips));
    std::uint64_t id = 0;
    for (const auto &[a, home] : remote) {
        Packet p = missPacket(a, ++id);
        p.bytes = cfg.lineBytes;
        p.homeChip = home;
        pending[static_cast<std::size_t>(a.chip)].push_back(p);
    }
    std::size_t received = 0;
    Packet out;
    const auto t0 = Clock::now();
    for (Cycle now = 0; received < remote.size(); ++now) {
        for (auto &q : pending) {
            if (!q.empty()) {
                icn.send(q.front().srcChip, q.front().homeChip, q.front(),
                         now);
                q.pop_front();
            }
        }
        icn.beginCycle();
        icn.tick(now);
        for (ChipId c = 0; c < cfg.numChips; ++c)
            while (icn.receive(c, out, now))
                ++received;
    }
    return nsPer(t0, remote.size());
}

/** DramChannel::push + popReady per packet, queue kept full. */
double
dramNs(const std::vector<RecordedAccess> &misses, const GpuConfig &cfg)
{
    DramChannel ch(cfg.dramChannelBw, cfg.dramLatency,
                   static_cast<std::size_t>(cfg.memQueueDepth));
    std::size_t sent = 0;
    std::size_t done = 0;
    Packet out;
    const auto t0 = Clock::now();
    for (Cycle now = 0; done < misses.size(); ++now) {
        while (sent < misses.size() && ch.canAccept()) {
            Packet p = missPacket(misses[sent], sent);
            p.bytes = cfg.lineBytes;
            ch.push(p, now);
            ++sent;
        }
        while (ch.popReady(out, now))
            ++done;
    }
    return nsPer(t0, misses.size());
}

template <typename Fn>
double
medianOf(Fn &&fn)
{
    std::vector<double> v;
    for (int r = 0; r < replayReps; ++r)
        v.push_back(fn());
    return median(std::move(v));
}

} // namespace

void
layerReplay(const std::vector<RecordedAccess> &accesses,
            const GpuConfig &cfg, Metrics &out)
{
    // Derive the miss and remote streams once, untimed.
    std::vector<RecordedAccess> misses;
    {
        SetAssocCache l1(cfg.l1BytesPerCluster, cfg.l1Ways, cfg.lineBytes,
                         cfg.sectorsPerLine);
        for (const auto &a : accesses) {
            if (!l1.access(a.lineAddr, a.sector, a.write).hit) {
                l1.insert(a.lineAddr, a.sector, a.chip, a.write,
                          partitionLocal);
                misses.push_back(a);
            }
        }
    }
    std::vector<std::pair<RecordedAccess, ChipId>> remote;
    {
        PageTable pages(cfg.pageBytes, cfg.numChips);
        for (const auto &a : misses) {
            const ChipId home = pages.touch(a.lineAddr, a.chip);
            if (home != a.chip)
                remote.push_back({a, home});
        }
    }

    out.add("cache.l1_access_ns", medianOf([&] {
                return cacheNs(accesses, cfg.l1BytesPerCluster, cfg.l1Ways,
                               cfg);
            }),
            "ns");
    out.add("cache.llc_access_ns", medianOf([&] {
                return cacheNs(misses, cfg.llcBytesPerSlice(), cfg.llcWays,
                               cfg);
            }),
            "ns");
    out.add("cache.mshr_ns", medianOf([&] { return mshrNs(misses, cfg); }),
            "ns");
    out.add("mem.page_touch_ns",
            medianOf([&] { return pageNs(accesses, cfg); }), "ns");
    out.add("mem.dram_ns", medianOf([&] { return dramNs(misses, cfg); }),
            "ns");
    out.add("noc.icn_ns", medianOf([&] { return icnNs(remote, cfg); }), "ns");
    out.add("layers.replayed_accesses", static_cast<double>(accesses.size()),
            "count");
}

} // namespace perfbench
