#include "gpu/sm_cluster.hh"

#include "common/log.hh"

namespace sac {

SmCluster::SmCluster(const GpuConfig &cfg, ChipId chip, ClusterId id,
                     TraceSource &trace)
    : chip_(chip),
      id_(id),
      cfg_(cfg),
      trace_(trace),
      l1(cfg.l1BytesPerCluster, cfg.l1Ways, cfg.lineBytes,
         cfg.sectorsPerLine),
      l1Mshrs(static_cast<std::size_t>(cfg.clusterMshrs)),
      sched(cfg.warpsPerCluster),
      warps(static_cast<std::size_t>(cfg.warpsPerCluster)),
      nextPktId((static_cast<std::uint64_t>(chip) << 48) ^
                (static_cast<std::uint64_t>(id) << 32))
{
}

void
SmCluster::beginKernel(std::uint64_t accesses_per_warp, Cycle now)
{
    SAC_ASSERT(l1Mshrs.inUse() == 0 && outstandingWrites == 0,
               "kernel launch with outstanding memory traffic");
    sched.reset();
    mshrParked_.clear();
    writeParked_.clear();
    retiredWarps = 0;
    for (std::size_t w = 0; w < warps.size(); ++w) {
        warps[w] = WarpCtx{};
        warps[w].remaining = accesses_per_warp;
        if (accesses_per_warp == 0) {
            warps[w].retired = true;
            ++retiredWarps;
        } else {
            sched.wake(static_cast<int>(w), now);
        }
    }
}

Packet
SmCluster::makePacket(const MemAccess &acc, int warp, Cycle now) const
{
    Packet pkt;
    pkt.id = nextPktId;
    pkt.kind = PacketKind::Request;
    pkt.type = acc.type;
    pkt.lineAddr = acc.lineAddr;
    pkt.sector = acc.sector;
    pkt.srcChip = chip_;
    pkt.srcCluster = id_;
    pkt.warp = warp;
    pkt.stream = static_cast<std::int16_t>(stream_);
    pkt.bytes = cfg_.requestBytes;
    pkt.issued = now;
    return pkt;
}

void
SmCluster::park(int warp, const MemAccess &acc, Ring<int> &queue)
{
    WarpCtx &ctx = warps[static_cast<std::size_t>(warp)];
    ctx.stalled = acc;
    ctx.hasStalled = true;
    sched.consume(warp);
    queue.push_back(warp);
}

void
SmCluster::resumeParked(Ring<int> &queue, Cycle now)
{
    if (queue.empty())
        return;
    const int w = queue.front();
    queue.pop_front();
    sched.wake(w, now);
}

bool
SmCluster::issueOne(Cycle now, ClusterEnv &env)
{
    if (!sched.hasReady())
        return false;
    const int w = sched.peek();
    WarpCtx &warp = warps[static_cast<std::size_t>(w)];
    SAC_ASSERT(!warp.retired && !warp.blocked && warp.remaining > 0,
               "scheduler surfaced an unready warp");

    // A warp resuming from a structural stall re-issues the access it
    // drew when it parked; the trace is independent of stall length.
    MemAccess acc =
        warp.hasStalled ? warp.stalled : trace_.next(chip_, id_, w);
    // The caches name a line by its aligned address; a replayed trace
    // file may give any byte address within the line.
    acc.lineAddr &= ~static_cast<Addr>(cfg_.lineBytes - 1);
    warp.hasStalled = false;
    if (acc.type == AccessType::Write) {
        if (outstandingWrites >= cfg_.clusterMshrs) {
            ++stats_.stallsWriteCap;
            park(w, acc, writeParked_);
            return false;
        }
        ++stats_.accesses;
        ++stats_.writes;
        // Write-through, no allocate: the L1 copy (if any) is updated
        // in place and stays clean; the store heads for the LLC.
        Packet pkt = makePacket(acc, w, now);
        ++nextPktId;
        env.injectMiss(std::move(pkt), now);
        ++outstandingWrites;
        sched.consume(w);
        if (--warp.remaining == 0) {
            warp.retired = true;
            ++retiredWarps;
        } else {
            sched.wake(w, now + acc.gap + 1);
        }
        return true;
    }

    // Load.
    const auto l1res = l1.access(acc.lineAddr, acc.sector, false);
    if (l1res.hit) {
        ++stats_.accesses;
        ++stats_.reads;
        ++stats_.l1Hits;
        sched.consume(w);
        if (--warp.remaining == 0) {
            warp.retired = true;
            ++retiredWarps;
        } else {
            sched.wake(w, now + cfg_.l1Latency + acc.gap + 1);
        }
        return true;
    }

    // L1 miss: needs an MSHR slot (or an existing entry to merge into).
    Packet pkt = makePacket(acc, w, now);
    const auto outcome = l1Mshrs.allocate(pkt);
    if (outcome == MshrFile::Outcome::Full) {
        ++stats_.stallsMshrFull;
        park(w, acc, mshrParked_);
        return false;
    }
    ++nextPktId;
    ++stats_.accesses;
    ++stats_.reads;
    ++stats_.l1Misses;
    if (outcome == MshrFile::Outcome::Merged)
        ++stats_.l1MshrMerges;
    --warp.remaining;
    ++warp.inFlight;
    warp.pendingGap = acc.gap;
    sched.consume(w);
    if (warp.inFlight >= cfg_.warpMaxOutstanding || warp.remaining == 0) {
        // At the MLP limit (or out of work): stall until a response.
        warp.blocked = true;
    } else {
        sched.wake(w, now + acc.gap + 1);
    }
    if (outcome == MshrFile::Outcome::Primary)
        env.injectMiss(std::move(pkt), now);
    return true;
}

void
SmCluster::tick(Cycle now, ClusterEnv &env)
{
    if (now < pausedUntil)
        return;
    sched.advance(now);
    for (int i = 0; i < cfg_.clusterIssueWidth; ++i) {
        if (!issueOne(now, env))
            break;
    }
}

void
SmCluster::bind(ClusterEnv &env, BwQueue &resp_port, std::string name)
{
    env_ = &env;
    respPort_ = &resp_port;
    name_ = std::move(name);
}

void
SmCluster::tick(Cycle now)
{
    SAC_ASSERT(env_ && respPort_, "unbound cluster component ticked");
    // Reference phase order inside Chip::tickClusters: refill and
    // drain this cluster's response port, then issue.
    respPort_->beginCycle();
    Packet resp;
    while (respPort_->tryPop(resp, now))
        deliver(resp, now);
    tick(now, *env_);
}

Cycle
SmCluster::nextEventCycle(Cycle now) const
{
    const Cycle issue = issueEventCycle(now);
    if (!respPort_)
        return issue;
    return std::min(issue, respPort_->nextEventCycle(now));
}

void
SmCluster::skipIdleCycles(Cycle cycles)
{
    // The warp scheduler is timestamp-based; only the response port
    // accumulates per-cycle bandwidth credit.
    if (respPort_)
        respPort_->skipIdleCycles(cycles);
}

void
SmCluster::deliver(const Packet &resp, Cycle now)
{
    SAC_ASSERT(resp.kind == PacketKind::Response, "non-response at cluster");
    SAC_ASSERT(resp.srcChip == chip_ && resp.srcCluster == id_,
               "response delivered to the wrong cluster");
    if (resp.type == AccessType::Write) {
        SAC_ASSERT(outstandingWrites > 0, "stray write ack");
        --outstandingWrites;
        // The freed write slot goes to the longest-parked stalled warp.
        resumeParked(writeParked_, now);
        return;
    }
    // Read fill: install in the L1 (clean; the L1 is write-through) and
    // wake every warp that coalesced onto this line.
    l1.insert(resp.lineAddr, resp.sector, resp.homeChip, false,
              partitionLocal);
    fillTargets_.clear();
    l1Mshrs.complete(resp.lineAddr, resp.sector, fillTargets_);
    SAC_ASSERT(!fillTargets_.empty(), "fill with no waiting warps");
    // complete() freed one MSHR entry: hand it to the longest-parked
    // warp (its cached access may even hit the L1 or merge by now).
    resumeParked(mshrParked_, now);
    for (const auto &t : fillTargets_) {
        WarpCtx &warp = warps[static_cast<std::size_t>(t.warp)];
        SAC_ASSERT(warp.inFlight > 0, "fill for a warp with no loads");
        --warp.inFlight;
        stats_.loadLatencySum += now - t.issued;
        ++stats_.loadsCompleted;
        if (warp.remaining == 0) {
            if (warp.inFlight == 0 && !warp.retired) {
                warp.retired = true;
                ++retiredWarps;
            }
        } else if (warp.blocked) {
            warp.blocked = false;
            sched.wake(t.warp, now + warp.pendingGap + 1);
        }
    }
}

bool
SmCluster::done() const
{
    return retiredWarps == static_cast<int>(warps.size()) &&
           l1Mshrs.inUse() == 0 && outstandingWrites == 0;
}

void
SmCluster::flushL1()
{
    // Write-through L1: never dirty, so a flush is an invalidate.
    l1.flushAll();
}

} // namespace sac
