/**
 * @file
 * One GPU chip: SM clusters, request/response crossbar ports, LLC
 * slices and the local memory controller, glued to the rest of the
 * system through ChipHooks (implemented by System).
 */

#ifndef SAC_SIM_CHIP_HH
#define SAC_SIM_CHIP_HH

#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "gpu/kernel.hh"
#include "gpu/sm_cluster.hh"
#include "llc/llc_slice.hh"
#include "mem/address_map.hh"
#include "mem/mem_ctrl.hh"
#include "noc/xbar.hh"
#include "sim/sched.hh"

namespace sac {

/** System services a chip depends on. */
class ChipHooks
{
  public:
    virtual ~ChipHooks() = default;

    /** Sends a packet across the inter-chip network. */
    virtual void icnSend(ChipId src, ChipId dst, Packet pkt) = 0;
    /** Coherence action for a write applied at @p writer. */
    virtual void handleWrite(const Packet &pkt, ChipId writer) = 0;
    /** Directory: replica of @p line_addr created on @p chip. */
    virtual void replicaAdded(Addr line_addr, ChipId chip) = 0;
    /** Directory: replica of @p line_addr dropped from @p chip. */
    virtual void replicaRemoved(Addr line_addr, ChipId chip) = 0;
    /** A read response was delivered to an SM cluster (Fig. 10). */
    virtual void countResponse(const Packet &pkt) = 0;
    /** Current cycle. */
    virtual Cycle now() const = 0;
};

/** One chip of the multi-chip GPU. */
class Chip : public SliceEnv
{
  public:
    Chip(const GpuConfig &cfg, const AddressMap &map, ChipId id,
         TraceSource &trace, ChipHooks &hooks);

    Chip(const Chip &) = delete;
    Chip &operator=(const Chip &) = delete;

    // --- per-cycle phases, driven by System::tick -----------------------
    /** Drains the response crossbar into the clusters and issues new
     *  accesses. */
    void tickClusters(Cycle now, ClusterEnv &env);
    /** Routes one inter-chip arrival into the right local structure. */
    void acceptIcnArrival(Packet pkt, Cycle now);
    /** Ticks every LLC slice. */
    void tickSlices(Cycle now);
    /** Ticks DRAM and dispatches completed fills. */
    void tickMemory(Cycle now);

    // --- SliceEnv --------------------------------------------------------
    bool memCanAccept(Addr line_addr) const override;
    void memPush(const Packet &pkt) override;
    void sendToChip(ChipId dst, Packet pkt) override;
    void respondCluster(Packet pkt) override;
    void directoryFill(Addr line_addr, ChipId chip) override;
    void directoryEvict(Addr line_addr, ChipId chip) override;
    void coherentWrite(const Packet &pkt, ChipId writer) override;

    // --- control ---------------------------------------------------------
    /** Pushes a request from a local cluster into a local slice port. */
    void pushLocalRequest(const Packet &pkt, Cycle now);
    /** Kernel launch for every cluster. */
    void beginKernel(std::uint64_t accesses_per_warp, Cycle now);
    /**
     * Kernel launch for clusters [first, first+count) only — one
     * stream's cluster share in a multi-tenant scenario.
     */
    void beginKernelRange(std::uint64_t first, std::uint64_t count,
                          std::uint64_t accesses_per_warp, Cycle now);
    /** Invalidates all L1s (software coherence boundary). */
    void flushL1s();
    /** Invalidates the L1s of clusters [first, first+count) only. */
    void flushL1Range(std::uint64_t first, std::uint64_t count);
    /** Invalidates one line everywhere on this chip (hw coherence). */
    void invalidateLine(Addr line_addr, int slice);
    /** Stops cluster issue until @p until (drain/flush stalls). */
    void pauseClusters(Cycle until);
    /** Stops issue of clusters [first, first+count) until @p until. */
    void pauseClustersRange(std::uint64_t first, std::uint64_t count,
                            Cycle until);
    /** Tags clusters [first, first+count) with a kernel stream id. */
    void setClusterStream(std::uint64_t first, std::uint64_t count,
                          int stream);
    /**
     * Two-NoC SM-side baseline: bypass traffic skips the shared
     * crossbar ports and goes straight to the memory queue.
     */
    void setDirectBypass(bool direct) { directBypass = direct; }
    /** Applies a way split to every slice (Static/Dynamic orgs). */
    void setWaySplit(int local_ways);

    // --- scheduling (sim::Component registration) -------------------------
    /**
     * Registers this chip's schedulable units with @p sched. Three
     * separate passes because registration ordinal == reference phase
     * order, and the reference loop runs each phase across all chips
     * before the next: System calls registerClusterComponents for
     * every chip, then registers the network, then
     * registerSliceComponents for every chip, then
     * registerMemoryComponent for every chip.
     */
    void registerClusterComponents(sim::Scheduler &sched, ClusterEnv &env);
    void registerSliceComponents(sim::Scheduler &sched);
    void registerMemoryComponent(sim::Scheduler &sched);

    /**
     * Earliest cycle the memory phase might do work: a DRAM
     * completion, or a blocked two-NoC bypass retry that can proceed
     * now. The MemoryUnit component's nextEventCycle.
     */
    Cycle memoryEventCycle(Cycle now) const;

    /** Wakes the memory component (out-of-band occupancy changes). */
    void wakeMemory(Cycle now);

    // --- queries ----------------------------------------------------------
    bool clustersDone() const;
    /** done() over clusters [first, first+count) only. */
    bool clustersDoneRange(std::uint64_t first, std::uint64_t count) const;
    std::size_t outstanding() const;

    SmCluster &cluster(ClusterId c) { return *clusters[
        static_cast<std::size_t>(c)]; }
    const SmCluster &cluster(ClusterId c) const
    {
        return *clusters[static_cast<std::size_t>(c)];
    }
    LlcSlice &slice(int s) { return *slices[static_cast<std::size_t>(s)]; }
    const LlcSlice &slice(int s) const
    {
        return *slices[static_cast<std::size_t>(s)];
    }
    MemCtrl &memCtrl() { return mem; }
    const MemCtrl &memCtrl() const { return mem; }
    int numClusters() const { return static_cast<int>(clusters.size()); }
    int numSlices() const { return static_cast<int>(slices.size()); }
    ChipId id() const { return id_; }

  private:
    /**
     * The chip's memory phase (bypass-queue retry, DRAM tick, fill
     * dispatch) as one schedulable unit.
     */
    class MemoryUnit final : public sim::Component
    {
      public:
        explicit MemoryUnit(Chip &chip) : chip_(chip) {}
        void setName(std::string name) { name_ = std::move(name); }
        const char *name() const override { return name_.c_str(); }
        void tick(Cycle now) override { chip_.tickMemory(now); }
        Cycle
        nextEventCycle(Cycle now) const override
        {
            return chip_.memoryEventCycle(now);
        }

      private:
        Chip &chip_;
        std::string name_;
    };

    void dispatchFill(Packet pkt, Cycle now);

    const GpuConfig &cfg_;
    const AddressMap &map_;
    ChipId id_;
    ChipHooks &hooks;
    bool directBypass = false;

    std::vector<std::unique_ptr<SmCluster>> clusters;
    std::vector<std::unique_ptr<LlcSlice>> slices;
    /** Response network: one bandwidth-limited port per cluster. */
    Xbar respXbar;
    MemCtrl mem;
    /** Bypass requests waiting for memory-queue space (two-NoC mode). */
    Ring<Packet> directBypassQ;
    /** Scratch for MemCtrl::tick() fills, reused across cycles. */
    std::vector<Packet> memFills_;

    // Scheduling registration (null/empty until System registers us).
    sim::Scheduler *sched_ = nullptr;
    std::vector<sim::ComponentId> clusterIds_;
    std::vector<sim::ComponentId> sliceIds_;
    sim::ComponentId memId_ = sim::invalidComponent;
    MemoryUnit memUnit_;
};

} // namespace sac

#endif // SAC_SIM_CHIP_HH
