#include "common/config.hh"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace sac {

void
GpuConfig::validate() const
{
    // Every rejection is a recoverable ValidationError whose context
    // names the offending field, so a sweep engine can report exactly
    // which knob a generated configuration got wrong and keep going.
    // Packets store chip ids and cluster/warp/slice indices narrow
    // (PackedChipId, PackedIndex); the upper bounds keep every id a
    // packet can carry representable.
    static_assert(16 <= std::numeric_limits<PackedChipId>::max());
    constexpr int max_index = std::numeric_limits<PackedIndex>::max();
    if (numChips < 1 || numChips > 16)
        invalid("GpuConfig.numChips", "must be in [1, 16], got ", numChips);
    if (clustersPerChip < 1 || clustersPerChip > max_index)
        invalid("GpuConfig.clustersPerChip", "must be in [1, ", max_index,
                "], got ", clustersPerChip);
    if (slicesPerChip < 1 || slicesPerChip > max_index)
        invalid("GpuConfig.slicesPerChip", "must be in [1, ", max_index,
                "], got ", slicesPerChip);
    if (channelsPerChip < 1)
        invalid("GpuConfig.channelsPerChip", "must be positive, got ",
                channelsPerChip);
    if (!isPowerOfTwo(lineBytes) || lineBytes < 32)
        invalid("GpuConfig.lineBytes",
                "must be a power of two >= 32, got ", lineBytes);
    if (!isPowerOfTwo(pageBytes) || pageBytes < lineBytes)
        invalid("GpuConfig.pageBytes",
                "must be a power of two >= lineBytes, got ", pageBytes);
    if (sectorsPerLine != 1 && sectorsPerLine != 2 && sectorsPerLine != 4)
        invalid("GpuConfig.sectorsPerLine", "must be 1, 2 or 4, got ",
                sectorsPerLine);
    if (llcWays < 1)
        invalid("GpuConfig.llcWays", "must be positive, got ", llcWays);
    if (llcBytesPerChip % slicesPerChip != 0)
        invalid("GpuConfig.llcBytesPerChip",
                "must divide evenly across ", slicesPerChip, " slices");
    const auto slice_bytes = llcBytesPerSlice();
    if (slice_bytes % (static_cast<std::uint64_t>(llcWays) * lineBytes) != 0)
        invalid("GpuConfig.llcBytesPerChip", "slice capacity ", slice_bytes,
                " must divide into ", llcWays, " ways of ", lineBytes,
                "-byte lines");
    const auto sets = slice_bytes / (static_cast<std::uint64_t>(llcWays) *
                                     lineBytes);
    if (!isPowerOfTwo(sets))
        invalid("GpuConfig.llcBytesPerChip",
                "slice set count must be a power of two, got ", sets);
    if (l1Ways < 1)
        invalid("GpuConfig.l1Ways", "must be positive, got ", l1Ways);
    if (l1BytesPerCluster % (static_cast<std::uint64_t>(l1Ways) * lineBytes))
        invalid("GpuConfig.l1BytesPerCluster",
                "must divide into ", l1Ways, " ways of ", lineBytes,
                "-byte lines");
    // Bandwidth credit is counted in micro-bytes (noc/queue.hh), so
    // a rate must be finite and within [1e-6, 1e9] B/cycle.
    const auto check_bw = [](const char *field, double bw) {
        if (!std::isfinite(bw) || bw < 1e-6 || bw > 1e9)
            invalid(field, "must be a finite bandwidth in [1e-6, 1e9] "
                    "B/cycle, got ", bw);
    };
    check_bw("GpuConfig.xbarPortBw", xbarPortBw);
    check_bw("GpuConfig.sliceBw", sliceBw);
    check_bw("GpuConfig.dramChannelBw", dramChannelBw);
    check_bw("GpuConfig.interChipBw", interChipBw);
    if (warpsPerCluster < 1 || warpsPerCluster > max_index)
        invalid("GpuConfig.warpsPerCluster", "must be in [1, ", max_index,
                "], got ", warpsPerCluster);
    if (clusterMshrs < 1)
        invalid("GpuConfig.clusterMshrs", "must be positive, got ",
                clusterMshrs);
    if (sliceMshrs < 1)
        invalid("GpuConfig.sliceMshrs", "must be positive, got ",
                sliceMshrs);
    if (memQueueDepth < 1)
        invalid("GpuConfig.memQueueDepth", "must be positive, got ",
                memQueueDepth);
    if (occupancyInterval < 1)
        invalid("GpuConfig.occupancyInterval", "must be positive, got ",
                occupancyInterval);
    if (sac.profileWindow < 1)
        invalid("GpuConfig.sac.profileWindow", "must be positive");
    if (sac.theta < 0.0)
        invalid("GpuConfig.sac.theta", "must be non-negative, got ",
                sac.theta);
    if (sac.crdSets < 1 || sac.crdWays < 1)
        invalid("GpuConfig.sac.crdSets", "CRD geometry must be positive, "
                "got ", sac.crdSets, "x", sac.crdWays);
    if (dynamicLlc.minWays < 1 || 2 * dynamicLlc.minWays > llcWays)
        invalid("GpuConfig.dynamicLlc.minWays",
                "must leave room for both partitions, got ",
                dynamicLlc.minWays, " of ", llcWays, " ways");
}

GpuConfig
GpuConfig::paperBaseline()
{
    GpuConfig cfg;
    cfg.numChips = 4;
    cfg.clustersPerChip = 32;  // 64 SMs, two per NoC port
    cfg.warpsPerCluster = 48;
    cfg.slicesPerChip = 16;
    cfg.channelsPerChip = 8;
    cfg.lineBytes = 128;
    cfg.llcBytesPerChip = 4ull << 20;   // 4 MB
    cfg.llcWays = 16;
    cfg.l1BytesPerCluster = 256 * 1024; // 2 SMs x 128 KB
    cfg.l1Ways = 8;
    cfg.pageBytes = 4096;
    cfg.xbarPortBw = 256.0;   // 4 TB/s over 16 slice ports
    cfg.sliceBw = 256.0;      // 16 TB/s over 64 slices
    cfg.dramChannelBw = 56.0; // ~1.75 TB/s over 32 channels
    cfg.interChipBw = 384.0;  // 6 links x 64 GB/s per chip
    return cfg;
}

GpuConfig
GpuConfig::scaled(int divisor)
{
    if (divisor < 1)
        invalid("GpuConfig.scaled", "divisor must be >= 1, got ", divisor);
    GpuConfig cfg = paperBaseline();
    if (cfg.clustersPerChip % divisor || cfg.slicesPerChip % divisor)
        invalid("GpuConfig.scaled", "divisor ", divisor,
                " must divide the topology");
    cfg.clustersPerChip /= divisor;
    cfg.slicesPerChip /= divisor;
    cfg.channelsPerChip = std::max(1, cfg.channelsPerChip / divisor);
    cfg.llcBytesPerChip /= static_cast<unsigned>(divisor);
    // Per-port bandwidths stay fixed; aggregate per-chip bandwidth
    // scales with the port count. Inter-chip and DRAM budgets are
    // per chip, so scale them explicitly.
    cfg.interChipBw /= divisor;
    cfg.dramChannelBw =
        cfg.dramChannelBw * 8.0 / (divisor * cfg.channelsPerChip);
    // Traffic per cycle scales down with the cluster count while
    // per-line reuse intervals stretch by the same factor, so the
    // profiling window must grow ~quadratically for the counters and
    // the CRD to observe the reuse the paper's 2K-cycle window sees
    // at full scale.
    const auto window_scale =
        std::max<Cycle>(1, static_cast<Cycle>(divisor) *
                               static_cast<Cycle>(divisor) / 2);
    cfg.sac.profileWindow *= window_scale;
    return cfg;
}

std::string
GpuConfig::summary() const
{
    std::ostringstream os;
    os << numChips << " chips x (" << clustersPerChip << " clusters, "
       << slicesPerChip << " LLC slices, " << channelsPerChip
       << " DRAM channels); LLC " << (llcBytesPerChip >> 10)
       << " KB/chip; BW B/cy: xbar-port " << xbarPortBw << ", slice "
       << sliceBw << ", DRAM/chip " << dramBwPerChip() << ", inter-chip "
       << interChipBw << "; coherence " << toString(coherence);
    return os.str();
}

} // namespace sac
