/** @file Unit tests for GpuConfig and its scaling rules. */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/config.hh"
#include "common/log.hh"

namespace sac {
namespace {

TEST(Config, DefaultsValidate)
{
    GpuConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, PaperBaselineMatchesTable3)
{
    const auto cfg = GpuConfig::paperBaseline();
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_EQ(cfg.numChips, 4);
    EXPECT_EQ(cfg.clustersPerChip, 32);       // 64 SMs, 2 per port
    EXPECT_EQ(cfg.slicesPerChip, 16);         // 64 slices total
    EXPECT_EQ(cfg.totalChannels(), 32);       // 32 DRAM channels
    EXPECT_EQ(cfg.llcBytesPerChip, 4ull << 20);
    EXPECT_EQ(cfg.llcBytesTotal(), 16ull << 20);
    EXPECT_EQ(cfg.lineBytes, 128u);
    EXPECT_EQ(cfg.pageBytes, 4096u);
    // 16 TB/s LLC over 64 slices, 1.75 TB/s DRAM, 4 TB/s NoC per chip.
    EXPECT_NEAR(cfg.sliceBw * cfg.totalSlices(), 16384.0, 1.0);
    EXPECT_NEAR(cfg.dramChannelBw * cfg.totalChannels(), 1792.0, 64.0);
    EXPECT_NEAR(cfg.intraBwPerChip(), 4096.0, 1.0);
    // 768 GB/s inter-chip ring = 384 per chip egress+ingress pair.
    EXPECT_NEAR(cfg.interChipBw * cfg.numChips / 4, 384.0, 1.0);
}

TEST(Config, ScalingPreservesBandwidthRatios)
{
    const auto full = GpuConfig::paperBaseline();
    for (int d : {2, 4, 8}) {
        const auto cfg = GpuConfig::scaled(d);
        EXPECT_NO_THROW(cfg.validate());
        EXPECT_EQ(cfg.clustersPerChip, full.clustersPerChip / d);
        EXPECT_EQ(cfg.slicesPerChip, full.slicesPerChip / d);
        EXPECT_EQ(cfg.llcBytesPerChip, full.llcBytesPerChip / d);
        const double full_ratio =
            full.intraBwPerChip() / (full.interChipBw);
        const double scaled_ratio =
            cfg.intraBwPerChip() / (cfg.interChipBw);
        EXPECT_NEAR(scaled_ratio, full_ratio, 1e-9);
        const double full_dram_ratio =
            full.dramBwPerChip() / full.interChipBw;
        const double scaled_dram_ratio =
            cfg.dramBwPerChip() / cfg.interChipBw;
        EXPECT_NEAR(scaled_dram_ratio, full_dram_ratio, 1e-9);
    }
}

TEST(Config, ScaleOneIsPaperBaselinePlusWindow)
{
    const auto cfg = GpuConfig::scaled(1);
    const auto full = GpuConfig::paperBaseline();
    EXPECT_EQ(cfg.clustersPerChip, full.clustersPerChip);
    EXPECT_EQ(cfg.sac.profileWindow, full.sac.profileWindow);
}

TEST(Config, ValidationCatchesBadGeometry)
{
    GpuConfig cfg;
    cfg.lineBytes = 100; // not a power of two
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = GpuConfig{};
    cfg.pageBytes = 64; // smaller than a line
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = GpuConfig{};
    cfg.numChips = 0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = GpuConfig{};
    cfg.sectorsPerLine = 3;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = GpuConfig{};
    cfg.interChipBw = 0.0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = GpuConfig{};
    cfg.dynamicLlc.minWays = 9; // 2*9 > 16 ways
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = GpuConfig{};
    cfg.occupancyInterval = 0; // a zero interval would sample forever
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, OccupancyIntervalIsConfigurable)
{
    GpuConfig cfg;
    EXPECT_EQ(cfg.occupancyInterval, 2048u); // former hard-coded value

    cfg.occupancyInterval = 512;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, BadScaleDivisorIsFatal)
{
    EXPECT_THROW(GpuConfig::scaled(0), FatalError);
    EXPECT_THROW(GpuConfig::scaled(3), FatalError); // does not divide 32/16
}

TEST(Config, ValidationErrorsNameTheOffendingField)
{
    // validate() throws recoverable ValidationErrors whose context is
    // the field that failed — a sweep diagnostic says exactly which
    // knob to fix.
    const auto context_of = [](GpuConfig cfg) {
        try {
            cfg.validate();
        } catch (const ValidationError &e) {
            return e.context();
        }
        return std::string("(validated)");
    };

    GpuConfig cfg;
    cfg.lineBytes = 100;
    EXPECT_EQ(context_of(cfg), "GpuConfig.lineBytes");

    cfg = GpuConfig{};
    cfg.numChips = 0;
    EXPECT_EQ(context_of(cfg), "GpuConfig.numChips");

    cfg = GpuConfig{};
    cfg.sectorsPerLine = 3;
    EXPECT_EQ(context_of(cfg), "GpuConfig.sectorsPerLine");

    cfg = GpuConfig{};
    cfg.dynamicLlc.minWays = 9;
    EXPECT_EQ(context_of(cfg), "GpuConfig.dynamicLlc.minWays");

    cfg = GpuConfig{};
    cfg.occupancyInterval = 0;
    EXPECT_EQ(context_of(cfg), "GpuConfig.occupancyInterval");

    try {
        GpuConfig::scaled(3);
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        EXPECT_EQ(e.context(), "GpuConfig.scaled");
    }
}

/** Context of the ValidationError @p cfg raises, or "(validated)". */
std::string
contextOf(const GpuConfig &cfg)
{
    try {
        cfg.validate();
    } catch (const ValidationError &e) {
        return e.context();
    }
    return "(validated)";
}

// Packets carry cluster, warp and slice indices as PackedIndex, so
// validate() bounds each count by that type's range.
constexpr int maxPackedIndex = std::numeric_limits<PackedIndex>::max();

TEST(Config, ClustersPerChipIsBoundedByThePacketField)
{
    GpuConfig cfg;
    cfg.clustersPerChip = maxPackedIndex;
    EXPECT_EQ(contextOf(cfg), "(validated)");
    cfg.clustersPerChip = maxPackedIndex + 1;
    EXPECT_EQ(contextOf(cfg), "GpuConfig.clustersPerChip");
}

TEST(Config, WarpsPerClusterIsBoundedByThePacketField)
{
    GpuConfig cfg;
    cfg.warpsPerCluster = maxPackedIndex;
    EXPECT_EQ(contextOf(cfg), "(validated)");
    cfg.warpsPerCluster = maxPackedIndex + 1;
    EXPECT_EQ(contextOf(cfg), "GpuConfig.warpsPerCluster");
}

TEST(Config, SlicesPerChipIsBoundedByThePacketField)
{
    GpuConfig cfg;
    // The largest count the bound admits still has to divide the LLC
    // capacity, which is a later, separate check.
    cfg.slicesPerChip = maxPackedIndex;
    EXPECT_NE(contextOf(cfg), "GpuConfig.slicesPerChip");
    cfg.slicesPerChip = maxPackedIndex + 1;
    EXPECT_EQ(contextOf(cfg), "GpuConfig.slicesPerChip");
    cfg.slicesPerChip = 1 << 20;
    EXPECT_EQ(contextOf(cfg), "GpuConfig.slicesPerChip");
}

TEST(Config, BandwidthsMustBeFiniteAndRepresentable)
{
    // Credit counts micro-bytes: every bandwidth must be finite and
    // in [1e-6, 1e9] B/cycle, and a rejection names the field.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const char *field :
         {"xbarPortBw", "sliceBw", "dramChannelBw", "interChipBw"}) {
        const auto with = [field](double bw) {
            GpuConfig cfg;
            const std::string f = field;
            double &slot = f == "xbarPortBw"      ? cfg.xbarPortBw
                           : f == "sliceBw"       ? cfg.sliceBw
                           : f == "dramChannelBw" ? cfg.dramChannelBw
                                                  : cfg.interChipBw;
            slot = bw;
            return contextOf(cfg);
        };
        const std::string named = std::string("GpuConfig.") + field;
        for (double bad : {nan, inf, -inf, 0.0, -1.0, 1e-300, 9.9e-7,
                           1.0000001e9}) {
            EXPECT_EQ(with(bad), named) << field << " = " << bad;
        }
        for (double good : {1e-6, 0.625, 100.3, 1e9})
            EXPECT_EQ(with(good), "(validated)") << field << " = " << good;
    }
}

TEST(Config, DerivedQuantities)
{
    GpuConfig cfg;
    EXPECT_EQ(cfg.totalClusters(), cfg.numChips * cfg.clustersPerChip);
    EXPECT_EQ(cfg.linesPerPage(), cfg.pageBytes / cfg.lineBytes);
    EXPECT_EQ(cfg.llcBytesPerSlice() * static_cast<std::uint64_t>(
                  cfg.slicesPerChip),
              cfg.llcBytesPerChip);
}

TEST(Config, SummaryMentionsKeyNumbers)
{
    const auto text = GpuConfig::scaled(4).summary();
    EXPECT_NE(text.find("4 chips"), std::string::npos);
    EXPECT_NE(text.find("coherence software"), std::string::npos);
}

} // namespace
} // namespace sac
