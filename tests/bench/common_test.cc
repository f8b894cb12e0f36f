/**
 * @file
 * Tests for the figure benches' shared machinery: a job that fails
 * must show up as a failed cell and drop out of the harmonic means,
 * not abort the whole figure.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bench/common.hh"
#include "sim/fault_injection.hh"

namespace sac {
namespace {

TEST(BenchCommon, FailedRecordBecomesAFailedRowAndLeavesTheHmean)
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 4;
    ExperimentPlan plan =
        bench::matrixPlan(bench::pickBenchmarks({"RN", "CFD"}), cfg, 0.01);
    FaultPlan faults;
    faults.fail("RN/SAC", FaultSpec::validation());
    plan.setFaultPlan(faults);
    const auto records = Runner(1).run(plan);
    const auto results =
        bench::groupMatrix(plan, records, bench::allOrgs().size());

    ASSERT_EQ(results.size(), 2u);
    const bench::BenchResults &rn = results[0];
    const bench::BenchResults &cfd = results[1];
    ASSERT_EQ(rn.profile.name, "RN");
    EXPECT_FALSE(rn.ok(OrgKind::Sac));
    EXPECT_FALSE(rn.complete());
    EXPECT_FALSE(rn.speedupOf(OrgKind::Sac).has_value());
    EXPECT_EQ(rn.speedupCell(OrgKind::Sac), "failed");
    // The other organizations of the same benchmark still report.
    ASSERT_TRUE(rn.speedupOf(OrgKind::SmSide).has_value());
    EXPECT_NE(rn.speedupCell(OrgKind::SmSide), "failed");
    EXPECT_TRUE(cfd.complete());

    // The hmean covers only CFD, and says it skipped RN.
    std::ostringstream log;
    const auto h = bench::hmeanSpeedups(results, log);
    ASSERT_EQ(h.size(), bench::allOrgs().size());
    EXPECT_DOUBLE_EQ(h.at(OrgKind::Sac), *cfd.speedupOf(OrgKind::Sac));
    EXPECT_DOUBLE_EQ(h.at(OrgKind::MemorySide), 1.0);
    EXPECT_NE(log.str().find("skipped 1 benchmark"), std::string::npos)
        << log.str();
    EXPECT_NE(log.str().find("RN"), std::string::npos);
}

TEST(BenchCommon, FailedBaselineFailsEveryCellOfItsRow)
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 4;
    ExperimentPlan plan = bench::matrixPlan(bench::pickBenchmarks({"RN"}),
                                            cfg, 0.01, 1,
                                            {OrgKind::MemorySide,
                                             OrgKind::Sac});
    FaultPlan faults;
    faults.fail("RN/Memory-side", FaultSpec::validation());
    plan.setFaultPlan(faults);
    const auto results = bench::groupMatrix(plan, Runner(1).run(plan), 2);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok(OrgKind::Sac));
    EXPECT_EQ(results[0].speedupCell(OrgKind::Sac), "failed");
    std::ostringstream log;
    EXPECT_TRUE(bench::hmeanSpeedups(results, log).empty());
    EXPECT_NE(log.str().find("skipped 1 benchmark"), std::string::npos);
}

} // namespace
} // namespace sac
