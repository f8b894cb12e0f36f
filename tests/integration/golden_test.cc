/**
 * @file
 * Golden model-output test: the Fig. 8 plan (all 16 Table-4
 * benchmarks x the five LLC organizations) at 32 accesses per warp,
 * seed 1, run through the ExperimentEngine on both the event-driven
 * and the per-cycle reference loop, each compared byte for byte with
 * the committed sac.results.v3 document.
 *
 * The event-driven == reference differentials cannot see a change
 * that both loops share (a cache, packet or network edit). This file
 * pins the model's output itself, so such a change must either keep
 * every statistic or regenerate the golden document deliberately.
 *
 * On a mismatch the actual document is written next to the test
 * binary (golden_actual_ed.json / golden_actual_ref.json). To
 * regenerate after an intended model change, run the test and copy
 * the reference-loop document over tests/data/golden_apw32_seed1.json.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "sim/runner.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

constexpr std::uint64_t goldenApw = 32;
constexpr std::uint64_t goldenSeed = 1;

ExperimentPlan
goldenPlan(bool fast_forward)
{
    ExperimentPlan plan;
    for (WorkloadProfile profile : benchmarkSuite()) {
        for (auto &phase : profile.phases)
            phase.accessesPerWarp = goldenApw;
        plan.addOrgSweep(profile, GpuConfig::scaled(4),
                         ExperimentPlan::allOrganizations(), goldenSeed);
    }
    plan.setFastForward(fast_forward);
    return plan;
}

std::string
readGolden()
{
    std::ifstream in(SAC_TEST_DATA_DIR "/golden_apw32_seed1.json",
                     std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
checkLoop(bool fast_forward, const char *actual_path)
{
    const std::string golden = readGolden();
    ASSERT_FALSE(golden.empty()) << "golden document missing";
    const auto records = Runner(2).run(goldenPlan(fast_forward));
    ASSERT_EQ(records.size(), 16u * 5u);
    const std::string actual = result_io::toJson(records);
    if (actual != golden) {
        std::ofstream(actual_path, std::ios::binary) << actual;
        FAIL() << (fast_forward ? "event-driven" : "reference")
               << " output differs from the golden document; actual "
                  "written to "
               << actual_path;
    }
}

TEST(Golden, EventDrivenMatchesCommittedResults)
{
    checkLoop(true, "golden_actual_ed.json");
}

TEST(Golden, ReferenceMatchesCommittedResults)
{
    checkLoop(false, "golden_actual_ref.json");
}

} // namespace
} // namespace sac
