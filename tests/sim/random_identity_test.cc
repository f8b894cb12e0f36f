/**
 * @file
 * Randomized differential test for the event-driven core.
 *
 * The hand-written identity matrix (fast_forward_test.cc) pins the
 * benchmark suite's shapes; this file searches the space around them.
 * Each case draws a workload shape — warp count, compute gaps, access
 * counts, sharing mix, kernel count, organization — from a seeded
 * generator, runs it event-driven and with the per-cycle reference
 * loop, and requires the serialized results (sac.results.v3, full
 * telemetry) to match byte for byte. Shapes deliberately mix dense
 * phases (tiny compute gaps, most components ticking every cycle)
 * with idle-heavy ones (huge gaps), so runs cross the scheduler's
 * dense/sparse regime boundary in both directions.
 *
 * Later cases also draw non-integral bandwidths, which exercise the
 * fractional part of the integer bandwidth credit.
 *
 * Seeds are fixed: a failure is reproducible by its case index alone.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "sim/system.hh"
#include "workload/suite.hh"
#include "workload/tracegen.hh"

namespace sac {
namespace {

/** Uniform double in [lo, hi). */
double
uniform(Rng &rng, double lo, double hi)
{
    return lo + (hi - lo) * rng.nextDouble();
}

/**
 * A random but plausible workload: based on a random Table 4
 * benchmark, with the behavioural knobs redrawn across the ranges the
 * suite spans (and a little beyond).
 */
WorkloadProfile
randomProfile(Rng &rng)
{
    const auto &suite = benchmarkSuite();
    WorkloadProfile p =
        suite[static_cast<std::size_t>(rng.nextBounded(suite.size()))];
    p.numKernels = 1 + static_cast<int>(rng.nextBounded(3));

    const std::size_t phases = 1 + rng.nextBounded(3);
    p.phases.resize(phases);
    for (auto &ph : p.phases) {
        // Sharing mix: fractions sum to at most ~0.9.
        ph.trueFrac = uniform(rng, 0.05, 0.6);
        ph.falseFrac = uniform(rng, 0.05, 0.9 - ph.trueFrac);
        ph.writeFrac = uniform(rng, 0.0, 0.3);
        ph.trueHotFrac = uniform(rng, 0.5, 1.0);
        ph.falseHotFrac = uniform(rng, 0.5, 1.0);
        ph.privHotFrac = uniform(rng, 0.5, 1.0);
        ph.rereadFrac = uniform(rng, 0.0, 0.4);
        // Compute gap: half the draws are dense (0-3 cycles between
        // accesses), half idle-heavy (tens to hundreds). Multi-phase
        // profiles therefore alternate regimes within one run.
        ph.computeGap = rng.nextBool(0.5)
                            ? static_cast<unsigned>(rng.nextBounded(4))
                            : 30 + static_cast<unsigned>(
                                       rng.nextBounded(300));
        ph.accessesPerWarp = 24 + rng.nextBounded(80);
        ph.trueRegionFrac = uniform(rng, 0.3, 1.0);
    }
    return p;
}

/**
 * Runs random case @p i event-driven and with the reference loop and
 * requires identical results. With @p fractional_bw the case also
 * redraws every bandwidth as a non-integral rate, after the shape
 * draws, so the shapes of the integral cases never move.
 */
void
expectCaseIdentical(int i, bool fractional_bw)
{
    Rng rng(0x5ac0 + static_cast<std::uint64_t>(i));

    ExperimentJob job;
    job.profile = randomProfile(rng);
    job.config = GpuConfig::scaled(8);
    job.config.warpsPerCluster = 2 + static_cast<int>(rng.nextBounded(7));
    job.config.sac.profileWindow = 256 + rng.nextBounded(512);
    job.config.sac.profileMinRequests = 200;
    const auto orgs = ExperimentPlan::allOrganizations();
    job.org = orgs[static_cast<std::size_t>(rng.nextBounded(orgs.size()))];
    job.telemetry.epoch = 256;
    job.telemetry.events = true;
    if (fractional_bw) {
        // Rates a double budget cannot refill exactly; the integer
        // credit must still tick identically at any cycle.
        job.config.xbarPortBw = uniform(rng, 64.0, 300.0);
        job.config.sliceBw = uniform(rng, 64.0, 300.0);
        job.config.dramChannelBw = uniform(rng, 20.0, 80.0);
        job.config.interChipBw = uniform(rng, 8.0, 200.0);
        job.config.validate();
    }

    job.fastForward = true;
    const RunRecord ed = ExperimentEngine::runJob(job);
    job.fastForward = false;
    const RunRecord ref = ExperimentEngine::runJob(job);

    EXPECT_EQ(ed.result.status, RunStatus::Ok) << "case " << i;
    EXPECT_EQ(result_io::toJson(ed.result), result_io::toJson(ref.result))
        << "case " << i << ": " << job.profile.name << "/"
        << toString(job.org) << " warps=" << job.config.warpsPerCluster
        << " interChipBw=" << job.config.interChipBw;
}

TEST(RandomIdentity, RandomShapesAreBitIdenticalToReference)
{
    for (int i = 0; i < 8; ++i)
        expectCaseIdentical(i, false);
}

TEST(RandomIdentity, NonIntegralBandwidthsAreBitIdenticalToReference)
{
    // Cases 8 and up: fresh seeds, so cases 0-7 stay as they were.
    for (int i = 8; i < 14; ++i)
        expectCaseIdentical(i, true);
}

TEST(RandomIdentity, RegimeBoundaryIsCrossedAndInvisible)
{
    // A shape built to straddle the hysteresis thresholds: a dense
    // kernel (gap 0, every warp hammering) followed by an idle-heavy
    // one (gap 400). The event-driven run must enter the dense regime
    // at least once, leave it again, and still match the reference
    // loop byte for byte.
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 6;
    WorkloadProfile p = findBenchmark("CFD");
    p.numKernels = 2;
    p.phases.resize(2);
    p.phases[0].computeGap = 0;
    p.phases[0].accessesPerWarp = 96;
    p.phases[1].computeGap = 400;
    p.phases[1].accessesPerWarp = 24;

    const WorkloadProfile scaled = p.scaledData(dataScale(cfg));

    SharingTraceGen edGen(scaled, cfg, 1);
    System ed(cfg, OrgKind::Sac, edGen);
    ed.setFastForward(true);
    const RunResult edRes = ed.run(kernelsFor(scaled));

    const auto &ff = ed.fastForwardStats();
    EXPECT_GE(ff.denseSpans, 1u) << "dense regime never entered";
    EXPECT_GT(ff.denseCycles, 0u);
    EXPECT_LT(ff.denseCycles, ff.schedCycles)
        << "dense regime never exited";
    EXPECT_GT(ff.heapPops, 0u) << "sparse regime never ran";

    SharingTraceGen refGen(scaled, cfg, 1);
    System ref(cfg, OrgKind::Sac, refGen);
    ref.setFastForward(false);
    const RunResult refRes = ref.run(kernelsFor(scaled));

    EXPECT_EQ(result_io::toJson(edRes), result_io::toJson(refRes));
}

} // namespace
} // namespace sac
