/**
 * @file
 * Shared machinery for the per-figure bench binaries.
 *
 * Every bench prints the paper-style rows for its table/figure with
 * the paper-reported aggregate next to the measured one, then runs a
 * couple of google-benchmark micro-measurements of the components the
 * figure exercises. Progress goes to stderr so stdout stays a clean
 * table.
 *
 * Sweeps execute through the parallel ExperimentEngine; set SAC_JOBS
 * to pin the worker count (SAC_JOBS=1 forces serial execution — the
 * results are bit-identical either way, only the wall time changes).
 */

#ifndef SAC_BENCH_COMMON_HH
#define SAC_BENCH_COMMON_HH

#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "llc/organization.hh"
#include "sim/plan.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "workload/suite.hh"

namespace sac::bench {

/** Default experiment configuration: the paper machine at scale 4. */
inline GpuConfig
defaultConfig()
{
    return GpuConfig::scaled(4);
}

/** The five organizations in evaluation order. */
inline const std::vector<OrgKind> &
allOrgs()
{
    return ExperimentPlan::allOrganizations();
}

/**
 * Worker count for bench sweeps: $SAC_JOBS if set, otherwise every
 * hardware thread.
 */
unsigned benchJobs();

/** A Runner configured for benches: SAC_JOBS workers, stderr progress. */
Runner benchRunner();

/**
 * One benchmark's results across organizations. A run whose status
 * is not ok (a failed, timed-out or livelocked job) stays in byOrg
 * with its status; it has no speedup and prints as its status.
 */
struct BenchResults
{
    WorkloadProfile profile;
    std::map<OrgKind, RunResult> byOrg;

    /** True when @p kind ran and completed with status ok. */
    bool ok(OrgKind kind) const;
    /** True when every organization in byOrg completed. */
    bool complete() const;

    /**
     * Speedup of @p kind over the memory-side run; nullopt when
     * either run did not complete.
     */
    std::optional<double> speedupOf(OrgKind kind) const;

    /** Table cell: the speedup as "1.23x", or the failing status. */
    std::string speedupCell(OrgKind kind) const;
};

/** The profiles x orgs plan runMatrix executes, in that order. */
ExperimentPlan matrixPlan(const std::vector<WorkloadProfile> &profiles,
                          const GpuConfig &cfg, double apw_scale = 1.0,
                          std::uint64_t seed = 1,
                          const std::vector<OrgKind> &orgs = allOrgs());

/** Regroups @p records of a matrixPlan into one entry per profile. */
std::vector<BenchResults> groupMatrix(const ExperimentPlan &plan,
                                      const std::vector<RunRecord> &records,
                                      std::size_t num_orgs);

/**
 * Runs @p profiles under the given organizations (default: all five)
 * through the engine, logging progress to stderr. @p apw_scale
 * optionally shortens kernels for sweeps.
 */
std::vector<BenchResults> runMatrix(
    const std::vector<WorkloadProfile> &profiles, const GpuConfig &cfg,
    double apw_scale = 1.0, std::uint64_t seed = 1,
    const std::vector<OrgKind> &orgs = allOrgs());

/**
 * Harmonic mean of each organization's speedups over @p results.
 * Benchmarks with a run that did not complete are skipped, and the
 * skip is reported on @p log with the count and names.
 */
std::map<OrgKind, double> hmeanSpeedups(
    const std::vector<BenchResults> &results, std::ostream &log = std::cerr);

/** Subset of the suite by names. */
std::vector<WorkloadProfile> pickBenchmarks(
    const std::vector<std::string> &names);

/** Prints "paper reports X, we measure Y" comparison lines. */
void paperCompare(std::ostream &os, const std::string &what,
                  const std::string &paper, const std::string &measured);

} // namespace sac::bench

#endif // SAC_BENCH_COMMON_HH
