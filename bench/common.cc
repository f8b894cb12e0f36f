#include "bench/common.hh"

#include <cstdlib>

#include "sim/report.hh"

namespace sac::bench {

unsigned
benchJobs()
{
    if (const char *env = std::getenv("SAC_JOBS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return 0; // engine picks hardware_concurrency()
}

Runner
benchRunner()
{
    Runner::Options opts;
    opts.jobs = benchJobs();
    opts.progress = [](const EngineProgress &p) {
        std::cerr << "  [" << p.completed << "/" << p.total << "] "
                  << p.job.label << "  ("
                  << report::num(p.record.wallMs, 0) << " ms)\n";
    };
    return Runner(opts);
}

bool
BenchResults::ok(OrgKind kind) const
{
    const auto it = byOrg.find(kind);
    return it != byOrg.end() && it->second.status == RunStatus::Ok;
}

bool
BenchResults::complete() const
{
    for (const auto &[kind, result] : byOrg) {
        if (result.status != RunStatus::Ok)
            return false;
    }
    return true;
}

std::optional<double>
BenchResults::speedupOf(OrgKind kind) const
{
    if (!ok(OrgKind::MemorySide) || !ok(kind))
        return std::nullopt;
    return speedup(byOrg.at(OrgKind::MemorySide), byOrg.at(kind));
}

std::string
BenchResults::speedupCell(OrgKind kind) const
{
    if (const auto s = speedupOf(kind))
        return report::times(*s);
    // Name the run that has no result: this one, else the baseline.
    return toString(byOrg.at(ok(kind) ? OrgKind::MemorySide : kind).status);
}

ExperimentPlan
matrixPlan(const std::vector<WorkloadProfile> &profiles, const GpuConfig &cfg,
           double apw_scale, std::uint64_t seed,
           const std::vector<OrgKind> &orgs)
{
    ExperimentPlan plan;
    for (const auto &profile : profiles) {
        WorkloadProfile p = profile;
        if (apw_scale != 1.0) {
            for (auto &phase : p.phases) {
                phase.accessesPerWarp = std::max<std::uint64_t>(
                    32, static_cast<std::uint64_t>(
                            static_cast<double>(phase.accessesPerWarp) *
                            apw_scale));
            }
        }
        plan.addOrgSweep(p, cfg, orgs, seed);
    }
    return plan;
}

std::vector<BenchResults>
groupMatrix(const ExperimentPlan &plan, const std::vector<RunRecord> &records,
            std::size_t num_orgs)
{
    // Plan order is profiles × orgs, so record i belongs to profile
    // i / num_orgs — regroup into the per-benchmark shape.
    std::vector<BenchResults> out;
    out.reserve(records.size() / num_orgs);
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (i % num_orgs == 0) {
            BenchResults res;
            res.profile = plan[i].profile;
            out.push_back(std::move(res));
        }
        out.back().byOrg.emplace(plan[i].org, records[i].result);
    }
    return out;
}

std::vector<BenchResults>
runMatrix(const std::vector<WorkloadProfile> &profiles, const GpuConfig &cfg,
          double apw_scale, std::uint64_t seed,
          const std::vector<OrgKind> &orgs)
{
    const ExperimentPlan plan =
        matrixPlan(profiles, cfg, apw_scale, seed, orgs);
    return groupMatrix(plan, benchRunner().run(plan), orgs.size());
}

std::map<OrgKind, double>
hmeanSpeedups(const std::vector<BenchResults> &results, std::ostream &log)
{
    std::map<OrgKind, std::vector<double>> speedups;
    std::string skipped;
    std::size_t num_skipped = 0;
    for (const auto &r : results) {
        if (!r.complete()) {
            skipped += (num_skipped++ ? ", " : "") + r.profile.name;
            continue;
        }
        for (const auto &[kind, result] : r.byOrg) {
            (void)result;
            speedups[kind].push_back(r.speedupOf(kind).value());
        }
    }
    if (num_skipped) {
        log << "hmean: skipped " << num_skipped
            << " benchmark(s) with runs that did not complete: " << skipped
            << "\n";
    }
    std::map<OrgKind, double> out;
    for (const auto &[kind, values] : speedups)
        out.emplace(kind, harmonicMean(values));
    return out;
}

std::vector<WorkloadProfile>
pickBenchmarks(const std::vector<std::string> &names)
{
    std::vector<WorkloadProfile> out;
    out.reserve(names.size());
    for (const auto &name : names)
        out.push_back(findBenchmark(name));
    return out;
}

void
paperCompare(std::ostream &os, const std::string &what,
             const std::string &paper, const std::string &measured)
{
    os << "  " << what << ": paper " << paper << "  |  measured "
       << measured << "\n";
}

} // namespace sac::bench
