/**
 * @file
 * Figure 8: speedup of the SM-side, Static, Dynamic and SAC LLC
 * organizations relative to the memory-side baseline across all 16
 * benchmarks, with group and overall harmonic means.
 *
 * Paper headline: SAC outperforms the memory-side LLC by 76%, the
 * SM-side LLC by 12%, the Static (L1.5) LLC by 31% and the Dynamic
 * LLC by 18% on average.
 */

#include <benchmark/benchmark.h>

#include "bench/common.hh"

namespace {

using namespace sac;

void
study()
{
    const auto cfg = bench::defaultConfig();
    std::cerr << "Fig.8: full 16-benchmark sweep (5 organizations "
                 "each)...\n";
    const auto results = bench::runMatrix(benchmarkSuite(), cfg);

    report::banner(std::cout,
                   "Figure 8: speedup vs. memory-side LLC (all 16 "
                   "benchmarks)");
    report::Table t({"benchmark", "group", "SM-side", "Static", "Dynamic",
                     "SAC"});
    for (const auto &r : results) {
        t.addRow({r.profile.name, r.profile.smSidePreferred ? "SP" : "MP",
                  r.speedupCell(OrgKind::SmSide),
                  r.speedupCell(OrgKind::StaticLlc),
                  r.speedupCell(OrgKind::DynamicLlc),
                  r.speedupCell(OrgKind::Sac)});
    }

    std::vector<bench::BenchResults> sp;
    std::vector<bench::BenchResults> mp;
    for (const auto &r : results)
        (r.profile.smSidePreferred ? sp : mp).push_back(r);
    const auto sp_h = bench::hmeanSpeedups(sp);
    const auto mp_h = bench::hmeanSpeedups(mp);
    const auto all_h = bench::hmeanSpeedups(results);

    // A group whose every benchmark had a failed run has no mean.
    const auto cell = [](const std::map<OrgKind, double> &h, OrgKind kind) {
        const auto it = h.find(kind);
        return it == h.end() ? std::string("n/a") : report::times(it->second);
    };
    const auto hrow = [&](const char *name,
                          const std::map<OrgKind, double> &h) {
        t.addRow({name, "", cell(h, OrgKind::SmSide),
                  cell(h, OrgKind::StaticLlc), cell(h, OrgKind::DynamicLlc),
                  cell(h, OrgKind::Sac)});
    };
    hrow("HMEAN (SP)", sp_h);
    hrow("HMEAN (MP)", mp_h);
    hrow("HMEAN (all)", all_h);
    t.print(std::cout);

    std::cout << "\nHeadline checks:\n";
    if (all_h.size() < bench::allOrgs().size()) {
        std::cout << "  no benchmark completed under every organization\n";
        return;
    }
    const double sac = all_h.at(OrgKind::Sac);
    bench::paperCompare(std::cout, "SAC vs memory-side", "+76%",
                        report::percent(sac - 1.0));
    bench::paperCompare(
        std::cout, "SAC vs SM-side", "+12%",
        report::percent(sac / all_h.at(OrgKind::SmSide) - 1.0));
    bench::paperCompare(
        std::cout, "SAC vs Static", "+31%",
        report::percent(sac / all_h.at(OrgKind::StaticLlc) - 1.0));
    bench::paperCompare(
        std::cout, "SAC vs Dynamic", "+18%",
        report::percent(sac / all_h.at(OrgKind::DynamicLlc) - 1.0));

    double best_vs_mem = 0.0;
    double best_vs_sm = 0.0;
    for (const auto &r : results) {
        if (!r.complete())
            continue;
        const double vs_mem = *r.speedupOf(OrgKind::Sac);
        best_vs_mem = std::max(best_vs_mem, vs_mem);
        best_vs_sm =
            std::max(best_vs_sm, vs_mem / *r.speedupOf(OrgKind::SmSide));
    }
    bench::paperCompare(std::cout, "SAC max vs memory-side", "+157%",
                        report::percent(best_vs_mem - 1.0));
    bench::paperCompare(std::cout, "SAC max vs SM-side", "+49%",
                        report::percent(best_vs_sm - 1.0));
}

/** Micro: cost of a routed injection (routing + page table). */
void
BM_RoutePlan(benchmark::State &state)
{
    const AddressMap map(4, 2, 128);
    SmSideRouting policy;
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(policy.route(a, 0, 2, map));
        a += 128;
    }
}
BENCHMARK(BM_RoutePlan);

} // namespace

int
main(int argc, char **argv)
{
    study();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
