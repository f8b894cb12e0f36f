/**
 * @file
 * The daemon's warm path, step by step: host time per job to build
 * the canonical key, hash it, look the job up in a ResultCache (from
 * the in-memory tier, and from disk on a fresh instance) and encode its
 * wire record event. These steps are all a warm sweep costs: a plan
 * whose every job is cached runs no simulation.
 *
 * The plan is the one perfbench's daemon-replay workload re-serves:
 * the 16 Table-4 benchmarks x the five organizations x seeds 1 and 2
 * at 16 accesses per warp, without BFS/SAC (158 jobs). It is
 * simulated once into a temporary cache directory, then each micro
 * cycles through its jobs; the time per iteration is the time per
 * job. docs/SERVICE.md keeps the before/after table.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "common/json.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "workload/suite.hh"

namespace {

using namespace sac;

std::string
replayRequest()
{
    json::Builder plan('[');
    const auto add = [&](const std::string &name, const char *org,
                         std::uint64_t seed) {
        json::Builder spec('{');
        spec.field("benchmark", json::escape(name))
            .field("org", json::escape(org))
            .field("seed", json::number(seed))
            .field("apw", json::number(std::uint64_t{16}));
        plan.item(spec.close('}'));
    };
    for (const std::uint64_t seed : {1, 2}) {
        for (const auto &name : benchmarkNames()) {
            if (name == "BFS") {
                for (const char *org : {"mem", "sm", "static", "dynamic"})
                    add(name, org, seed);
            } else {
                add(name, "all", seed);
            }
        }
    }
    return json::Builder('{')
        .field("schema", json::escape(service::requestSchema))
        .field("id", json::escape("replay"))
        .field("plan", plan.close(']'))
        .close('}');
}

/** The plan, its cached records and the directory holding them. */
struct WarmPlan
{
    WarmPlan()
        : dir((std::filesystem::temp_directory_path() /
               ("sac_service_warm_path." + std::to_string(::getpid())))
                  .string()),
          request(service::parseRequest(replayRequest()))
    {
        service::ResultCache cache(dir);
        ExperimentEngine engine(bench::benchJobs());
        engine.setCache(&cache);
        records = engine.run(request.plan);
    }

    ~WarmPlan() { std::filesystem::remove_all(dir); }

    const std::string dir;
    const service::SweepRequest request;
    std::vector<RunRecord> records;
};

WarmPlan &
warmPlan()
{
    static WarmPlan plan;
    return plan;
}

/** Runs @p step once per iteration, cycling through the plan's jobs. */
template <typename Step>
void
perJob(benchmark::State &state, Step step)
{
    const auto &jobs = warmPlan().request.plan.jobs();
    std::size_t i = 0;
    for (auto _ : state) {
        step(i);
        i = i + 1 == jobs.size() ? 0 : i + 1;
    }
    state.counters["jobs"] = static_cast<double>(jobs.size());
}

void
BM_CanonicalJobKey(benchmark::State &state)
{
    const auto &jobs = warmPlan().request.plan.jobs();
    perJob(state, [&](std::size_t i) {
        benchmark::DoNotOptimize(canonicalJobKey(jobs[i]));
    });
}
BENCHMARK(BM_CanonicalJobKey);

void
BM_ContentHashOfKey(benchmark::State &state)
{
    std::vector<std::string> keys;
    for (const auto &job : warmPlan().request.plan.jobs())
        keys.push_back(canonicalJobKey(job));
    perJob(state, [&](std::size_t i) {
        benchmark::DoNotOptimize(contentHashOfKey(keys[i]));
    });
}
BENCHMARK(BM_ContentHashOfKey);

/** ResultCache::lookup on a warmed instance: every job is served
 *  from the in-memory tier. */
void
BM_WarmLookup(benchmark::State &state)
{
    service::ResultCache cache(warmPlan().dir);
    const auto &jobs = warmPlan().request.plan.jobs();
    for (const auto &job : jobs) {
        if (!cache.lookup(job))
            state.SkipWithError("warm plan missed the cache");
    }
    perJob(state, [&](std::size_t i) {
        benchmark::DoNotOptimize(cache.lookup(jobs[i]));
    });
}
BENCHMARK(BM_WarmLookup);

/** The first lookup of each job on a fresh instance: the disk path
 *  (open, read, parse, key compare, decode, touch). */
void
BM_DiskLookup(benchmark::State &state)
{
    const auto &jobs = warmPlan().request.plan.jobs();
    std::optional<service::ResultCache> cache;
    std::size_t i = 0;
    for (auto _ : state) {
        if (i == 0) {
            state.PauseTiming();
            cache.emplace(warmPlan().dir);
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(cache->lookup(jobs[i]));
        i = i + 1 == jobs.size() ? 0 : i + 1;
    }
    state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_DiskLookup);

void
BM_RecordEvent(benchmark::State &state)
{
    const WarmPlan &plan = warmPlan();
    const auto &jobs = plan.request.plan.jobs();
    perJob(state, [&](std::size_t i) {
        const EngineProgress event{i + 1, jobs.size(), jobs[i],
                                   plan.records[i]};
        benchmark::DoNotOptimize(
            service::recordEvent(plan.request, event));
    });
}
BENCHMARK(BM_RecordEvent);

} // namespace

BENCHMARK_MAIN();
