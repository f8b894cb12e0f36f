/**
 * @file
 * Golden cache-key test: pins the exact bytes of canonicalJobKey and
 * the content hash for the jobs a default sacsimd sweep builds — the
 * 16 Table-4 benchmarks x the five LLC organizations at the default
 * config, seed 1, plus one sac.scenario.v1 job.
 *
 * The key names every ResultCache entry file. A key writer that
 * changed one byte would silently turn every existing cache directory
 * into misses (nothing else fails: lookups just re-simulate), so a
 * key change must be deliberate: bump planSchemaVersion, then
 * regenerate tests/data/golden_cache_keys.txt.
 *
 * File format: one job per line, "<016x content hash> <canonical key>".
 * On a mismatch the actual lines are written next to the test binary
 * (golden_actual_cache_keys.txt).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "service/protocol.hh"
#include "sim/plan.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

std::string
goldenRequest()
{
    std::string plan;
    for (const WorkloadProfile &profile : benchmarkSuite()) {
        plan += "{\"benchmark\":\"" + profile.name +
                "\",\"org\":\"all\",\"seed\":1},";
    }
    // A multi-tenant job: stream fields (launch cycle, a fractional
    // cluster share, a per-stream kernel length) enter the key too.
    plan += "{\"scenario\":[{\"benchmark\":\"CFD\",\"clusterShare\":0.15},"
            "{\"benchmark\":\"RN\",\"launchCycle\":4096,\"apw\":24}],"
            "\"org\":\"sac\",\"seed\":1}";
    return "{\"schema\":\"sac.sweep.v1\",\"id\":\"golden\",\"plan\":[" +
           plan + "]}";
}

std::vector<std::string>
actualLines()
{
    const service::SweepRequest req = service::parseRequest(goldenRequest());
    std::vector<std::string> lines;
    for (const ExperimentJob &job : req.plan.jobs()) {
        const std::string key = canonicalJobKey(job);
        char hash[24];
        std::snprintf(hash, sizeof hash, "%016" PRIx64,
                      contentHashOfKey(key));
        lines.push_back(std::string(hash) + " " + key);
    }
    return lines;
}

std::vector<std::string>
goldenLines()
{
    std::ifstream in(SAC_TEST_DATA_DIR "/golden_cache_keys.txt");
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

TEST(CacheKeyGolden, KeysAndHashesMatchTheCommittedBytes)
{
    const std::vector<std::string> actual = actualLines();
    ASSERT_EQ(actual.size(), 16u * 5u + 1u);
    const std::vector<std::string> golden = goldenLines();
    if (actual != golden) {
        std::ofstream out("golden_actual_cache_keys.txt");
        for (const std::string &line : actual)
            out << line << "\n";
    }
    ASSERT_EQ(golden.size(), actual.size())
        << "golden key file missing or short; actual written to "
           "golden_actual_cache_keys.txt";
    for (std::size_t i = 0; i < actual.size(); ++i)
        EXPECT_EQ(actual[i], golden[i]) << "job " << i;
}

TEST(CacheKeyGolden, ContentHashAgreesWithTheKeyHash)
{
    const service::SweepRequest req = service::parseRequest(goldenRequest());
    for (const ExperimentJob &job : req.plan.jobs())
        EXPECT_EQ(contentHash(job), contentHashOfKey(canonicalJobKey(job)));
}

} // namespace
} // namespace sac
